/**
 * @file
 * Unit and property tests for the fleet driver's deterministic
 * foundations (sprint/fleet.hh): FleetSpec sampling reproducible from
 * (seed, device index) alone, shard-range construction, mergeable
 * aggregates (exact counters, deterministic P² quantile merge; the
 * merged quantiles still depend on the worker count, see fleet.hh),
 * spec wire
 * round-trips, firstDifference naming every aggregate field,
 * every-truncation, bit-flip and type-bound sweeps over the spec and
 * pipe frame decoders, a small in-process fleet sanity run, both
 * transports against a fold of per-device runScenario results,
 * multi-process parity of the aggregates and of the per-device results
 * read back from each transport's store, and rejection of a zero
 * checkpoint cadence. The fault-recovery parity
 * gates live in tests/fleet_fault_test.cc and
 * tests/differential_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "fresh_dir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/supervisor.hh"

namespace csprint {
namespace {

FleetSpec
smallFleet(std::uint64_t seed, int num_devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = num_devices;

    FleetDeviceClass small;
    small.weight = 2.0;
    small.cores = 4;
    small.pcm_mass_lo = kSmallPcm;
    small.pcm_mass_hi = 2.0 * kSmallPcm;
    small.ambient_lo = 22.0;
    small.ambient_hi = 30.0;
    small.policy = SprintPolicyKind::GreedyActivity;
    small.num_tasks = 3;
    small.period = 2.5e-3;
    spec.classes.push_back(small);

    FleetDeviceClass paced;
    paced.weight = 1.0;
    paced.cores = 8;
    paced.pcm_mass_lo = kSmallPcm;
    paced.pcm_mass_hi = kSmallPcm;
    paced.policy = SprintPolicyKind::DutyCycle;
    paced.pacing_period = 2.5e-3;
    paced.num_tasks = 3;
    paced.period = 2.5e-3;
    paced.mix = {{KernelId::Sobel, InputSize::A, 3.0},
                 {KernelId::Kmeans, InputSize::A, 1.0}};
    spec.classes.push_back(paced);

    return spec;
}

void
expectP2BitEqual(const P2Quantile &a, const P2Quantile &b)
{
    double sa[P2Quantile::kStateSize];
    double sb[P2Quantile::kStateSize];
    a.save(sa);
    b.save(sb);
    EXPECT_EQ(0, std::memcmp(sa, sb, sizeof(sa)));
}

TEST(FleetSampling, DeviceConfigIsReproducible)
{
    const FleetSpec spec = smallFleet(7, 16);
    for (int d = 0; d < spec.num_devices; ++d) {
        const ScenarioConfig a = fleetDeviceConfig(spec, d);
        const ScenarioConfig b = fleetDeviceConfig(spec, d);
        EXPECT_EQ(scenarioConfigDigest(a), scenarioConfigDigest(b));
        EXPECT_EQ(a.seed, b.seed);
    }
}

TEST(FleetSampling, DevicesDecorrelateAndCoverClasses)
{
    const FleetSpec spec = smallFleet(7, 32);
    std::set<std::uint32_t> digests;
    std::set<int> cores_seen;
    for (int d = 0; d < spec.num_devices; ++d) {
        const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
        digests.insert(scenarioConfigDigest(cfg));
        cores_seen.insert(cfg.platform.sprint_cores);
    }
    // Sampled PCM mass / ambient make virtually every device distinct,
    // and both classes (4- and 8-core) appear in 32 draws.
    EXPECT_GT(digests.size(), 16u);
    EXPECT_EQ(cores_seen.size(), 2u);
}

TEST(FleetSampling, SeedChangesThePopulation)
{
    const FleetSpec a = smallFleet(7, 8);
    const FleetSpec b = smallFleet(8, 8);
    int differing = 0;
    for (int d = 0; d < a.num_devices; ++d)
        if (scenarioConfigDigest(fleetDeviceConfig(a, d)) !=
            scenarioConfigDigest(fleetDeviceConfig(b, d)))
            ++differing;
    EXPECT_GT(differing, 0);
}

TEST(FleetSampling, SpecRoundTripPreservesEverything)
{
    const FleetSpec spec = smallFleet(1234, 12);
    FaultPlan plan;
    plan.faults.push_back({3, FaultKind::KillWorker, 2});
    plan.faults.push_back({5, FaultKind::BitFlip, 1});
    FleetOptions opts;
    opts.checkpoint_every_tasks = 2;
    opts.paranoia = true;

    const auto blob = serializeFleetSpec(spec, plan, opts);
    FleetSpec spec2;
    FaultPlan plan2;
    FleetOptions opts2;
    deserializeFleetSpec(blob, spec2, plan2, opts2);

    EXPECT_EQ(serializeFleetSpec(spec2, plan2, opts2), blob);
    EXPECT_EQ(spec2.num_devices, spec.num_devices);
    ASSERT_EQ(plan2.faults.size(), plan.faults.size());
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        EXPECT_EQ(plan2.faults[i].shard, plan.faults[i].shard);
        EXPECT_EQ(plan2.faults[i].kind, plan.faults[i].kind);
        EXPECT_EQ(plan2.faults[i].at_seq, plan.faults[i].at_seq);
    }
    EXPECT_EQ(opts2.checkpoint_every_tasks,
              opts.checkpoint_every_tasks);
    EXPECT_EQ(opts2.paranoia, opts.paranoia);
    for (int d = 0; d < spec.num_devices; ++d)
        EXPECT_EQ(scenarioConfigDigest(fleetDeviceConfig(spec, d)),
                  scenarioConfigDigest(fleetDeviceConfig(spec2, d)));
}

/** A sealed spec blob with a fault plan, as workers receive it. */
std::vector<std::uint8_t>
sampleSpecBlob()
{
    FaultPlan plan;
    plan.faults.push_back({1, FaultKind::KillWorker, 2});
    FleetOptions opts;
    opts.checkpoint_every_tasks = 3;
    return serializeFleetSpec(smallFleet(3, 4), plan, opts);
}

TEST(FleetSampling, EverySpecTruncationIsRejected)
{
    const std::vector<std::uint8_t> blob = sampleSpecBlob();
    for (std::size_t len = 0; len < blob.size(); ++len) {
        const std::vector<std::uint8_t> prefix(blob.begin(),
                                               blob.begin() + len);
        FleetSpec out;
        FaultPlan plan;
        FleetOptions opts;
        EXPECT_THROW(deserializeFleetSpec(prefix, out, plan, opts),
                     CheckpointError)
            << "prefix of " << len << " bytes";
    }
}

TEST(FleetSampling, EverySpecBitFlipIsRejected)
{
    const std::vector<std::uint8_t> blob = sampleSpecBlob();
    for (std::size_t bit = 0; bit < 8 * blob.size(); ++bit) {
        std::vector<std::uint8_t> bad = blob;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        FleetSpec out;
        FaultPlan plan;
        FleetOptions opts;
        EXPECT_THROW(deserializeFleetSpec(bad, out, plan, opts),
                     CheckpointError)
            << "flipped bit " << bit;
    }
}

TEST(FleetRanges, CoverContiguousAndBalanced)
{
    for (int devices : {1, 2, 5, 7, 64}) {
        for (int workers : {1, 2, 3, 8, 100}) {
            const auto ranges = fleetShardRanges(devices, workers);
            ASSERT_FALSE(ranges.empty());
            EXPECT_LE(static_cast<int>(ranges.size()),
                      std::min(devices, std::max(1, workers)));
            int expect_begin = 0;
            int lo = devices, hi = 0;
            for (const auto &r : ranges) {
                EXPECT_EQ(r.first, expect_begin);
                EXPECT_GT(r.second, r.first);
                const int len = r.second - r.first;
                lo = std::min(lo, len);
                hi = std::max(hi, len);
                expect_begin = r.second;
            }
            EXPECT_EQ(expect_begin, devices);
            EXPECT_LE(hi - lo, 1);
        }
    }
    EXPECT_THROW(fleetShardRanges(0, 2), std::invalid_argument);
}

TEST(FleetAggregatesTest, CounterMergeIsExact)
{
    // Five synthetic devices with every tally set: one range folded
    // whole must equal two ranges folded and merged, bit for bit.
    // Five responses keep the P² estimators in their exact bootstrap,
    // and integer-valued sums round alike in either grouping, so the
    // whole aggregate — not just its counters — must match.
    std::vector<ScenarioResult> devices(5);
    Rng rng(99);
    std::uint64_t exhausted = 0, preempted = 0;
    for (ScenarioResult &r : devices) {
        TaskTallies<int>::forEachField([&](const char *, auto field) {
            r.*field = 1 + static_cast<int>(rng.uniformInt(9));
        });
        r.sprint_rest_cycles = static_cast<int>(rng.uniformInt(4));
        r.peak_melt_fraction = rng.uniform();
        ScenarioTaskResult t;
        t.response = rng.uniform(1e-4, 1e-2);
        r.tasks.push_back(t);
        exhausted += static_cast<std::uint64_t>(r.sprints_exhausted);
        preempted += static_cast<std::uint64_t>(r.preemptions);
    }
    const Celsius limit = 5.0; // some of the peaks (1..9) violate it

    FleetAggregates one, whole;
    for (const ScenarioResult &r : devices)
        one.foldDevice(r, limit);
    one.foldDegradedDevice();
    whole.merge(one);

    FleetAggregates left, right, merged;
    for (std::size_t i = 0; i < 2; ++i)
        left.foldDevice(devices[i], limit);
    for (std::size_t i = 2; i < devices.size(); ++i)
        right.foldDevice(devices[i], limit);
    right.foldDegradedDevice();
    merged.merge(left);
    merged.merge(right);

    EXPECT_EQ(firstDifference(whole, merged), "");
    EXPECT_EQ(merged.sprints_exhausted, exhausted);
    EXPECT_EQ(merged.preemptions, preempted);
}

/** The fleet-only integer and double fields, by name. */
const std::pair<const char *, std::uint64_t FleetAggregates::*>
    kFleetCounters[] = {
        {"devices", &FleetAggregates::devices},
        {"degraded_devices", &FleetAggregates::degraded_devices},
        {"melt_cycles", &FleetAggregates::melt_cycles},
        {"thermal_violations", &FleetAggregates::thermal_violations},
};
constexpr std::pair<const char *, double FleetAggregates::*> kPeakMelt = {
    "peak_melt", &FleetAggregates::peak_melt};

/** Aggregates whose every field holds a distinct value. */
FleetAggregates
distinctAggregates()
{
    FleetAggregates agg;
    std::uint64_t next = (1ull << 40) + 1;
    TaskTallies<std::uint64_t>::forEachField(
        [&](const char *, auto field) { agg.*field = next++; });
    for (const auto &[name, field] : kFleetCounters)
        agg.*field = next++;
    agg.peak_melt = 0.75;
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        const double response = rng.uniform(1e-4, 1e-2);
        agg.response_p50.add(response);
        agg.response_p95.add(response);
    }
    return agg;
}

TEST(FleetAggregatesTest, FirstDifferenceNamesEveryField)
{
    // Each field perturbed on a copy is named, and only that field;
    // doubles also differ on +0.0 vs -0.0 and on NaN against itself.
    const FleetAggregates agg = distinctAggregates();
    EXPECT_EQ(firstDifference(agg, agg), "");
    const auto expectNamed = [&agg](const char *name, auto field) {
        FleetAggregates x = agg, y = agg;
        y.*field += 1;
        EXPECT_EQ(firstDifference(x, y), name);
        if constexpr (std::is_same_v<std::decay_t<decltype(x.*field)>,
                                     double>) {
            x.*field = 0.0;
            y.*field = -0.0;
            EXPECT_EQ(firstDifference(x, y), name) << "+0.0 vs -0.0";
            x.*field = y.*field = std::nan("");
            EXPECT_EQ(firstDifference(x, y), name) << "NaN on both sides";
        }
    };
    TaskTallies<std::uint64_t>::forEachField(expectNamed);
    for (const auto &[name, field] : kFleetCounters)
        expectNamed(name, field);
    expectNamed(kPeakMelt.first, kPeakMelt.second);
    for (const auto &[name, field] :
         {std::pair{"response_p50", &FleetAggregates::response_p50},
          std::pair{"response_p95", &FleetAggregates::response_p95}}) {
        FleetAggregates other = agg;
        (other.*field).add(5e-3);
        EXPECT_EQ(firstDifference(agg, other), name);
    }
}

TEST(P2Merge, SmallMergesAreExact)
{
    P2Quantile a(0.50), b(0.50);
    a.add(3.0);
    a.add(1.0);
    a.add(5.0);
    b.add(2.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    // Exact nearest-rank median of {1, 2, 3, 4, 5}.
    EXPECT_EQ(a.value(), 3.0);

    P2Quantile empty(0.50);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 5u);
    EXPECT_EQ(empty.value(), 3.0);
}

TEST(P2Merge, MergeIsDeterministic)
{
    Rng rng(17);
    P2Quantile a1(0.95), a2(0.95), b(0.95);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform();
        a1.add(x);
        a2.add(x);
    }
    for (int i = 0; i < 80; ++i)
        b.add(rng.uniform());
    a1.merge(b);
    a2.merge(b);
    expectP2BitEqual(a1, a2);
}

TEST(P2Merge, OrderInsensitiveWithinTolerance)
{
    // Three chunks of one uniform stream, merged in every order: the
    // count is exact, every estimate stays a valid quantile of the
    // stream, and the estimates agree with the single-stream run and
    // with each other within an estimator tolerance.
    Rng rng(23);
    std::vector<double> samples(600);
    for (double &x : samples)
        x = rng.uniform();

    P2Quantile whole(0.50);
    std::vector<P2Quantile> chunks(3, P2Quantile(0.50));
    for (std::size_t i = 0; i < samples.size(); ++i) {
        whole.add(samples[i]);
        chunks[i % 3].add(samples[i]);
    }

    const std::vector<std::vector<int>> orders = {
        {0, 1, 2}, {2, 1, 0}, {1, 0, 2}};
    std::vector<double> estimates;
    for (const auto &order : orders) {
        P2Quantile merged(0.50);
        for (int c : order)
            merged.merge(chunks[static_cast<std::size_t>(c)]);
        EXPECT_EQ(merged.count(), samples.size());
        estimates.push_back(merged.value());
    }
    for (double est : estimates) {
        EXPECT_NEAR(est, whole.value(), 0.1);
        EXPECT_NEAR(est, 0.5, 0.1); // true median of U(0, 1)
        EXPECT_GE(est, *std::min_element(samples.begin(),
                                         samples.end()));
        EXPECT_LE(est, *std::max_element(samples.begin(),
                                         samples.end()));
    }
    for (std::size_t i = 1; i < estimates.size(); ++i)
        EXPECT_NEAR(estimates[i], estimates[0], 0.15);
}

TEST(FleetInProcess, SmallFleetAggregatesSensibly)
{
    const FleetSpec spec = smallFleet(42, 6);

    FleetOptions opts;
    opts.num_workers = 2;
    opts.checkpoint_every_tasks = 2;
    opts.store_dir = freshDir("fleet-ip");

    const FleetResult res = runFleetInProcess(spec, opts);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.aggregates.devices,
              static_cast<std::uint64_t>(spec.num_devices));
    EXPECT_EQ(res.aggregates.degraded_devices, 0u);
    EXPECT_GT(res.aggregates.tasks_completed, 0u);
    EXPECT_GT(res.aggregates.response_p50.value(), 0.0);
    EXPECT_GE(res.aggregates.response_p95.value(),
              res.aggregates.response_p50.value());
    EXPECT_GE(res.aggregates.deadlineSlo(), 0.0);
    EXPECT_LE(res.aggregates.deadlineSlo(), 1.0);
    EXPECT_GT(res.aggregates.peak_junction, 0.0);
    ASSERT_EQ(res.devices.size(),
              static_cast<std::size_t>(spec.num_devices));
    for (const FleetDeviceOutcome &d : res.devices) {
        EXPECT_TRUE(d.completed);
        EXPECT_NE(d.checkpoint_digest, 0u);
    }
    ASSERT_EQ(res.workers.size(), 2u);

    // The range split cannot change any exact aggregate: one worker
    // vs two must agree on every counter.
    FleetOptions one = opts;
    one.num_workers = 1;
    one.store_dir = freshDir("fleet-ip1");
    const FleetResult res1 = runFleetInProcess(spec, one);
    EXPECT_EQ(res1.aggregates.tasks_completed,
              res.aggregates.tasks_completed);
    EXPECT_EQ(res1.aggregates.sprints_granted,
              res.aggregates.sprints_granted);
    EXPECT_EQ(res1.aggregates.melt_cycles, res.aggregates.melt_cycles);
    EXPECT_EQ(res1.aggregates.thermal_violations,
              res.aggregates.thermal_violations);
    EXPECT_EQ(res1.aggregates.peak_junction,
              res.aggregates.peak_junction);
    // total_energy is a sum whose grouping follows the range split, so
    // across different worker counts it only agrees to rounding.
    EXPECT_NEAR(res1.aggregates.total_energy,
                res.aggregates.total_energy,
                1e-12 * res.aggregates.total_energy);
    ASSERT_EQ(res1.devices.size(), res.devices.size());
    for (std::size_t d = 0; d < res.devices.size(); ++d)
        EXPECT_EQ(res1.devices[d].checkpoint_digest,
                  res.devices[d].checkpoint_digest);
}

TEST(FleetInProcess, FoldEqualsPerDeviceRunScenario)
{
    // An oracle that shares no code with the range reducer: each
    // device run uninterrupted by runScenario, folded in range order,
    // ranges merged in order. Both transports must equal it bit for
    // bit, P² state included. One class rests after its last task, so
    // the reducer's finish integrates a tail cooldown.
    FleetSpec spec = smallFleet(17, 7);
    spec.classes[1].tail_rest = 2e-3;
    FleetOptions opts;
    opts.num_workers = 3;
    opts.checkpoint_every_tasks = 2;

    FleetAggregates expect;
    bool tail_rest = false;
    for (const auto &[begin, end] :
         fleetShardRanges(spec.num_devices, opts.num_workers)) {
        FleetAggregates range;
        for (int d = begin; d < end; ++d) {
            const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
            tail_rest = tail_rest || cfg.tail_rest > 0.0;
            range.foldDevice(runScenario(cfg),
                             fleetDeviceThermalLimit(spec, cfg));
        }
        expect.merge(range);
    }
    EXPECT_TRUE(tail_rest) << "no device runs the tail-rest finish path";

    opts.store_dir = freshDir("fleet-oracle-ip");
    const FleetResult ip = runFleetInProcess(spec, opts);
    opts.store_dir = freshDir("fleet-oracle-mp");
    const FleetResult mp = runFleetMultiProcess(spec, opts);
    ASSERT_TRUE(ip.allOk());
    ASSERT_TRUE(mp.allOk());
    EXPECT_EQ(firstDifference(expect, ip.aggregates), "");
    EXPECT_EQ(firstDifference(expect, mp.aggregates), "");
}

/** A valid frame stream and where each of its frames ends. */
struct FrameStream
{
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> ends;
    std::vector<std::vector<std::uint8_t>> payloads;
};

FrameStream
sampleFrameStream()
{
    FrameStream s;
    const auto add = [&s](FleetFrameType type,
                          std::vector<std::uint8_t> payload) {
        const auto frame =
            encodeFleetFrame(type, payload.data(), payload.size());
        s.bytes.insert(s.bytes.end(), frame.begin(), frame.end());
        s.ends.push_back(s.bytes.size());
        s.payloads.push_back(std::move(payload));
    };
    Rng rng(11);
    std::vector<std::uint8_t> blob(96);
    for (std::uint8_t &b : blob)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    add(FleetFrameType::Hello, std::vector<std::uint8_t>(24, 1));
    add(FleetFrameType::Beat, std::vector<std::uint8_t>(8, 2));
    add(FleetFrameType::FaultFired, std::vector<std::uint8_t>(8, 3));
    add(FleetFrameType::DeviceDone, blob);
    add(FleetFrameType::Error, {});
    return s;
}

/**
 * Feed @p bytes to a fresh reader in @p chunk-byte appends, decoding
 * after each; returns the payloads decoded before the first non-Frame
 * status after the last append, which lands in @p last.
 */
std::vector<std::vector<std::uint8_t>>
decodeAll(const std::vector<std::uint8_t> &bytes, std::size_t chunk,
          FleetFrameReader::Status &last)
{
    FleetFrameReader reader;
    std::vector<std::vector<std::uint8_t>> got;
    FleetFrameReader::Frame f;
    last = FleetFrameReader::Status::NeedMore;
    for (std::size_t at = 0; at < bytes.size(); at += chunk) {
        reader.append(bytes.data() + at,
                      std::min(chunk, bytes.size() - at));
        while ((last = reader.next(f)) == FleetFrameReader::Status::Ready)
            got.emplace_back(f.payload, f.payload + f.size);
        if (last == FleetFrameReader::Status::Corrupt)
            break;
    }
    return got;
}

TEST(FleetFrames, CleanStreamDecodesInAnyChunking)
{
    const FrameStream s = sampleFrameStream();
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              s.bytes.size()}) {
        FleetFrameReader::Status last;
        EXPECT_EQ(decodeAll(s.bytes, chunk, last), s.payloads)
            << "chunk " << chunk;
        EXPECT_EQ(last, FleetFrameReader::Status::NeedMore);
    }
}

TEST(FleetFrames, EveryTruncationNeedsMoreBytes)
{
    const FrameStream s = sampleFrameStream();
    for (std::size_t len = 0; len < s.bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(s.bytes.begin(),
                                               s.bytes.begin() + len);
        FleetFrameReader::Status last;
        const auto got = decodeAll(prefix, prefix.size() + 1, last);
        EXPECT_EQ(last, FleetFrameReader::Status::NeedMore) << "len " << len;
        const std::size_t whole = static_cast<std::size_t>(
            std::upper_bound(s.ends.begin(), s.ends.end(), len) -
            s.ends.begin());
        ASSERT_EQ(got.size(), whole) << "len " << len;
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], s.payloads[i]);
    }
}

TEST(FleetFrames, EveryBitFlipIsRejectedOrIncomplete)
{
    // The CRC covers type, length and payload, so no single flipped
    // bit decodes as a valid frame: the stream stops at the damaged
    // frame, either corrupt or (a grown length) waiting for bytes.
    const FrameStream s = sampleFrameStream();
    for (std::size_t bit = 0; bit < 8 * s.bytes.size(); ++bit) {
        std::vector<std::uint8_t> bytes = s.bytes;
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        const std::size_t damaged = static_cast<std::size_t>(
            std::upper_bound(s.ends.begin(), s.ends.end(), bit / 8) -
            s.ends.begin());
        FleetFrameReader::Status last;
        const auto got = decodeAll(bytes, bytes.size(), last);
        EXPECT_NE(last, FleetFrameReader::Status::Ready);
        ASSERT_EQ(got.size(), damaged) << "bit " << bit;
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], s.payloads[i]);
    }
}

TEST(FleetFrames, TypeOutsideTheProtocolIsCorrupt)
{
    // Types 0 and one past Error (the vacated 6) are not frames, even
    // with an intact CRC; every type in between decodes.
    for (std::uint32_t type = 0; type <= 7; ++type) {
        const std::vector<std::uint8_t> payload(8, 4);
        const auto frame = encodeFleetFrame(
            static_cast<FleetFrameType>(type), payload.data(),
            payload.size());
        FleetFrameReader::Status last;
        const auto got = decodeAll(frame, frame.size(), last);
        const bool known =
            type >= static_cast<std::uint32_t>(FleetFrameType::Hello) &&
            type <= static_cast<std::uint32_t>(FleetFrameType::Error);
        EXPECT_EQ(got.size(), known ? 1u : 0u) << "type " << type;
        EXPECT_EQ(last, known ? FleetFrameReader::Status::NeedMore
                              : FleetFrameReader::Status::Corrupt)
            << "type " << type;
    }
    EXPECT_EQ(static_cast<std::uint32_t>(FleetFrameType::Error), 5u);
}

TEST(FleetMultiProcess, StoredDeviceResultsMatchInProcess)
{
    const FleetSpec spec = smallFleet(29, 6);
    FleetOptions opts;
    opts.num_workers = 2;
    opts.checkpoint_every_tasks = 2;
    const std::string ip_dir = freshDir("fleet-par-ip");
    const std::string mp_dir = freshDir("fleet-par-mp");
    opts.store_dir = ip_dir;
    const FleetResult ip = runFleetInProcess(spec, opts);
    opts.store_dir = mp_dir;
    const FleetResult mp = runFleetMultiProcess(spec, opts);
    ASSERT_TRUE(ip.allOk());
    ASSERT_TRUE(mp.allOk());

    // The two transports' folds agree on every aggregate field, P²
    // state included.
    EXPECT_EQ(firstDifference(ip.aggregates, mp.aggregates), "");
    ASSERT_EQ(mp.devices.size(), ip.devices.size());
    for (std::size_t d = 0; d < ip.devices.size(); ++d) {
        SCOPED_TRACE("device " + std::to_string(d));
        const int dev = static_cast<int>(d);
        EXPECT_TRUE(mp.devices[d].completed);
        EXPECT_EQ(ip.devices[d].checkpoint_digest,
                  mp.devices[d].checkpoint_digest);

        // Each store's newest blob is the one the outcome digests.
        for (const auto &[dir, res] :
             {std::pair{&ip_dir, &ip}, std::pair{&mp_dir, &mp}}) {
            const auto cands = CheckpointStore(*dir).loadCandidates(dev);
            ASSERT_FALSE(cands.empty());
            EXPECT_EQ(crc32(cands.front().blob.data(),
                            cands.front().blob.size()),
                      res->devices[d].checkpoint_digest);
        }

        // Full results live in the store and read back bit-equal.
        const ScenarioResult a = loadFleetDeviceResult(spec, ip_dir, dev);
        EXPECT_GT(a.tasks_completed, 0u);
        EXPECT_EQ(firstDifference(
                      a, loadFleetDeviceResult(spec, mp_dir, dev)),
                  "");
    }
}

TEST(FleetOptionsCheck, ZeroCheckpointCadenceIsRejected)
{
    // A zero slice never advances a device; every entry point must
    // refuse it up front instead of spinning forever.
    const FleetSpec spec = smallFleet(3, 2);
    FleetOptions opts;
    opts.checkpoint_every_tasks = 0;
    opts.store_dir = freshDir("fleet-zero");
    EXPECT_THROW(runFleetInProcess(spec, opts), std::invalid_argument);
    EXPECT_THROW(runFleetMultiProcess(spec, opts), std::invalid_argument);
    // Rejected before the spec file is written or a worker spawned.
    EXPECT_FALSE(std::filesystem::exists(opts.store_dir + "/fleet.spec"));
}

TEST(FleetOptionsCheck, BrokenSupervisionValuesAreRejected)
{
    // Each value would break the process parent: a negative retry
    // budget acts like zero, an infinite backoff sleeps forever, a NaN
    // watchdog deadline never fires on a stalled worker, and a
    // non-positive one kills every worker on its first poll.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    using Set = void (*)(FleetOptions &);
    const std::pair<const char *, Set> cases[] = {
        {"max_retries = -1", [](FleetOptions &o) { o.max_retries = -1; }},
        {"backoff_initial = -0.5",
         [](FleetOptions &o) { o.backoff_initial = -0.5; }},
        {"backoff_initial = inf",
         [](FleetOptions &o) { o.backoff_initial = kInf; }},
        {"backoff_initial = nan",
         [](FleetOptions &o) { o.backoff_initial = kNan; }},
        {"watchdog_deadline = nan",
         [](FleetOptions &o) { o.watchdog_deadline = kNan; }},
        {"watchdog_deadline = 0",
         [](FleetOptions &o) { o.watchdog_deadline = 0.0; }},
        {"watchdog_deadline = -1",
         [](FleetOptions &o) { o.watchdog_deadline = -1.0; }},
        {"watchdog_deadline = inf",
         [](FleetOptions &o) { o.watchdog_deadline = kInf; }},
    };
    const FleetSpec spec = smallFleet(3, 2);
    for (const auto &[what, set] : cases) {
        SCOPED_TRACE(what);
        FleetOptions opts;
        opts.store_dir = freshDir("fleet-knobs");
        set(opts);
        EXPECT_THROW(runFleetInProcess(spec, opts), std::invalid_argument);
        EXPECT_THROW(runFleetMultiProcess(spec, opts),
                     std::invalid_argument);
        EXPECT_TRUE(std::filesystem::is_empty(opts.store_dir));
    }
}

} // namespace
} // namespace csprint
