/**
 * @file
 * Randomized differential-test harness: N seeded random scenarios
 * (mixed kernels, sizes, arrival patterns, priorities, and policies —
 * preemptive ones included) driven through the fast paths and the
 * retained reference implementations, asserting bit-identical stats,
 * energy, and traces wherever the stack guarantees exactness:
 *
 *  - MachineLoop::EventDriven vs MachineLoop::Reference (the seed's
 *    cycle-by-cycle scheduler) through whole scenario timelines;
 *  - runScenarioSharded vs the unsharded engine;
 *  - streaming aggregates (keep_task_results = false, traces off) vs
 *    the full-trace engine;
 *  - the streaming arrival cursor vs the materialized timeline;
 *  - the ready queue's declared dispatch order vs the generic scan,
 *    on trains long enough to compact the queue;
 *
 *  - the thermal package loop vs the generic CSR Heun loop, through
 *    melt, refreeze and the quiescent stepper;
 *
 * plus a tolerance-gated differential for the Heun thermal integrator
 * against the retained ReferenceEuler.
 *
 * The seed rotates in CI (CSPRINT_DIFF_SEED, logged on every run) so
 * coverage accumulates across runs while any failure reproduces from
 * the logged value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "diff_seed.hh"
#include "fresh_dir.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "thermal/network.hh"
#include "thermal/validation.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

/** Draw one random scenario configuration. */
ScenarioConfig
randomScenario(Rng &rng)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(
        16, rng.uniform() < 0.5 ? kSmallPcm : 0.015);
    const auto &kinds = allSprintPolicyKinds();
    cfg.policy.kind = kinds[rng.uniformInt(kinds.size())];
    cfg.policy.pacing_period = 2.5e-3;
    cfg.policy.service_prior = rng.uniform(5e-4, 2e-3);
    cfg.policy.qos_slack = rng.uniform(0.5, 2.0);
    const auto &patterns = allArrivalPatterns();
    cfg.pattern = patterns[rng.uniformInt(patterns.size())];
    cfg.num_tasks = 3 + static_cast<int>(rng.uniformInt(3));
    cfg.period = rng.uniform(8e-4, 3e-3);
    cfg.burst_size = 2 + static_cast<int>(rng.uniformInt(2));
    cfg.burst_spacing = rng.uniform(0.0, 2e-4);
    const auto &kernels = allKernels();
    cfg.kernel = kernels[rng.uniformInt(kernels.size())];
    cfg.size = InputSize::A;
    cfg.seed = rng.next();
    cfg.warm_caches = rng.uniform() < 0.5;
    cfg.hi_priority_fraction = rng.uniform() < 0.5 ? 0.5 : 0.0;
    cfg.deadline_hi = rng.uniform(5e-4, 2e-3);
    cfg.deadline_lo = rng.uniform() < 0.5 ? 0.0 : 5e-3;
    cfg.tail_rest = rng.uniform() < 0.3 ? 1e-3 : 0.0;
    if (rng.uniform() < 0.4) {
        cfg.program_factory = makeWorkloadMixFactory(
            {{KernelId::Sobel, InputSize::A, 2.0},
             {KernelId::Kmeans, InputSize::A, 1.0},
             {KernelId::Feature, InputSize::A, 1.0}});
    }
    return cfg;
}

/** Scenario descriptor for failure messages. */
std::string
describe(const ScenarioConfig &cfg, int index)
{
    return "scenario " + std::to_string(index) + ": policy=" +
           sprintPolicyKindName(cfg.policy.kind) + " pattern=" +
           arrivalPatternName(cfg.pattern) + " kernel=" +
           kernelName(cfg.kernel) + " tasks=" +
           std::to_string(cfg.num_tasks) + " seed=" +
           std::to_string(cfg.seed) +
           (cfg.warm_caches ? " warm" : " cold") +
           (cfg.hi_priority_fraction > 0.0 ? " mixed-priority" : "");
}

TEST(Differential, EventLoopMatchesReferenceLoop)
{
    Rng rng(diffSeed());
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult fast = runScenario(cfg);
        ScenarioConfig ref = cfg;
        ref.platform.machine.loop = MachineLoop::Reference;
        const ScenarioResult slow = runScenario(ref);
        EXPECT_EQ(firstDifference(fast, slow), "");
    }
}

TEST(Differential, ShardedMatchesUnsharded)
{
    Rng rng(diffSeed() ^ 0x5ca1ab1eULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult whole = runScenario(cfg);
        for (std::uint64_t shard : {1u, 2u}) {
            const ScenarioResult sharded =
                runScenarioSharded(cfg, shard);
            EXPECT_EQ(firstDifference(whole, sharded), "");
        }
    }
}

TEST(Differential, StreamingAggregatesMatchFullEngine)
{
    Rng rng(diffSeed() ^ 0xdecade5ULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult full = runScenario(cfg);
        ScenarioConfig streaming = cfg;
        streaming.keep_task_results = false;
        streaming.trace_mode = TraceMode::Off;
        const ScenarioResult lean = runScenario(streaming);
        // Same physics sample for sample; only the storage and the
        // quantile estimator (exact vs P²) may differ.
        EXPECT_TRUE(lean.tasks.empty());
        FieldDiff tallies;
        lean.compare(tallies, full);
        EXPECT_EQ(tallies.first(), "");
        EXPECT_EQ(lean.sprint_rest_cycles, full.sprint_rest_cycles);
        EXPECT_EQ(lean.makespan, full.makespan);
        EXPECT_EQ(lean.peak_melt_fraction, full.peak_melt_fraction);
    }
}

TEST(Differential, ArrivalCursorMatchesMaterializedTimeline)
{
    Rng rng(diffSeed() ^ 0xa77ebeefULL);
    for (int i = 0; i < 8; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        cfg.num_tasks = 30;
        SCOPED_TRACE(describe(cfg, i));
        const auto all = buildArrivals(cfg);
        ArrivalCursor cursor(cfg);
        for (std::size_t t = 0; t < all.size(); ++t) {
            const ScenarioTask task = nextArrival(cfg, cursor);
            ASSERT_EQ(task.arrival, all[t].arrival);
            ASSERT_EQ(task.seed, all[t].seed);
            ASSERT_EQ(task.priority, all[t].priority);
            ASSERT_EQ(task.deadline, all[t].deadline);
        }
    }
}

TEST(Differential, SparseDirectoryMatchesFullMap)
{
    // The limited-pointer directory (inline sharers + overflow
    // bitsets) against the full-map baseline that forces every entry
    // onto the bitset path: the representation must be invisible in
    // every statistic and trace.
    Rng rng(diffSeed() ^ 0xd1ec70aaULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult sparse = runScenario(cfg);
        ScenarioConfig flat = cfg;
        flat.platform.machine.l2.directory = DirectoryKind::FullMap;
        const ScenarioResult full = runScenario(flat);
        EXPECT_EQ(firstDifference(sparse, full), "");
    }
}

TEST(Differential, HeapDispatchMatchesGenericScan)
{
    // The ready queue's Urgency heap against the retained
    // snapshot-materializing pickNext scan, on the policies that
    // declare the urgency order and with queues deep enough to
    // exercise reordering.
    Rng rng(diffSeed() ^ 0xbea9dec5ULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        cfg.policy.kind = i % 2 == 0 ? SprintPolicyKind::Qos
                                     : SprintPolicyKind::ModelPredictive;
        if (i < 2)
            cfg.pattern = ArrivalPattern::BackToBack;
        cfg.num_tasks = 8;
        cfg.hi_priority_fraction = 0.5;
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult heap = runScenario(cfg);
        ScenarioConfig generic = cfg;
        generic.debug.generic_dispatch = true;
        EXPECT_EQ(firstDifference(heap, runScenario(generic)), "");
    }
}

TEST(Differential, PipelinedBuildMatchesSerial)
{
    // Building task i+1's program while task i pumps must be
    // invisible; verify_pipeline_build additionally digests every
    // prebuilt program against a serial rebuild inside the engine.
    Rng rng(diffSeed() ^ 0x9192e11eULL);
    for (int i = 0; i < 3; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult serial = runScenario(cfg);
        ScenarioConfig piped = cfg;
        piped.pipeline_build = true;
        piped.debug.verify_pipeline_build = true;
        EXPECT_EQ(firstDifference(serial, runScenario(piped)), "");
    }
}

TEST(Differential, HeunIntegratorTracksReferenceEuler)
{
    // The retained first-order integrator is an accuracy reference,
    // not a bit reference: replay a random sprint-shaped power
    // schedule through both and bound the junction divergence.
    Rng rng(diffSeed() ^ 0xe51e57ULL);
    for (int i = 0; i < 3; ++i) {
        MobilePackageModel heun(
            SprintConfig::parallelSprint(16, 0.015).package);
        MobilePackageModel euler(heun.params());
        heun.reset();
        euler.reset();
        euler.network().setIntegrator(
            ThermalIntegrator::ReferenceEuler);

        double max_dev = 0.0;
        for (int step = 0; step < 400; ++step) {
            const Watts power =
                rng.uniform() < 0.4 ? rng.uniform(0.0, 16.0) : 0.0;
            const Seconds dt = rng.uniform(1e-6, 5e-5);
            heun.setDiePower(power);
            euler.setDiePower(power);
            heun.step(dt);
            euler.step(dt);
            max_dev = std::max(max_dev,
                               std::abs(heun.junctionTemp() -
                                        euler.junctionTemp()));
        }
        EXPECT_LT(max_dev, 0.05)
            << "integrator divergence at replay " << i;
        EXPECT_NEAR(heun.meltFraction(), euler.meltFraction(), 0.02);
    }
}

TEST(Differential, PackageKernelMatchesCsrLoop)
{
    // The straight-line package loop against the CSR loop, bit for
    // bit after every step: the oracle is the same package plus one
    // isolated node (pinToCsrLoop). Each replay draws a package, heats
    // its PCM from solid across the plateau into liquid, then cools it
    // back through refreeze with step() and the quiescent stepper
    // interleaved.
    Rng rng(diffSeed() ^ 0x9ac4a6e5ULL);
    for (int replay = 0; replay < 12; ++replay) {
        const Grams pcm_mass = rng.uniform(0.002, 0.2);
        const double time_scale = rng.uniform(2e-4, 5e-3);
        MobilePackageParams params =
            SprintConfig::scaledPackage(pcm_mass, time_scale);
        params.ambient = rng.uniform(0.0, 45.0);
        const Watts heat_power = rng.uniform(3.0, 20.0);
        const Watts cool_power = rng.uniform() < 0.5
                                     ? 0.0
                                     : rng.uniform(0.0, 0.2);
        SCOPED_TRACE("replay " + std::to_string(replay) + ": pcm " +
                     std::to_string(pcm_mass) + " g, time scale " +
                     std::to_string(time_scale) + ", ambient " +
                     std::to_string(params.ambient) + " C, heat " +
                     std::to_string(heat_power) + " W, cool " +
                     std::to_string(cool_power) + " W");
        MobilePackageModel fast(params);
        MobilePackageModel oracle(params);
        pinToCsrLoop(oracle);

        // Phase lengths from the package's energy budget: latent heat
        // plus the junction's and PCM's sensible heat to the melt
        // point going up (the case lags far behind), and the latent
        // heat out through r_pcm_to_case coming down.
        const Celsius melt = params.pcm_melt_temp;
        const Joules latent = params.pcm_mass * params.pcm_latent_per_gram;
        const Joules sensible =
            (melt - params.ambient) *
            (params.c_junction +
             params.pcm_mass * params.pcm_sensible_per_gram);
        const Seconds heat_dt =
            (latent + sensible) / heat_power / rng.uniform(40.0, 200.0);
        const Seconds cool_dt =
            latent * params.r_pcm_to_case / (melt - params.ambient) /
            rng.uniform(40.0, 200.0);

        bool plateau = false, liquid = false, refrozen = false;
        for (int phase = 0; phase < 2; ++phase) {
            const bool heating = phase == 0;
            fast.setDiePower(heating ? heat_power : cool_power);
            oracle.setDiePower(heating ? heat_power : cool_power);
            // Each phase ends 20 steps after it reaches liquid
            // (heating) or solid below the melt point (cooling).
            int settled = 0;
            for (int i = 0; i < 20000 && settled < 20; ++i) {
                // Step lengths from below one substep to many.
                const Seconds dt = (heating ? heat_dt : cool_dt) *
                                   rng.uniform(0.05, 4.0);
                if (!heating && rng.uniform() < 0.5) {
                    const Celsius tol = rng.uniform(1e-3, 0.05);
                    fast.stepQuiescent(dt, tol);
                    oracle.stepQuiescent(dt, tol);
                } else {
                    fast.step(dt);
                    oracle.step(dt);
                }
                ASSERT_TRUE(samePackageBits(fast, oracle))
                    << "phase " << phase << " step " << i;
                const double mf = fast.meltFraction();
                const Celsius t_pcm =
                    fast.network().temperature(fast.pcm());
                plateau = plateau || (mf > 0.0 && mf < 1.0);
                liquid = liquid || mf == 1.0;
                if (heating ? mf == 1.0 && t_pcm > melt
                            : mf == 0.0 && t_pcm < melt)
                    ++settled;
            }
            refrozen = settled == 20 && !heating;
        }
        EXPECT_TRUE(plateau);
        EXPECT_TRUE(liquid);
        EXPECT_TRUE(refrozen);
    }
}

/** Non-preemptive cold-cache train the surrogate tiers admit. */
ScenarioConfig
surrogateTrainScenario(int tasks, std::uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(2, 0.015);
    cfg.platform.machine.l1_bytes = 8 * 1024;
    cfg.platform.machine.l2.size_bytes = 64 * 1024;
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::BackToBack;
    cfg.num_tasks = tasks;
    cfg.seed = seed;
    cfg.program_factory = [](const ScenarioTask &task) {
        return buildMicroProgram(task.seed);
    };
    return cfg;
}

TEST(Differential, SurrogateTierTracksExactWithinTolerance)
{
    // The surrogate tier is tolerance-gated, not bit-exact: the
    // analytically advanced train must stay within the declared
    // envelope of the cycle-accurate run while actually routing the
    // bulk of the tasks through the learned models.
    Rng rng(diffSeed() ^ 0x5e77a9a7ULL);
    ScenarioConfig cfg = surrogateTrainScenario(400, rng.next());
    cfg.keep_task_results = false;
    cfg.trace_mode = TraceMode::Off;
    SCOPED_TRACE(describe(cfg, 0));
    const ScenarioResult exact = runScenario(cfg);

    ScenarioConfig sur = cfg;
    sur.surrogate.tier = FidelityTier::Surrogate;
    sur.surrogate.min_calibration = 8;
    sur.surrogate.profile_samples = 4;
    const ScenarioResult fast = runScenario(sur);

    EXPECT_EQ(fast.tasks_completed, exact.tasks_completed);
    EXPECT_GT(fast.surrogate_tasks, exact.tasks_completed / 2);
    EXPECT_EQ(fast.audit_tasks, 0u);  // pure Surrogate never audits
    EXPECT_NEAR(fast.p50_response, exact.p50_response,
                0.25 * exact.p50_response);
    EXPECT_NEAR(fast.p95_response, exact.p95_response,
                0.25 * exact.p95_response);
    EXPECT_NEAR(fast.total_energy, exact.total_energy,
                0.25 * exact.total_energy);
    EXPECT_NEAR(fast.peak_junction, exact.peak_junction, 2.0);
}

TEST(Differential, AutoTierShardedBitExact)
{
    // Auto-tier routing draws the audit RNG only at calibrated
    // dispatches, so a checkpointed shard chain must replay the whole
    // run bit for bit — including shard cuts inside the calibration
    // window and between audits.
    Rng rng(diffSeed() ^ 0xab17e8a6ULL);
    ScenarioConfig cfg = surrogateTrainScenario(200, rng.next());
    cfg.surrogate.tier = FidelityTier::Auto;
    cfg.surrogate.min_calibration = 16;
    cfg.surrogate.audit_period = 8.0;
    cfg.surrogate.tolerance = 0.9;
    SCOPED_TRACE(describe(cfg, 0));
    const ScenarioResult whole = runScenario(cfg);
    EXPECT_GT(whole.surrogate_tasks, 0u);
    EXPECT_GT(whole.audit_tasks, 0u);
    for (std::uint64_t shard : {1u, 7u, 64u}) {
        SCOPED_TRACE("shard=" + std::to_string(shard));
        EXPECT_EQ(firstDifference(whole, runScenarioSharded(cfg, shard)), "");
    }
}

TEST(Differential, CompletionFoldMatchesTaskRecords)
{
    // Exact and surrogate tasks complete through one fold, so a
    // tier-against-tier pair cannot see a fault in it: both sides
    // carry it. Pair each tier's aggregates with an independent
    // re-fold of its own retained task records instead, and its
    // streaming P² quantiles with estimators fed those records'
    // responses in completion order.
    Rng rng(diffSeed() ^ 0xf01dcafeULL);
    ScenarioConfig cfg = surrogateTrainScenario(200, rng.next());
    cfg.trace_mode = TraceMode::Off;
    cfg.surrogate.min_calibration = 8;
    // Every other task gets the train's median response as its
    // deadline, so both deadline tallies fill.
    const Seconds deadline = runScenario(cfg).p50_response;
    cfg.task_tuner = [deadline](ScenarioTask &task) {
        task.deadline = task.seed % 2 ? deadline : 0.0;
    };
    for (FidelityTier tier :
         {FidelityTier::CycleAccurate, FidelityTier::Surrogate}) {
        cfg.surrogate.tier = tier;
        SCOPED_TRACE(std::string("tier=") + fidelityTierName(tier) + " " +
                     describe(cfg, 0));
        const ScenarioResult r = runScenario(cfg);
        ASSERT_FALSE(r.tasks.empty());
        EXPECT_EQ(r.tasks.size(), r.tasks_completed);
        if (tier == FidelityTier::Surrogate) {
            EXPECT_GT(r.surrogate_tasks, r.tasks_completed / 2);
        }

        Joules energy = 0.0;
        Seconds sprint_time = 0.0;
        Joules sprint_energy = 0.0;
        Celsius peak = r.tasks.front().run.peak_junction;
        int exhausted = 0, throttles = 0, met = 0, missed = 0;
        P2Quantile p50(0.50), p95(0.95);
        for (const ScenarioTaskResult &t : r.tasks) {
            energy += t.run.dynamic_energy;
            sprint_time += t.run.sprint_duration;
            sprint_energy += t.run.sprint_energy;
            peak = std::max(peak, t.run.peak_junction);
            exhausted += t.sprint_granted && t.run.sprint_exhausted;
            throttles += t.run.hardware_throttled;
            EXPECT_EQ(t.response, t.finish - t.arrival);
            EXPECT_EQ(t.deadline_met, t.deadline <= 0.0 ||
                                          t.finish <= t.arrival + t.deadline);
            if (t.deadline > 0.0)
                ++(t.deadline_met ? met : missed);
            p50.add(t.response);
            p95.add(t.response);
        }
        EXPECT_EQ(r.total_energy, energy);
        EXPECT_EQ(r.total_sprint_time, sprint_time);
        EXPECT_EQ(r.total_sprint_energy, sprint_energy);
        EXPECT_EQ(r.peak_junction, peak);
        EXPECT_EQ(r.sprints_exhausted, exhausted);
        EXPECT_EQ(r.hardware_throttles, throttles);
        EXPECT_EQ(r.deadlines_met, met);
        EXPECT_EQ(r.deadlines_missed, missed);
        EXPECT_GT(met, 0);
        EXPECT_GT(missed, 0);

        ScenarioConfig streaming = cfg;
        streaming.keep_task_results = false;
        const ScenarioResult lean = runScenario(streaming);
        EXPECT_EQ(lean.p50_response, p50.value());
        EXPECT_EQ(lean.p95_response, p95.value());
    }
}

TEST(Differential, AuditDemotionDeterminism)
{
    // A bimodal task class the single-mode surrogate cannot price:
    // a tight audit tolerance must demote it, and the demotion point
    // must be identical run to run and across a shard chain.
    Rng rng(diffSeed() ^ 0xde30770aULL);
    ScenarioConfig cfg = surrogateTrainScenario(160, rng.next());
    cfg.program_factory = [](const ScenarioTask &task) {
        // 1-in-8 tasks are ~16x heavier than the rest.
        Rng mode(task.seed ^ 0xb1030da1ULL);
        const int num_ops = mode.uniform() < 0.125 ? 8192 : 512;
        return buildMicroProgram(task.seed, num_ops);
    };
    cfg.surrogate.tier = FidelityTier::Auto;
    cfg.surrogate.min_calibration = 6;
    cfg.surrogate.audit_period = 4.0;
    cfg.surrogate.tolerance = 0.05;
    SCOPED_TRACE(describe(cfg, 0));
    const ScenarioResult first = runScenario(cfg);
    EXPECT_GT(first.surrogate_demotions, 0);
    EXPECT_EQ(firstDifference(first, runScenario(cfg)), "");
    EXPECT_EQ(firstDifference(first, runScenarioSharded(cfg, 13)), "");
}

/**
 * A long micro-program train whose tasks differ in length, so a pick
 * that swaps two tied entries moves the timeline.
 */
ScenarioConfig
compactionTrainScenario(std::uint64_t seed)
{
    ScenarioConfig cfg = surrogateTrainScenario(2000, seed);
    cfg.program_factory = [](const ScenarioTask &task) {
        return buildMicroProgram(
            task.seed, 512 + 256 * static_cast<int>(task.seed % 5));
    };
    return cfg;
}

/**
 * Ready-queue compaction parity for one long micro-program train: the
 * declared dispatch order against the generic pickNext scan, and
 * shard chains whose checkpoint cuts land after compactions.
 */
void
expectCompactionParity(const ScenarioConfig &cfg)
{
    const ScenarioResult declared = runScenario(cfg);
    ASSERT_EQ(declared.tasks_completed,
              static_cast<std::uint64_t>(cfg.num_tasks));
    ScenarioConfig generic = cfg;
    generic.debug.generic_dispatch = true;
    {
        SCOPED_TRACE("generic dispatch");
        EXPECT_EQ(firstDifference(declared, runScenario(generic)), "");
    }
    for (std::uint64_t shard : {7u, 97u}) {
        SCOPED_TRACE("shard=" + std::to_string(shard));
        EXPECT_EQ(firstDifference(declared,
                                  runScenarioSharded(cfg, shard)),
                  "");
    }
}

TEST(Differential, QueueCompactionUrgencyBacklog)
{
    // A preemptive Qos train arriving faster than it is served keeps
    // a standing, reordered backlog: urgency picks leave holes
    // mid-queue, so the generic scan's slots compact around live
    // entries many times over the train. The Poisson train has
    // distinct arrivals; the bursty one delivers simultaneous
    // arrivals whose picks fall to the insertion-order tie-break.
    Rng rng(diffSeed() ^ 0xc0a1e5ceULL);
    for (ArrivalPattern pattern :
         {ArrivalPattern::Poisson, ArrivalPattern::Bursty}) {
        ScenarioConfig cfg = compactionTrainScenario(rng.next());
        cfg.policy.kind = SprintPolicyKind::Qos;
        cfg.pattern = pattern;
        cfg.period = rng.uniform(1.2e-6, 1.6e-6);
        cfg.burst_size = 6;
        cfg.burst_spacing = 0.0;
        if (pattern == ArrivalPattern::Bursty)
            cfg.period *= cfg.burst_size;
        cfg.hi_priority_fraction = 0.5;
        cfg.deadline_hi = rng.uniform(5e-6, 2e-5);
        cfg.deadline_lo = rng.uniform() < 0.5 ? 0.0 : 2e-4;
        SCOPED_TRACE(describe(cfg, 0));
        expectCompactionParity(cfg);
    }
}

TEST(Differential, QueueCompactionFifoTrain)
{
    // The saturating one-in, one-out Fifo train: every dispatch
    // empties the queue, so dispatched slots compact every 64 tasks.
    Rng rng(diffSeed() ^ 0xf1f0c0deULL);
    ScenarioConfig cfg = compactionTrainScenario(rng.next());
    cfg.warm_caches = rng.uniform() < 0.5;
    SCOPED_TRACE(describe(cfg, 0));
    expectCompactionParity(cfg);
}

/** Draw one random fleet population for the transport differential. */
FleetSpec
randomFleetSpec(Rng &rng)
{
    FleetSpec spec;
    spec.seed = rng.next();
    spec.num_devices = 4 + static_cast<int>(rng.uniformInt(3));
    for (int c = 0; c < 2; ++c) {
        FleetDeviceClass cls;
        cls.weight = rng.uniform(0.5, 2.0);
        cls.cores = c == 0 ? 4 : 8;
        cls.pcm_mass_lo = kSmallPcm;
        cls.pcm_mass_hi = kSmallPcm * rng.uniform(1.0, 3.0);
        cls.ambient_lo = 22.0;
        cls.ambient_hi = rng.uniform(25.0, 32.0);
        cls.policy = rng.uniform() < 0.5
                         ? SprintPolicyKind::GreedyActivity
                         : SprintPolicyKind::DutyCycle;
        cls.pacing_period = 2.5e-3;
        cls.num_tasks = 3 + static_cast<int>(rng.uniformInt(2));
        cls.period = rng.uniform(1e-3, 3e-3);
        cls.hi_priority_fraction = rng.uniform() < 0.5 ? 0.5 : 0.0;
        cls.deadline_hi = rng.uniform(5e-4, 2e-3);
        if (rng.uniform() < 0.5)
            cls.mix = {{KernelId::Sobel, InputSize::A, 2.0},
                       {KernelId::Kmeans, InputSize::A, 1.0}};
        spec.classes.push_back(cls);
    }
    return spec;
}

TEST(Differential, FleetMultiProcessMatchesInProcess)
{
    // The process transport against the in-process transport on a
    // seed-rotated random fleet: bit-exact on the merged response
    // quantile state, melt cycles, deadline counters, and every
    // per-device checkpoint digest.
    Rng rng(diffSeed() ^ 0xf1ee7d1fULL);
    for (int i = 0; i < 2; ++i) {
        const FleetSpec spec = randomFleetSpec(rng);
        SCOPED_TRACE("fleet " + std::to_string(i) + ": devices=" +
                     std::to_string(spec.num_devices) + " seed=" +
                     std::to_string(spec.seed));

        FleetOptions ip_opts;
        ip_opts.num_workers = 2;
        ip_opts.checkpoint_every_tasks = 2;
        ip_opts.store_dir = freshDir("dfip");
        FleetOptions mp_opts = ip_opts;
        mp_opts.store_dir = freshDir("dfmp");

        const FleetResult ip = runFleetInProcess(spec, ip_opts);
        const FleetResult mp = runFleetMultiProcess(spec, mp_opts);
        ASSERT_TRUE(ip.allOk());
        ASSERT_TRUE(mp.allOk());

        EXPECT_EQ(firstDifference(ip.aggregates, mp.aggregates), "");

        ASSERT_EQ(ip.devices.size(), mp.devices.size());
        for (std::size_t d = 0; d < ip.devices.size(); ++d) {
            EXPECT_EQ(ip.devices[d].checkpoint_digest,
                      mp.devices[d].checkpoint_digest)
                << "device " << d;
        }
    }
}

} // namespace
} // namespace csprint
