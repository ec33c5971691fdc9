/**
 * @file
 * Machine-readable report for the crash-safety subsystem, written to
 * BENCH_faultinject.json (schema documented in PERF.md, "Crash safety
 * & fault injection").
 *
 * Gates the tool enforces itself (non-zero exit on failure):
 *
 *  1. recovery_parity — for every FaultKind, a fleet run whose worker
 *     crashes / corrupts its newest checkpoint / fails / is killed /
 *     stalls / corrupts its pipe, and is respawned from persisted
 *     state, must finish bit-identical to the unfaulted in-process
 *     run: every aggregate, every device's final checkpoint digest.
 *
 *  2. randomized_batch_parity — a CSPRINT_DIFF_SEED-derived fault
 *     plan over a multi-device fleet (the seed rotates in CI, so every
 *     run exercises a different fault/checkpoint mix) recovers every
 *     device bit-exactly.
 *
 *  3. corruption_rejection — sampled truncation prefixes and bit
 *     flips of a serialized checkpoint must all fail with a typed
 *     CheckpointError (no crash, no garbage checkpoint accepted).
 *
 * Plus perf numbers: checkpoint blob size and serialize/deserialize
 * round-trip throughput.
 *
 *   ./faultinject_report [--out BENCH_faultinject.json] [--tasks N]
 *                        [--seed S]
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "report.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/**
 * The 16-core Sobel-A periodic train the corruption and perf probes
 * decode; shardFleet's devices run the same train.
 */
ScenarioConfig
shardScenario(std::uint64_t seed, int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.policy.pacing_period = 2.5e-3;
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = tasks;
    cfg.period = 2.5e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    cfg.seed = seed;
    cfg.warm_caches = true;
    return cfg;
}

/** A one-class fleet of 16-core Sobel-A devices on a periodic train. */
FleetSpec
shardFleet(std::uint64_t seed, int devices, int tasks)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = devices;
    FleetDeviceClass cls;
    cls.cores = 16;
    cls.pcm_mass_lo = cls.pcm_mass_hi = kSmallPcm;
    cls.policy = SprintPolicyKind::GreedyActivity;
    cls.pacing_period = 2.5e-3;
    cls.pattern = ArrivalPattern::Periodic;
    cls.num_tasks = tasks;
    cls.period = 2.5e-3;
    cls.kernel = KernelId::Sobel;
    cls.size = InputSize::A;
    cls.warm_caches = true;
    spec.classes.push_back(cls);
    return spec;
}

/**
 * Watchdog deadline of the runs that may inject a stall, in seconds:
 * a worker beats around every slice, and a slice of this train takes
 * milliseconds.
 */
constexpr double kStallDeadline = 0.5;

FleetOptions
faultOptions(const char *tag, int workers, int max_retries)
{
    FleetOptions opts;
    opts.num_workers = workers;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = max_retries;
    opts.store_dir = freshDir(tag);
    return opts;
}

/**
 * Why @p faulted is not a bit-exact recovery of @p clean ("" when it
 * is): a degraded range, no respawn (the plan never fired), or the
 * first differing field. Its respawns land in @p respawns.
 */
std::string
recoveryMismatch(const FleetResult &clean, const FleetResult &faulted,
                 int &respawns)
{
    respawns = 0;
    for (const FleetWorkerStats &w : faulted.workers)
        respawns += w.respawns;
    if (!clean.allOk())
        return "clean run degraded";
    if (!faulted.allOk())
        return "range degraded";
    if (respawns < 1)
        return "fault never fired";
    return firstDifference(clean, faulted);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks", "seed"});
    Report report(args.get("out", "BENCH_faultinject.json"),
                  "csprint-faultinject-bench-v2");
    JsonWriter &json = report.json();
    const int tasks = static_cast<int>(args.getDouble("tasks", 8));
    const std::uint64_t seed = diffSeed(args, 1u);
    json.field("diff_seed", seed).field("tasks_per_shard", tasks);

    // --- Gate 1: per-fault-kind recovery parity. -------------------
    const FleetSpec one = shardFleet(seed, 1, tasks);
    const FleetResult direct =
        runFleetInProcess(one, faultOptions("direct", 1, 0));
    json.array("recovery_parity", [&] {
        for (int k = 0; k <= static_cast<int>(FaultKind::CorruptPipe);
             ++k) {
            const FaultKind kind = static_cast<FaultKind>(k);
            const char *name = faultKindName(kind);
            FleetOptions opts = faultOptions(name, 1, 2);
            opts.paranoia = true;
            if (kind == FaultKind::StallWorker)
                opts.watchdog_deadline = kStallDeadline;
            FaultPlan plan;
            plan.faults.push_back({0, kind, 2});
            int respawns = 0;
            const std::string why = recoveryMismatch(
                direct, runFleetMultiProcess(one, opts, plan), respawns);
            json.object([&] {
                json.field("fault", name);
                report.parity(
                    std::string("recovery parity [") + name + "]", why);
                json.field("respawns", respawns);
            });
        }
    });

    // --- Gate 2: seed-randomized multi-device plan. ----------------
    const FleetSpec three = shardFleet(seed * 977, 3, tasks);
    const FaultPlan batch_plan =
        FaultPlan::randomized(seed, three.num_devices, tasks / 2);
    FleetOptions batch_opts = faultOptions("batch", 3, 3);
    batch_opts.watchdog_deadline = kStallDeadline;
    int batch_respawns = 0;
    const std::string batch_why = recoveryMismatch(
        runFleetInProcess(three, faultOptions("batch-direct", 3, 0)),
        runFleetMultiProcess(three, batch_opts, batch_plan),
        batch_respawns);
    json.object("randomized_batch_parity", [&] {
        json.field("devices", three.num_devices);
        report.parity("randomized batch parity (seed " +
                          std::to_string(seed) + ")",
                      batch_why);
        json.field("respawns", batch_respawns);
    });

    // --- Gate 3: corruption rejection. -----------------------------
    const ScenarioConfig parity_cfg = shardScenario(seed, tasks);
    ScenarioCheckpoint probe = beginScenario(parity_cfg);
    advanceScenario(parity_cfg, probe, 2);
    const std::vector<std::uint8_t> blob =
        serializeCheckpoint(parity_cfg, probe);
    // Each probe copies and CRCs the whole blob, so cap the sample
    // count (the exhaustive every-prefix sweep lives in
    // tests/checkpoint_test.cc on a small blob).
    std::uint64_t rejected = 0, attempted = 0, accepted = 0;
    const auto tryDecode = [&](const std::vector<std::uint8_t> &bad) {
        ++attempted;
        try {
            deserializeCheckpoint(parity_cfg, bad);
            ++accepted;
        } catch (const CheckpointError &) {
            ++rejected;
        }
    };
    for (std::size_t len = 0; len < blob.size();
         len += 1 + blob.size() / 256)
        tryDecode({blob.begin(), blob.begin() + len});
    const std::size_t bit_stride =
        1 + blob.size() * 8 / 256; // ~256 sampled bits
    for (std::size_t bit = seed % 13; bit < blob.size() * 8;
         bit += bit_stride) {
        std::vector<std::uint8_t> bad = blob;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        tryDecode(bad);
    }
    std::cout << "corruption rejection: " << rejected << "/" << attempted
              << " rejected cleanly\n";
    json.object("corruption_rejection", [&] {
        json.field("attempted", attempted)
            .field("rejected", rejected)
            .field("accepted", accepted);
    });
    report.check("corruption rejection", accepted == 0 && attempted > 0,
                 "corrupt input accepted");

    // --- Perf: blob size + round-trip throughput. ------------------
    const int reps = 50;
    Stopwatch sw;
    for (int i = 0; i < reps; ++i)
        serializeCheckpoint(parity_cfg, probe);
    const double ser_s = sw.lap() / reps;
    for (int i = 0; i < reps; ++i)
        deserializeCheckpoint(parity_cfg, blob);
    const double deser_s = sw.lap() / reps;
    const double mb = static_cast<double>(blob.size()) / 1e6;
    std::cout << "checkpoint blob: " << blob.size() << " bytes; "
              << "serialize " << mb / ser_s << " MB/s, deserialize "
              << mb / deser_s << " MB/s\n";
    json.object("checkpoint_perf", [&] {
        json.field("blob_bytes", blob.size())
            .field("serialize_mb_per_s", mb / ser_s)
            .field("deserialize_mb_per_s", mb / deser_s);
    });
    json.field("all_gates_pass", report.allPass());
    return report.finish();
}
