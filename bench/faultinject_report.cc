/**
 * @file
 * Machine-readable report for the crash-safety subsystem, written to
 * BENCH_faultinject.json (schema documented in PERF.md, "Crash safety
 * & fault injection").
 *
 * Gates the tool enforces itself (non-zero exit on failure):
 *
 *  1. recovery_parity — for every thread-transport FaultKind, a
 *     supervised shard that crashes / corrupts its newest checkpoint /
 *     throws and is recovered from persisted state must finish
 *     bit-identical to the uninterrupted run: every aggregate, every
 *     trace sample.
 *
 *  2. randomized_batch_parity — a CSPRINT_DIFF_SEED-derived fault
 *     plan over a multi-shard batch (the seed rotates in CI, so every
 *     run exercises a different fault/checkpoint mix) recovers every
 *     shard bit-exactly.
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
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

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

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks", "seed"});
    Report report(args.get("out", "BENCH_faultinject.json"),
                  "csprint-faultinject-bench-v1");
    JsonWriter &json = report.json();
    const int tasks = static_cast<int>(args.getDouble("tasks", 8));
    const std::uint64_t seed = diffSeed(args, 1u);
    json.field("diff_seed", seed).field("tasks_per_shard", tasks);

    // --- Gate 1: per-fault-kind recovery parity. -------------------
    const ScenarioConfig parity_cfg = shardScenario(seed, tasks);
    const ScenarioResult direct = runScenario(parity_cfg);
    json.array("recovery_parity", [&] {
        for (FaultKind kind :
             {FaultKind::CrashAtCheckpoint, FaultKind::BitFlip,
              FaultKind::Truncate, FaultKind::WorkerException}) {
            const char *name = faultKindName(kind);
            SupervisorOptions opts;
            opts.store_dir = freshDir(name);
            opts.checkpoint_every_tasks = 2;
            opts.max_retries = 2;
            opts.paranoia = true;
            FaultPlan plan;
            plan.faults.push_back({0, kind, 2});
            const SupervisedBatchResult batch =
                runSupervisedScenarioBatch({parity_cfg}, opts, plan);
            const ShardOutcome &shard = batch.shards[0];
            const std::string why =
                shard.degraded      ? "shard degraded"
                : shard.retries < 1 ? "fault never fired"
                                    : firstDifference(direct, shard.result);
            json.object([&] {
                json.field("fault", name);
                report.flag("exact",
                            std::string("recovery parity [") + name + "]",
                            why.empty(), why);
                json.field("retries", shard.retries)
                    .field("recoveries", shard.recoveries);
            });
        }
    });

    // --- Gate 2: seed-randomized multi-shard plan. -----------------
    std::vector<ScenarioConfig> shards;
    for (std::uint64_t s = 0; s < 3; ++s)
        shards.push_back(shardScenario(seed * 977 + s, tasks));
    SupervisorOptions batch_opts;
    batch_opts.store_dir = freshDir("batch");
    batch_opts.checkpoint_every_tasks = 2;
    batch_opts.max_retries = 3;
    const FaultPlan batch_plan = FaultPlan::randomized(
        seed, static_cast<int>(shards.size()), tasks / 2);
    const SupervisedBatchResult batch =
        runSupervisedScenarioBatch(shards, batch_opts, batch_plan);
    std::string batch_why = batch.allOk() ? "" : "degraded shard";
    for (std::size_t i = 0; batch_why.empty() && i < shards.size(); ++i) {
        const std::string why =
            firstDifference(runScenario(shards[i]), batch.shards[i].result);
        if (!why.empty())
            batch_why = "shard " + std::to_string(i) + ": " + why;
    }
    json.object("randomized_batch_parity", [&] {
        json.field("shards", shards.size());
        report.flag("exact",
                    "randomized batch parity (seed " +
                        std::to_string(seed) + ")",
                    batch_why.empty(), batch_why);
    });

    // --- Gate 3: corruption rejection. -----------------------------
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
