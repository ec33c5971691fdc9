/**
 * @file
 * Machine-readable report for the crash-safety subsystem, written to
 * BENCH_faultinject.json (schema documented in PERF.md, "Crash safety
 * & fault injection").
 *
 * Gates the tool enforces itself (non-zero exit on failure):
 *
 *  1. recovery_parity — for every FaultKind, a supervised shard that
 *     crashes / corrupts its newest checkpoint / throws / stalls and
 *     is recovered from persisted state must finish bit-identical to
 *     the uninterrupted run: every aggregate, every trace sample.
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

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
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

std::string
freshDir(const char *tag)
{
    std::string tmpl = std::string("/tmp/csprint-bench-") + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    return std::string(dir ? dir : "/tmp");
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks", "seed"});
    const std::string out_path =
        args.get("out", "BENCH_faultinject.json");
    const int tasks = static_cast<int>(args.getDouble("tasks", 8));

    // The rotating differential seed: CLI flag beats the env, the
    // env beats the fixed default. Logged so a CI failure can be
    // replayed locally with --seed.
    const std::uint64_t seed = static_cast<std::uint64_t>(args.getInt(
        "seed",
        static_cast<long long>(envSeed("CSPRINT_DIFF_SEED", 1u))));
    std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED=" << seed << "\n";

    bool all_ok = true;

    // --- Gate 1: per-fault-kind recovery parity. -------------------
    const FaultKind kinds[] = {
        FaultKind::CrashAtCheckpoint, FaultKind::BitFlip,
        FaultKind::Truncate, FaultKind::WorkerException,
        FaultKind::Stall};
    struct KindRow
    {
        const char *name;
        bool exact = false;
        int retries = 0;
        std::uint64_t recoveries = 0;
        std::string why;
    };
    std::vector<KindRow> kind_rows;
    const ScenarioConfig parity_cfg = shardScenario(seed, tasks);
    const ScenarioResult direct = runScenario(parity_cfg);
    for (FaultKind kind : kinds) {
        KindRow row;
        row.name = faultKindName(kind);
        SupervisorOptions opts;
        opts.store_dir = freshDir(row.name);
        opts.checkpoint_every_tasks = 2;
        opts.max_retries = 2;
        opts.paranoia = true;
        if (kind == FaultKind::Stall)
            opts.watchdog_deadline = 0.2;
        FaultPlan plan;
        plan.faults.push_back({0, kind, 2});
        const SupervisedBatchResult batch =
            runSupervisedScenarioBatch({parity_cfg}, opts, plan);
        const ShardOutcome &shard = batch.shards[0];
        row.retries = shard.retries;
        row.recoveries = shard.recoveries;
        if (shard.degraded)
            row.why = "shard degraded";
        else if (shard.retries < 1)
            row.why = "fault never fired";
        else
            row.why = firstDifference(direct, shard.result);
        row.exact = row.why.empty();
        std::cout << "recovery parity [" << row.name << "]: "
                  << (row.exact ? "exact" : "MISMATCH");
        if (!row.exact)
            std::cout << " (" << row.why << ")";
        std::cout << "\n";
        all_ok = all_ok && row.exact;
        kind_rows.push_back(std::move(row));
    }

    // --- Gate 2: seed-randomized multi-shard plan. -----------------
    std::vector<ScenarioConfig> shards;
    for (std::uint64_t s = 0; s < 3; ++s)
        shards.push_back(shardScenario(seed * 977 + s, tasks));
    SupervisorOptions batch_opts;
    batch_opts.store_dir = freshDir("batch");
    batch_opts.checkpoint_every_tasks = 2;
    batch_opts.max_retries = 3;
    batch_opts.watchdog_deadline = 0.2;
    const FaultPlan batch_plan = FaultPlan::randomized(
        seed, static_cast<int>(shards.size()), tasks / 2);
    const SupervisedBatchResult batch =
        runSupervisedScenarioBatch(shards, batch_opts, batch_plan);
    bool batch_ok = batch.allOk();
    std::string batch_why = batch_ok ? "" : "degraded shard";
    for (std::size_t i = 0; batch_ok && i < shards.size(); ++i) {
        const std::string why =
            firstDifference(runScenario(shards[i]), batch.shards[i].result);
        batch_ok = why.empty();
        if (!batch_ok)
            batch_why = "shard " + std::to_string(i) + ": " + why;
    }
    std::cout << "randomized batch parity (seed " << seed
              << "): " << (batch_ok ? "exact" : "MISMATCH");
    if (!batch_ok)
        std::cout << " (" << batch_why << ")";
    std::cout << "\n";
    all_ok = all_ok && batch_ok;

    // --- Gate 3: corruption rejection. -----------------------------
    ScenarioCheckpoint probe = beginScenario(parity_cfg);
    advanceScenario(parity_cfg, probe, 2);
    const std::vector<std::uint8_t> blob =
        serializeCheckpoint(parity_cfg, probe);
    // Each probe copies and CRCs the whole blob, so cap the sample
    // count (the exhaustive every-prefix sweep lives in
    // tests/checkpoint_test.cc on a small blob).
    std::uint64_t rejected = 0, attempted = 0, accepted = 0;
    for (std::size_t len = 0; len < blob.size();
         len += 1 + blob.size() / 256) {
        std::vector<std::uint8_t> prefix(blob.begin(),
                                         blob.begin() + len);
        ++attempted;
        try {
            deserializeCheckpoint(parity_cfg, prefix);
            ++accepted;
        } catch (const CheckpointError &) {
            ++rejected;
        }
    }
    const std::size_t bit_stride =
        1 + blob.size() * 8 / 256; // ~256 sampled bits
    for (std::size_t bit = seed % 13; bit < blob.size() * 8;
         bit += bit_stride) {
        std::vector<std::uint8_t> bad = blob;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ++attempted;
        try {
            deserializeCheckpoint(parity_cfg, bad);
            ++accepted;
        } catch (const CheckpointError &) {
            ++rejected;
        }
    }
    const bool reject_ok = accepted == 0 && attempted > 0;
    std::cout << "corruption rejection: " << rejected << "/"
              << attempted << " rejected cleanly"
              << (reject_ok ? "" : " — CORRUPT INPUT ACCEPTED")
              << "\n";
    all_ok = all_ok && reject_ok;

    // --- Perf: blob size + round-trip throughput. ------------------
    const int reps = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        serializeCheckpoint(parity_cfg, probe);
    const double ser_s = secondsSince(t0) / reps;
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        deserializeCheckpoint(parity_cfg, blob);
    const double deser_s = secondsSince(t1) / reps;
    const double mb = static_cast<double>(blob.size()) / 1e6;
    std::cout << "checkpoint blob: " << blob.size() << " bytes; "
              << "serialize " << mb / ser_s << " MB/s, deserialize "
              << mb / deser_s << " MB/s\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"csprint-faultinject-bench-v1\",\n"
        << "  \"diff_seed\": " << seed << ",\n"
        << "  \"tasks_per_shard\": " << tasks << ",\n"
        << "  \"recovery_parity\": [\n";
    for (std::size_t i = 0; i < kind_rows.size(); ++i) {
        const KindRow &row = kind_rows[i];
        out << "    {\"fault\": \"" << row.name
            << "\", \"exact\": " << (row.exact ? "true" : "false")
            << ", \"retries\": " << row.retries
            << ", \"recoveries\": " << row.recoveries << "}"
            << (i + 1 < kind_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"randomized_batch_parity\": {\"shards\": "
        << shards.size()
        << ", \"exact\": " << (batch_ok ? "true" : "false") << "},\n"
        << "  \"corruption_rejection\": {\"attempted\": " << attempted
        << ", \"rejected\": " << rejected
        << ", \"accepted\": " << accepted << "},\n"
        << "  \"checkpoint_perf\": {\"blob_bytes\": " << blob.size()
        << ", \"serialize_mb_per_s\": " << mb / ser_s
        << ", \"deserialize_mb_per_s\": " << mb / deser_s << "},\n"
        << "  \"all_gates_pass\": " << (all_ok ? "true" : "false")
        << "\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";
    return all_ok ? 0 : 1;
}
