/**
 * @file
 * Machine-readable report for the long-horizon scenario fast path,
 * written to BENCH_scale.json (schema documented in PERF.md,
 * "Long-horizon scenarios").
 *
 * Four sections, every one an acceptance gate the tool enforces
 * itself (non-zero exit on failure):
 *
 *  1. sparse_idle — a gap-dominated periodic timeline (long rests
 *     between sprints, the paper's Section 3 regime) must run >= 10x
 *     faster with the fast path (quiescent idle stepping + decimated
 *     traces + streaming aggregates) than with the exact reference
 *     engine.
 *
 *  2. idle_deviation — a full melt -> refreeze -> ambient cooldown
 *     integrated by the quiescent super-stepper must stay within
 *     0.05 °C of the reference (Heun step()) idle path at every
 *     sampled point.
 *
 *  3. million_task — a 1,000,000-task back-to-back scenario (micro
 *     per-task programs via the program factory, small machine
 *     template) must complete in bounded memory: traces within the
 *     configured capacity, no per-task results retained, streaming
 *     quantiles for the response distribution, and peak RSS (VmHWM)
 *     growing by at most 1 MB over the run.
 *
 *  4. shard_parity — replaying a timeline as a chain of checkpointed
 *     shards (runScenarioSharded) must reproduce the unsharded run
 *     bit-for-bit: every aggregate, every per-task machine stat,
 *     every trace sample — in the exact engine and in the fast path,
 *     including a warm-cache chain across shard boundaries.
 *
 *   ./scenario_scale_report [--out BENCH_scale.json]
 *       [--sparse-tasks N] [--million-tasks N]
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "archsim/opstream.hh"
#include "common/args.hh"
#include "peak_rss.hh"
#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "thermal/validation.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Gate 3's bound on the million-task run's peak-RSS growth. */
constexpr double kRssGrowthBoundMb = 1.0;

/** The gap-dominated periodic timeline of gate 1. */
ScenarioConfig
sparseIdleConfig(int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, 0.015);
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = tasks;
    cfg.period = 1.0;  // rest >> sprint: >90% of wall time is idle
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    return cfg;
}

/** Tiny per-task program for the million-task gate: ~2k ops. */
ParallelProgram
microProgram(const ScenarioTask &task)
{
    ParallelProgram prog("micro");
    Phase phase;
    phase.name = "work";
    phase.kind = PhaseKind::ParallelStatic;
    phase.num_tasks = 2;
    const std::uint64_t seed = task.seed;
    phase.make_task = [seed](std::size_t t) {
        std::vector<MicroOp> ops;
        ops.reserve(1024);
        const std::uint64_t base =
            0x10000000ULL + (seed % 64) * 4096 + t * 8192;
        for (int i = 0; i < 1024; ++i) {
            if (i % 4 == 0)
                ops.push_back(MicroOp::load(base + (i % 32) * 64));
            else
                ops.push_back(MicroOp::intAlu());
        }
        return std::make_unique<VectorOpStream>(std::move(ops));
    };
    prog.addPhase(std::move(phase));
    return prog;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv,
                   {"out", "sparse-tasks", "million-tasks"});
    const std::string out_path = args.get("out", "BENCH_scale.json");
    const int sparse_tasks =
        static_cast<int>(args.getDouble("sparse-tasks", 8));
    const int million_tasks =
        static_cast<int>(args.getDouble("million-tasks", 1000000));

    // --- Gate 1: sparse-idle timeline speedup >= 10x. ---------------
    const ScenarioConfig ref_cfg = sparseIdleConfig(sparse_tasks);
    ScenarioConfig fast_cfg = ref_cfg;
    fast_cfg.idle_model = IdleModel::Quiescent;
    fast_cfg.trace_mode = TraceMode::DecimatedRing;
    fast_cfg.trace_capacity = 4096;
    fast_cfg.keep_task_results = false;

    const auto t0 = Clock::now();
    const ScenarioResult ref = runScenario(ref_cfg);
    const auto t1 = Clock::now();
    const ScenarioResult fast = runScenario(fast_cfg);
    const auto t2 = Clock::now();
    const double ref_ms = elapsedMs(t0, t1);
    const double fast_ms = elapsedMs(t1, t2);
    const double speedup = ref_ms / fast_ms;
    const bool sparse_ok = speedup >= 10.0;
    std::cout << "sparse idle (" << sparse_tasks << " tasks, period "
              << ref_cfg.period << "): reference " << ref_ms
              << " ms, fast " << fast_ms << " ms, speedup " << speedup
              << "x" << (sparse_ok ? "" : "  FAIL (< 10x)") << "\n";

    // --- Gate 2: quiescent idle-path deviation <= 0.05 C. -----------
    const QuiescentCooldownSpec cooldown;
    const QuiescentCooldownParity parity = runQuiescentCooldownParity(
        SprintConfig::scaledPackage(0.15, 7e-4), cooldown);
    const double dev_budget = 0.05;
    const bool dev_ok = parity.max_temp_dev <= dev_budget;
    std::cout << "idle-path deviation (melt->refreeze cooldown, "
              << cooldown.samples << " samples): "
              << parity.max_temp_dev << " C"
              << (dev_ok ? "" : "  FAIL (> 0.05 C)") << "\n";

    // --- Gate 3: million-task bounded-memory run. -------------------
    ScenarioConfig mcfg;
    mcfg.platform = SprintConfig::parallelSprint(2, 0.015);
    mcfg.platform.machine.l1_bytes = 8 * 1024;
    mcfg.platform.machine.l2.size_bytes = 64 * 1024;
    mcfg.policy.kind = SprintPolicyKind::GreedyActivity;
    mcfg.pattern = ArrivalPattern::BackToBack;
    mcfg.num_tasks = million_tasks;
    mcfg.program_factory = microProgram;
    mcfg.trace_mode = TraceMode::DecimatedRing;
    mcfg.trace_capacity = 4096;
    mcfg.keep_task_results = false;
    mcfg.idle_model = IdleModel::Quiescent;

    // VmHWM is a process-wide high-water mark, so record the baseline
    // set by the earlier gates too: the million-task run is bounded
    // iff the *growth* over that baseline stays small (a missing
    // /proc reads negative and fails the gate).
    // Setup (validation, cursor seeding, the first package build) is
    // timed apart from the steady-state task loop so tasks/s measures
    // the per-task engine cost, not one-time construction.
    const double rss_before_mb = peakRssKb() / 1024.0;
    const auto m0 = Clock::now();
    ScenarioCheckpoint mck = beginScenario(mcfg);
    const auto m1 = Clock::now();
    while (!advanceScenario(
        mcfg, mck, static_cast<std::uint64_t>(mcfg.num_tasks))) {
    }
    const auto m2 = Clock::now();
    const ScenarioResult million = finishScenario(mcfg, std::move(mck));
    const auto m3 = Clock::now();
    const double setup_ms = elapsedMs(m0, m1);
    const double steady_s = elapsedMs(m1, m2) / 1000.0;
    const double million_s = elapsedMs(m0, m3) / 1000.0;
    const double tasks_per_sec =
        static_cast<double>(million.tasks_completed) / steady_s;
    const double rss_mb = peakRssKb() / 1024.0;
    const double rss_growth_mb = rss_mb - rss_before_mb;
    const bool million_ok =
        million.tasks_completed ==
            static_cast<std::uint64_t>(million_tasks) &&
        million.tasks.empty() && rss_before_mb > 0.0 &&
        rss_growth_mb <= kRssGrowthBoundMb &&
        million.junction_trace.size() <= mcfg.trace_capacity &&
        million.power_trace.size() <= mcfg.trace_capacity &&
        million.melt_trace.size() <= mcfg.trace_capacity;
    std::cout << "million-task run: " << million.tasks_completed
              << " tasks in " << million_s << " s (setup " << setup_ms
              << " ms, steady " << steady_s << " s, " << tasks_per_sec
              << " tasks/s), traces "
              << million.junction_trace.size() << " samples, peak RSS "
              << rss_mb << " MB (+" << rss_growth_mb << " MB)"
              << (million_ok ? "" : "  FAIL (unbounded)") << "\n";

    // --- Gate 4: sharded replay == unsharded, bit for bit. ----------
    ScenarioConfig pcfg;
    pcfg.platform = SprintConfig::parallelSprint(16, 0.015);
    pcfg.policy.kind = SprintPolicyKind::GreedyActivity;
    pcfg.pattern = ArrivalPattern::Bursty;
    pcfg.num_tasks = 6;
    pcfg.burst_size = 2;
    pcfg.period = 3e-3;
    pcfg.kernel = KernelId::Sobel;
    pcfg.size = InputSize::A;
    pcfg.warm_caches = true;  // the chain must survive shard handoff
    pcfg.tail_rest = 3e-3;

    bool parity_ok = true;
    std::string parity_why;
    {
        const ScenarioResult unsharded = runScenario(pcfg);
        for (std::uint64_t shard : {1, 2, 4}) {
            const ScenarioResult sharded =
                runScenarioSharded(pcfg, shard);
            const std::string why = firstDifference(unsharded, sharded);
            if (!why.empty()) {
                parity_ok = false;
                parity_why = "exact engine, shard " +
                             std::to_string(shard) + ": " + why;
                std::cerr << "shard parity MISMATCH (" << parity_why
                          << ")\n";
            }
        }
    }
    {
        ScenarioConfig fq = pcfg;
        fq.warm_caches = false;
        fq.idle_model = IdleModel::Quiescent;
        fq.trace_mode = TraceMode::DecimatedRing;
        fq.trace_capacity = 512;
        const ScenarioResult unsharded = runScenario(fq);
        const ScenarioResult sharded = runScenarioSharded(fq, 2);
        const std::string why = firstDifference(unsharded, sharded);
        if (!why.empty()) {
            parity_ok = false;
            parity_why = "fast path, shard 2: " + why;
            std::cerr << "shard parity MISMATCH (" << parity_why
                      << ")\n";
        }
    }
    std::cout << "shard parity (exact + fast path): "
              << (parity_ok ? "exact" : "MISMATCH") << "\n";

    // --- Emit the report. -------------------------------------------
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"csprint-scale-bench-v1\",\n"
        << "  \"units\": {\"time\": \"time-scaled seconds (scale 7e-4,"
           " see EXPERIMENTS.md)\"},\n"
        << "  \"sparse_idle\": {\n"
        << "    \"config\": \"greedy, 15 mg PCM, sobel-A 16-core, "
        << sparse_tasks << " tasks every 1 s scaled\",\n"
        << "    \"reference_ms\": " << ref_ms << ",\n"
        << "    \"fast_ms\": " << fast_ms << ",\n"
        << "    \"speedup\": " << speedup << ",\n"
        << "    \"budget_speedup\": 10.0,\n"
        << "    \"reference_trace_samples\": "
        << ref.junction_trace.size() << ",\n"
        << "    \"fast_trace_samples\": " << fast.junction_trace.size()
        << ",\n"
        << "    \"pass\": " << (sparse_ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"idle_deviation\": {\n"
        << "    \"config\": \"150 mg scaled package, full melt -> "
           "refreeze -> ambient, 64 sampled chunks over 1 s scaled\",\n"
        << "    \"max_junction_deviation_c\": " << parity.max_temp_dev
        << ",\n"
        << "    \"max_melt_deviation\": " << parity.max_mf_dev << ",\n"
        << "    \"budget_c\": " << dev_budget << ",\n"
        << "    \"pass\": " << (dev_ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"million_task\": {\n"
        << "    \"config\": \"greedy, 2-core micro-programs (~2k ops),"
           " back-to-back, decimated-ring traces, streaming stats\",\n"
        << "    \"tasks\": " << million.tasks_completed << ",\n"
        << "    \"wall_s\": " << million_s << ",\n"
        << "    \"setup_ms\": " << setup_ms << ",\n"
        << "    \"steady_wall_s\": " << steady_s << ",\n"
        << "    \"tasks_per_sec\": " << tasks_per_sec << ",\n"
        << "    \"trace_samples\": " << million.junction_trace.size()
        << ",\n"
        << "    \"trace_capacity\": " << mcfg.trace_capacity << ",\n"
        << "    \"retained_task_results\": " << million.tasks.size()
        << ",\n"
        << "    \"rss_before_mb\": " << rss_before_mb << ",\n"
        << "    \"peak_rss_mb\": " << rss_mb << ",\n"
        << "    \"rss_growth_mb\": " << rss_growth_mb << ",\n"
        << "    \"budget_rss_growth_mb\": " << kRssGrowthBoundMb
        << ",\n"
        << "    \"p50_response_s\": " << million.p50_response << ",\n"
        << "    \"p95_response_s\": " << million.p95_response << ",\n"
        << "    \"utilization\": " << million.utilization << ",\n"
        << "    \"pass\": " << (million_ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"shard_parity\": {\n"
        << "    \"config\": \"bursty greedy 6 tasks, warm caches, "
           "tail rest; shards of 1/2/4 (exact) and 2 (fast path)\",\n"
        << "    \"exact\": " << (parity_ok ? "true" : "false");
    if (!parity_ok)
        out << ",\n    \"first_mismatch\": \"" << parity_why << "\"";
    out << "\n  }\n"
        << "}\n";
    std::cout << "wrote " << out_path << "\n";

    if (!sparse_ok) {
        std::cerr << "FAIL: sparse-idle speedup below 10x\n";
        return 1;
    }
    if (!dev_ok) {
        std::cerr << "FAIL: idle-path deviation above budget\n";
        return 1;
    }
    if (!million_ok) {
        std::cerr << "FAIL: million-task run not bounded\n";
        return 1;
    }
    if (!parity_ok) {
        std::cerr << "FAIL: sharded replay diverged\n";
        return 1;
    }
    return 0;
}
