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

#include <iostream>
#include <string>

#include "common/args.hh"
#include "report.hh"
#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "thermal/validation.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

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

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv,
                   {"out", "sparse-tasks", "million-tasks"});
    Report report(args.get("out", "BENCH_scale.json"),
                  "csprint-scale-bench-v1");
    JsonWriter &json = report.json();
    const int sparse_tasks =
        static_cast<int>(args.getDouble("sparse-tasks", 8));
    const int million_tasks =
        static_cast<int>(args.getDouble("million-tasks", 1000000));
    json.object("units", [&] {
        json.field("time", "time-scaled seconds (scale 7e-4, see "
                           "EXPERIMENTS.md)");
    });

    // --- Gate 1: sparse-idle timeline speedup >= 10x. ---------------
    const ScenarioConfig ref_cfg = sparseIdleConfig(sparse_tasks);
    ScenarioConfig fast_cfg = ref_cfg;
    fast_cfg.idle_model = IdleModel::Quiescent;
    fast_cfg.trace_mode = TraceMode::DecimatedRing;
    fast_cfg.trace_capacity = 4096;
    fast_cfg.keep_task_results = false;

    Stopwatch sw;
    const ScenarioResult ref = runScenario(ref_cfg);
    const double ref_ms = 1e3 * sw.lap();
    const ScenarioResult fast = runScenario(fast_cfg);
    const double fast_ms = 1e3 * sw.lap();
    const double speedup = ref_ms / fast_ms;
    const double budget_speedup = 10.0;
    std::cout << "sparse idle (" << sparse_tasks << " tasks, period "
              << ref_cfg.period << "): reference " << ref_ms
              << " ms, fast " << fast_ms << " ms, speedup " << speedup
              << "x\n";
    json.object("sparse_idle", [&] {
        json.field("config", "greedy, 15 mg PCM, sobel-A 16-core, " +
                                 std::to_string(sparse_tasks) +
                                 " tasks every 1 s scaled")
            .field("reference_ms", ref_ms)
            .field("fast_ms", fast_ms)
            .field("speedup", speedup)
            .field("budget_speedup", budget_speedup)
            .field("reference_trace_samples", ref.junction_trace.size())
            .field("fast_trace_samples", fast.junction_trace.size());
        report.flag("pass", "sparse-idle speedup >= 10x",
                    speedup >= budget_speedup);
    });

    // --- Gate 2: quiescent idle-path deviation <= 0.05 C. -----------
    const QuiescentCooldownSpec cooldown;
    const QuiescentCooldownParity parity = runQuiescentCooldownParity(
        SprintConfig::scaledPackage(0.15, 7e-4), cooldown);
    const double dev_budget = 0.05;
    std::cout << "idle-path deviation (melt->refreeze cooldown, "
              << cooldown.samples << " samples): "
              << parity.max_temp_dev << " C\n";
    json.object("idle_deviation", [&] {
        json.field("config", "150 mg scaled package, full melt -> refreeze "
                             "-> ambient, 64 sampled chunks over 1 s "
                             "scaled")
            .field("max_junction_deviation_c", parity.max_temp_dev)
            .field("max_melt_deviation", parity.max_mf_dev)
            .field("budget_c", dev_budget);
        report.flag("pass", "idle-path deviation <= 0.05 C",
                    parity.max_temp_dev <= dev_budget);
    });

    // --- Gate 3: million-task bounded-memory run. -------------------
    ScenarioConfig mcfg;
    mcfg.platform = SprintConfig::parallelSprint(2, 0.015);
    mcfg.platform.machine.l1_bytes = 8 * 1024;
    mcfg.platform.machine.l2.size_bytes = 64 * 1024;
    mcfg.policy.kind = SprintPolicyKind::GreedyActivity;
    mcfg.pattern = ArrivalPattern::BackToBack;
    mcfg.num_tasks = million_tasks;
    mcfg.program_factory = [](const ScenarioTask &task) {
        return buildMicroProgram(task.seed);
    };
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
    Stopwatch total, phase;
    ScenarioCheckpoint mck = beginScenario(mcfg);
    const double setup_ms = 1e3 * phase.lap();
    while (!advanceScenario(
        mcfg, mck, static_cast<std::uint64_t>(mcfg.num_tasks))) {
    }
    const double steady_s = phase.lap();
    const ScenarioResult million = finishScenario(mcfg, std::move(mck));
    const double million_s = total.seconds();
    const double tasks_per_sec =
        static_cast<double>(million.tasks_completed) / steady_s;
    const double rss_mb = peakRssKb() / 1024.0;
    const double rss_growth_mb = rss_mb - rss_before_mb;
    std::cout << "million-task run: " << million.tasks_completed
              << " tasks in " << million_s << " s (setup " << setup_ms
              << " ms, steady " << steady_s << " s, " << tasks_per_sec
              << " tasks/s), traces "
              << million.junction_trace.size() << " samples, peak RSS "
              << rss_mb << " MB (+" << rss_growth_mb << " MB)\n";
    json.object("million_task", [&] {
        json.field("config", "greedy, 2-core micro-programs (~2k ops), "
                             "back-to-back, decimated-ring traces, "
                             "streaming stats")
            .field("tasks", million.tasks_completed)
            .field("wall_s", million_s)
            .field("setup_ms", setup_ms)
            .field("steady_wall_s", steady_s)
            .field("tasks_per_sec", tasks_per_sec)
            .field("trace_samples", million.junction_trace.size())
            .field("trace_capacity", mcfg.trace_capacity)
            .field("retained_task_results", million.tasks.size())
            .field("rss_before_mb", rss_before_mb)
            .field("peak_rss_mb", rss_mb)
            .field("rss_growth_mb", rss_growth_mb)
            .field("budget_rss_growth_mb", kRssGrowthBoundMb)
            .field("p50_response_s", million.p50_response)
            .field("p95_response_s", million.p95_response)
            .field("utilization", million.utilization);
        report.flag(
            "pass", "million-task run bounded",
            million.tasks_completed ==
                    static_cast<std::uint64_t>(million_tasks) &&
                million.tasks.empty() && rss_before_mb > 0.0 &&
                rss_growth_mb <= kRssGrowthBoundMb &&
                million.junction_trace.size() <= mcfg.trace_capacity &&
                million.power_trace.size() <= mcfg.trace_capacity &&
                million.melt_trace.size() <= mcfg.trace_capacity);
    });

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

    std::string parity_why;
    {
        const ScenarioResult unsharded = runScenario(pcfg);
        for (std::uint64_t shard : {1, 2, 4}) {
            const std::string why =
                firstDifference(unsharded, runScenarioSharded(pcfg, shard));
            if (!why.empty() && parity_why.empty())
                parity_why = "exact engine, shard " +
                             std::to_string(shard) + ": " + why;
        }
    }
    {
        ScenarioConfig fq = pcfg;
        fq.warm_caches = false;
        fq.idle_model = IdleModel::Quiescent;
        fq.trace_mode = TraceMode::DecimatedRing;
        fq.trace_capacity = 512;
        const std::string why =
            firstDifference(runScenario(fq), runScenarioSharded(fq, 2));
        if (!why.empty() && parity_why.empty())
            parity_why = "fast path, shard 2: " + why;
    }
    json.object("shard_parity", [&] {
        json.field("config", "bursty greedy 6 tasks, warm caches, tail "
                             "rest; shards of 1/2/4 (exact) and 2 (fast "
                             "path)");
        report.parity("shard parity (exact + fast path)", parity_why);
    });
    return report.finish();
}
