/**
 * @file
 * Machine-readable report for the calibrated surrogate fidelity tier,
 * written to BENCH_surrogate.json (schema documented in PERF.md,
 * "Surrogate fidelity tier").
 *
 * Two sections, both acceptance gates the tool enforces itself
 * (non-zero exit on failure):
 *
 *  1. fleet_train — the scale report's 1,000,000-task back-to-back
 *     micro-program train, run cycle-accurate and again under
 *     FidelityTier::Auto. The Auto run must reach >= 20x the exact
 *     engine's steady-state tasks/s while the aggregates it reports
 *     stay within the declared tolerances: p50/p95 response within
 *     15% relative, total energy within 10% relative, peak junction
 *     within 1 °C absolute — and the bulk of the train (>= 90%) must
 *     actually have run on the surrogate, not on audit/calibration
 *     pumps.
 *
 *  2. shard_parity — an Auto-tier train replayed as checkpointed
 *     shards (runScenarioSharded) must reproduce the unsharded run
 *     bit-for-bit, including a shard size smaller than the
 *     calibration threshold so the cut lands mid-calibration and the
 *     audit RNG cursor crosses a serialization boundary.
 *
 * The scenario seed rotates with CSPRINT_DIFF_SEED (as in the
 * differential harness), so CI accumulates coverage across runs while
 * any failure reproduces from the logged seed.
 *
 *   ./surrogate_report [--out BENCH_surrogate.json] [--tasks N]
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "common/args.hh"
#include "report.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/** The scale report's fleet-train platform (gate 3), seed-rotated. */
ScenarioConfig
fleetTrainConfig(int tasks, std::uint64_t seed)
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
    cfg.trace_mode = TraceMode::DecimatedRing;
    cfg.trace_capacity = 4096;
    cfg.keep_task_results = false;
    cfg.idle_model = IdleModel::Quiescent;
    return cfg;
}

/** Timed begin/advance/finish split of one run. */
struct TimedRun
{
    ScenarioResult result;
    double setup_ms = 0.0;
    double steady_s = 0.0;
};

TimedRun
timedRun(const ScenarioConfig &cfg)
{
    TimedRun tr;
    Stopwatch sw;
    ScenarioCheckpoint ck = beginScenario(cfg);
    tr.setup_ms = 1e3 * sw.lap();
    while (!advanceScenario(
        cfg, ck, static_cast<std::uint64_t>(cfg.num_tasks))) {
    }
    tr.steady_s = sw.lap();
    tr.result = finishScenario(cfg, std::move(ck));
    return tr;
}

double
relDev(double fast, double exact)
{
    return std::abs(fast - exact) / std::max(std::abs(exact), 1e-300);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks"});
    Report report(args.get("out", "BENCH_surrogate.json"),
                  "csprint-surrogate-bench-v1");
    JsonWriter &json = report.json();
    const int tasks = static_cast<int>(args.getDouble("tasks", 1000000));
    const std::uint64_t seed = diffSeed(args, 20260730ULL);
    json.field("seed", seed);

    // --- Gate 1: fleet-train speedup + bounded deviation. -----------
    const ScenarioConfig exact_cfg = fleetTrainConfig(tasks, seed);
    ScenarioConfig auto_cfg = exact_cfg;
    auto_cfg.surrogate.tier = FidelityTier::Auto;
    auto_cfg.surrogate.min_calibration = 32;
    auto_cfg.surrogate.audit_period = 128.0;
    auto_cfg.surrogate.tolerance = 0.75;
    auto_cfg.surrogate.profile_samples = 4;

    const TimedRun exact = timedRun(exact_cfg);
    const TimedRun fast = timedRun(auto_cfg);
    const double exact_tps =
        static_cast<double>(exact.result.tasks_completed) /
        exact.steady_s;
    const double fast_tps =
        static_cast<double>(fast.result.tasks_completed) /
        fast.steady_s;
    const double speedup = fast_tps / exact_tps;

    const double p50_dev =
        relDev(fast.result.p50_response, exact.result.p50_response);
    const double p95_dev =
        relDev(fast.result.p95_response, exact.result.p95_response);
    const double energy_dev =
        relDev(fast.result.total_energy, exact.result.total_energy);
    const double junction_dev = std::abs(fast.result.peak_junction -
                                         exact.result.peak_junction);
    const double surrogate_fraction =
        static_cast<double>(fast.result.surrogate_tasks) /
        static_cast<double>(fast.result.tasks_completed);

    const double speedup_budget = 20.0;
    const double quantile_budget = 0.15;
    const double energy_budget = 0.10;
    const double junction_budget = 1.0;
    const double fraction_budget = 0.90;
    const bool speedup_ok = speedup >= speedup_budget;
    const bool deviation_ok = p50_dev <= quantile_budget &&
                              p95_dev <= quantile_budget &&
                              energy_dev <= energy_budget &&
                              junction_dev <= junction_budget;
    const bool coverage_ok = surrogate_fraction >= fraction_budget;
    const bool complete =
        fast.result.tasks_completed == static_cast<std::uint64_t>(tasks);
    const char *train_why = !speedup_ok     ? "speedup below 20x"
                            : !deviation_ok ? "deviation over budget"
                            : !coverage_ok  ? "surrogate share below 90%"
                            : !complete     ? "train incomplete"
                                            : "";

    std::cout << "fleet train (" << tasks << " tasks): exact "
              << exact.steady_s << " s (" << exact_tps
              << " tasks/s), auto " << fast.steady_s << " s ("
              << fast_tps << " tasks/s), speedup " << speedup << "x\n";
    std::cout << "  deviation: p50 " << p50_dev * 100.0 << "%, p95 "
              << p95_dev * 100.0 << "%, energy " << energy_dev * 100.0
              << "%, peak junction " << junction_dev << " C\n";
    std::cout << "  routing: " << fast.result.surrogate_tasks
              << " surrogate, " << fast.result.audit_tasks
              << " audits, " << fast.result.surrogate_demotions
              << " demotions (" << surrogate_fraction * 100.0
              << "% surrogate)\n";
    json.object("fleet_train", [&] {
        json.field("config", "greedy, 2-core micro-programs, back-to-back; "
                             "auto tier K=32, audit 1/128, tol 0.75")
            .field("tasks", fast.result.tasks_completed)
            .field("exact_steady_s", exact.steady_s)
            .field("exact_tasks_per_sec", exact_tps)
            .field("auto_steady_s", fast.steady_s)
            .field("auto_tasks_per_sec", fast_tps)
            .field("speedup", speedup)
            .field("budget_speedup", speedup_budget)
            .field("p50_rel_dev", p50_dev)
            .field("p95_rel_dev", p95_dev)
            .field("energy_rel_dev", energy_dev)
            .field("peak_junction_dev_c", junction_dev)
            .field("budget_quantile_rel", quantile_budget)
            .field("budget_energy_rel", energy_budget)
            .field("budget_junction_c", junction_budget)
            .field("surrogate_tasks", fast.result.surrogate_tasks)
            .field("audit_tasks", fast.result.audit_tasks)
            .field("demotions", fast.result.surrogate_demotions)
            .field("surrogate_fraction", surrogate_fraction)
            .field("budget_surrogate_fraction", fraction_budget);
        report.flag("pass", "fleet train (speedup, deviation, coverage)",
                    *train_why == '\0', train_why);
    });

    // --- Gate 2: Auto-tier sharded replay, bit for bit. -------------
    // Shard size 5 < min_calibration cuts mid-calibration; 333 cuts
    // the calibrated/audit regime at awkward offsets.
    ScenarioConfig pcfg = fleetTrainConfig(4096, seed ^ 0x51a9d5ULL);
    pcfg.surrogate.tier = FidelityTier::Auto;
    pcfg.surrogate.min_calibration = 32;
    pcfg.surrogate.audit_period = 16.0;
    pcfg.surrogate.tolerance = 0.75;

    std::string parity_why;
    const ScenarioResult unsharded = runScenario(pcfg);
    for (std::uint64_t shard : {5, 333}) {
        const std::string why =
            firstDifference(unsharded, runScenarioSharded(pcfg, shard));
        if (!why.empty() && parity_why.empty())
            parity_why = "shard " + std::to_string(shard) + ": " + why;
    }
    std::cout << "shard parity run: " << unsharded.surrogate_tasks
              << " surrogate, " << unsharded.audit_tasks << " audits\n";
    json.object("shard_parity", [&] {
        json.field("config", "auto tier, 4096 tasks, audit 1/16, shards of "
                             "5 (mid-calibration) and 333")
            .field("surrogate_tasks", unsharded.surrogate_tasks)
            .field("audit_tasks", unsharded.audit_tasks);
        report.parity("shard parity (auto tier, 4096 tasks, shards 5/333)",
                      parity_why);
    });
    return report.finish();
}
