/**
 * @file
 * Machine-readable report for the Scenario engine, written to
 * BENCH_scenarios.json (schema documented in PERF.md, "The scenario
 * engine").
 *
 * Three sections, the first two of which are acceptance gates the
 * tool enforces itself (non-zero exit on failure):
 *
 *  1. parity — a single back-to-back task under the greedy policy
 *     must reproduce the direct runSprint() result *bit-for-bit* on
 *     the fig07 configurations (16-core sobel-B, 1.5 mg and 150 mg
 *     design points): every scalar, every stat, every trace sample.
 *     The Scenario engine is the same prepareMachine/samplePump
 *     composition runSprint uses, so any divergence is a bug.
 *
 *  2. bursty_showcase — a burst train on a mid-size PCM design point
 *     must exhibit >= 2 distinct sprint/rest cycles with the PCM
 *     melting during bursts and refreezing in the gaps (the paper's
 *     Section 3 sprint-and-rest signature on the live coupled loop).
 *
 *  3. sweep — policy x arrival-pattern x PCM-mass grid reporting the
 *     sustained-vs-burst tradeoff: utilization, p50/p95 task response
 *     time, sprints granted/denied/exhausted, hardware throttles,
 *     peak junction, melt cycles.
 *
 *   ./scenario_report [--out BENCH_scenarios.json] [--tasks N]
 */

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "report.hh"
#include "sprint/experiment.hh"
#include "sprint/runner.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/**
 * One parity point: greedy-through-scenario vs direct runSprint; the
 * first differing field, or empty.
 */
std::string
parityPointDifference(Grams pcm)
{
    ScenarioConfig scfg;
    scfg.platform = SprintConfig::parallelSprint(16, pcm);
    scfg.policy.kind = SprintPolicyKind::GreedyActivity;
    scfg.pattern = ArrivalPattern::BackToBack;
    scfg.num_tasks = 1;
    scfg.kernel = KernelId::Sobel;
    scfg.size = InputSize::B;
    scfg.seed = 42;
    const ScenarioResult s = runScenario(scfg);

    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
    const RunResult direct =
        runSprint(prog, SprintConfig::parallelSprint(16, pcm));
    // The task record carries no samples; the timeline holds them.
    RunResult run = s.tasks.at(0).run;
    run.junction_trace = s.junction_trace;
    run.power_trace = s.power_trace;
    run.melt_trace = s.melt_trace;
    return firstDifference(run, direct);
}

/** The burst-train showcase: melt/refreeze cycles on a 15 mg point. */
ScenarioResult
runBurstyShowcase(int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, 0.015);
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::Bursty;
    cfg.num_tasks = tasks;
    cfg.burst_size = 2;
    cfg.period = 3e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::B;
    cfg.tail_rest = 3e-3;
    return runScenario(cfg);
}

/** The fields every scenario entry of the report carries. */
void
scenarioFields(JsonWriter &json, const ScenarioResult &s)
{
    json.field("tasks", s.tasks.size())
        .field("sprints_granted", s.sprints_granted)
        .field("sprints_denied", s.sprints_denied)
        .field("sprints_exhausted", s.sprints_exhausted)
        .field("hardware_throttles", s.hardware_throttles)
        .field("utilization", s.utilization)
        .field("p50_response_s", s.p50_response)
        .field("p95_response_s", s.p95_response)
        .field("makespan_s", s.makespan)
        .field("peak_junction_c", s.peak_junction)
        .field("total_energy_j", s.total_energy)
        .field("sprint_time_s", s.total_sprint_time)
        .field("peak_melt_fraction",
               s.melt_trace.empty() ? 0.0 : s.melt_trace.maxValue())
        .field("sprint_rest_cycles", s.sprint_rest_cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks"});
    Report report(args.get("out", "BENCH_scenarios.json"),
                  "csprint-scenario-bench-v1");
    JsonWriter &json = report.json();
    const int tasks = static_cast<int>(args.getDouble("tasks", 6));
    json.object("units", [&] {
        json.field("time", "time-scaled seconds (scale 7e-4, see "
                           "EXPERIMENTS.md)");
    });

    // --- Gate 1: greedy-through-scenario == runSprint, bit-for-bit.
    std::string parity_why;
    for (Grams pcm : {kSmallPcm, kFullPcm}) {
        const std::string why = parityPointDifference(pcm);
        if (!why.empty() && parity_why.empty())
            parity_why = why;
    }
    json.object("parity", [&] {
        json.field("runs", "fig07 sobel-B 16-core, 1.5 mg and 150 mg "
                           "design points; single back-to-back task, "
                           "greedy policy, vs direct runSprint");
        report.parity("greedy scenario vs runSprint parity", parity_why);
    });

    // --- Gate 2: bursty melt/refreeze cycles.
    const ScenarioResult bursty = runBurstyShowcase(tasks);
    std::cout << "bursty showcase: " << bursty.sprint_rest_cycles
              << " sprint/rest cycles, peak melt "
              << (bursty.melt_trace.empty()
                      ? 0.0
                      : bursty.melt_trace.maxValue())
              << ", peak junction " << bursty.peak_junction << " C\n";
    json.object("bursty_showcase", [&] {
        json.field("config", "greedy policy, 15 mg PCM, sobel-B, " +
                                 std::to_string(tasks) +
                                 " tasks in bursts of 2 every 3 ms scaled");
        scenarioFields(json, bursty);
    });
    report.check("bursty showcase: >= 2 sprint/rest cycles",
                 bursty.sprint_rest_cycles >= 2,
                 std::to_string(bursty.sprint_rest_cycles) + " cycles");

    // --- Section 3: the policy x pattern x PCM sweep.
    const std::vector<Grams> pcm_points = {kSmallPcm, kFullPcm};
    const std::vector<ArrivalPattern> patterns = {
        ArrivalPattern::Periodic,
        ArrivalPattern::Bursty,
        ArrivalPattern::BackToBack,
    };
    std::vector<ScenarioConfig> sweep;
    for (SprintPolicyKind kind : allSprintPolicyKinds()) {
        for (ArrivalPattern pattern : patterns) {
            for (Grams pcm : pcm_points) {
                ScenarioConfig cfg;
                cfg.platform = SprintConfig::parallelSprint(16, pcm);
                cfg.policy.kind = kind;
                cfg.policy.pacing_period = 2.5e-3;
                cfg.pattern = pattern;
                cfg.num_tasks = tasks;
                cfg.period = 2.5e-3;
                cfg.burst_size = 2;
                cfg.kernel = KernelId::Sobel;
                cfg.size = InputSize::A;
                sweep.push_back(cfg);
            }
        }
    }
    // Scenarios are independent of each other; the tasks within one
    // share thermal state and stay serial.
    std::vector<std::function<ScenarioResult()>> jobs;
    for (const ScenarioConfig &cfg : sweep)
        jobs.emplace_back([&cfg] { return runScenario(cfg); });
    ExperimentRunner runner;
    const std::vector<ScenarioResult> results = runner.map(jobs);
    json.array("sweep", [&] {
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ScenarioConfig &cfg = sweep[i];
            json.object([&] {
                json.field("policy", sprintPolicyKindName(cfg.policy.kind))
                    .field("pattern", arrivalPatternName(cfg.pattern))
                    .field("pcm_mg", cfg.platform.package.pcm_mass *
                                         1000.0 / kDefaultTimeScale);
                scenarioFields(json, results[i]);
            });
        }
    });
    std::cout << "sweep: " << results.size() << " scenarios\n";
    return report.finish();
}
