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

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
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
    return firstDifference(s.tasks.at(0).run, direct);
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

void
emitScenario(std::ostream &out, const std::string &indent,
             const ScenarioResult &s)
{
    out << indent << "\"tasks\": " << s.tasks.size() << ",\n"
        << indent << "\"sprints_granted\": " << s.sprints_granted
        << ",\n"
        << indent << "\"sprints_denied\": " << s.sprints_denied << ",\n"
        << indent << "\"sprints_exhausted\": " << s.sprints_exhausted
        << ",\n"
        << indent << "\"hardware_throttles\": " << s.hardware_throttles
        << ",\n"
        << indent << "\"utilization\": " << s.utilization << ",\n"
        << indent << "\"p50_response_s\": " << s.p50_response << ",\n"
        << indent << "\"p95_response_s\": " << s.p95_response << ",\n"
        << indent << "\"makespan_s\": " << s.makespan << ",\n"
        << indent << "\"peak_junction_c\": " << s.peak_junction << ",\n"
        << indent << "\"total_energy_j\": " << s.total_energy << ",\n"
        << indent << "\"sprint_time_s\": " << s.total_sprint_time
        << ",\n"
        << indent << "\"peak_melt_fraction\": "
        << (s.melt_trace.empty() ? 0.0 : s.melt_trace.maxValue())
        << ",\n"
        << indent << "\"sprint_rest_cycles\": " << s.sprint_rest_cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks"});
    const std::string out_path = args.get("out", "BENCH_scenarios.json");
    const int tasks = static_cast<int>(args.getDouble("tasks", 6));

    // --- Gate 1: greedy-through-scenario == runSprint, bit-for-bit.
    bool parity_ok = true;
    std::string parity_why;
    for (Grams pcm : {kSmallPcm, kFullPcm}) {
        const std::string why = parityPointDifference(pcm);
        if (!why.empty()) {
            parity_ok = false;
            parity_why = why;
            std::cerr << "parity MISMATCH at pcm " << pcm << " g: "
                      << why << "\n";
        }
    }
    std::cout << "greedy scenario vs runSprint parity: "
              << (parity_ok ? "exact" : "MISMATCH") << "\n";

    // --- Gate 2: bursty melt/refreeze cycles.
    const ScenarioResult bursty = runBurstyShowcase(tasks);
    std::cout << "bursty showcase: " << bursty.sprint_rest_cycles
              << " sprint/rest cycles, peak melt "
              << (bursty.melt_trace.empty()
                      ? 0.0
                      : bursty.melt_trace.maxValue())
              << ", peak junction " << bursty.peak_junction << " C\n";

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
    ExperimentRunner runner;
    const std::vector<ScenarioResult> results =
        runner.runScenarioBatch(sweep);

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"csprint-scenario-bench-v1\",\n"
        << "  \"units\": {\"time\": \"time-scaled seconds (scale 7e-4, "
           "see EXPERIMENTS.md)\"},\n"
        << "  \"parity\": {\n"
        << "    \"runs\": \"fig07 sobel-B 16-core, 1.5 mg and 150 mg "
           "design points; single back-to-back task, greedy policy, "
           "vs direct runSprint\",\n"
        << "    \"exact\": " << (parity_ok ? "true" : "false");
    if (!parity_ok)
        out << ",\n    \"first_mismatch\": \"" << parity_why << "\"";
    out << "\n  },\n"
        << "  \"bursty_showcase\": {\n"
        << "    \"config\": \"greedy policy, 15 mg PCM, sobel-B, "
        << tasks << " tasks in bursts of 2 every 3 ms scaled\",\n";
    emitScenario(out, "    ", bursty);
    out << "\n  },\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioConfig &cfg = sweep[i];
        out << "    {\n"
            << "      \"policy\": \""
            << sprintPolicyKindName(cfg.policy.kind) << "\",\n"
            << "      \"pattern\": \""
            << arrivalPatternName(cfg.pattern) << "\",\n"
            << "      \"pcm_mg\": "
            << cfg.platform.package.pcm_mass * 1000.0 /
                   kDefaultTimeScale
            << ",\n";
        emitScenario(out, "      ", results[i]);
        out << "\n    }" << (i + 1 < results.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n"
        << "}\n";

    std::cout << "sweep: " << results.size()
              << " scenarios; wrote " << out_path << "\n";

    if (!parity_ok) {
        std::cerr << "FAIL: scenario engine diverged from runSprint\n";
        return 1;
    }
    if (bursty.sprint_rest_cycles < 2) {
        std::cerr << "FAIL: bursty showcase produced "
                  << bursty.sprint_rest_cycles
                  << " sprint/rest cycles (need >= 2)\n";
        return 1;
    }
    return 0;
}
