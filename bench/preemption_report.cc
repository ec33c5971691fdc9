/**
 * @file
 * Machine-readable report for the preemption subsystem, written to
 * BENCH_preempt.json (schema documented in PERF.md, "Preemption &
 * differential testing").
 *
 * Three gates the tool enforces itself (non-zero exit on failure),
 * then a sweep:
 *
 *  1. suspend_resume_parity — a fig07-style coupled task driven
 *     through pumpTaskSlice with forced suspensions every k samples
 *     must reproduce the uninterrupted samplePump run *bit-for-bit*:
 *     every machine stat, every scalar, every trace sample.
 *
 *  2. no_preempt_parity — the preemptive engine with a policy that
 *     never fires (QoS with no deadlines) must be bit-identical to
 *     the classic queueing engine (greedy) on the same mixed-size
 *     bursty timeline: mid-task arrival delivery alone must not
 *     perturb the physics.
 *
 *  3. p95_gate — on the deadline-heavy bursty train (bursts led by a
 *     heavy low-priority job trailed by short high-priority tasks
 *     with tight deadlines), the QoS and model-predictive policies
 *     must strictly beat the no-preempt baseline's p95 response and
 *     actually preempt.
 *
 *   ./preemption_report [--out BENCH_preempt.json] [--tasks N]
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "report.hh"
#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/** One pump run, optionally suspended/resumed every k samples. */
RunResult
pumpOnce(int suspend_every)
{
    const SprintConfig cfg = SprintConfig::parallelSprint(16, kFullPcm);
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
    std::unique_ptr<Machine> machine = prepareMachine(prog, cfg);
    MobilePackageModel package(cfg.package);
    package.reset();
    package.step(cfg.activation_ramp);
    GreedyActivityPolicy policy(cfg.governor);
    policy.beginTask(package);
    if (suspend_every <= 0)
        return samplePump(*machine, cfg, package, policy);
    int samples = 0;
    return samplePump(*machine, cfg, package, policy,
                      [&](Seconds, Celsius, Watts, double) {
                          return ++samples % suspend_every == 0;
                      });
}

/**
 * The deadline-heavy train: each burst opens with one heavy
 * low-priority job; short high-priority tasks trail it inside the
 * burst and arrive while it runs.
 */
ScenarioConfig
deadlineTrain(SprintPolicyKind kind, ArrivalPattern pattern, int tasks,
              Seconds deadline)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kFullPcm);
    cfg.policy.kind = kind;
    cfg.policy.qos_slack = 1.5;
    cfg.policy.service_prior = 5e-4;
    cfg.pattern = pattern;
    cfg.num_tasks = tasks;
    cfg.kernel = KernelId::Sobel;
    cfg.seed = 42;
    if (pattern == ArrivalPattern::Bursty) {
        cfg.burst_size = 10;
        cfg.period = 4e-3;
        cfg.burst_spacing = 5e-5;
        // Two heavy jobs across the train (5% of 40 tasks): bursts 0
        // and 2 open with one. Everything else is a short
        // high-priority task with the sweep's deadline.
        cfg.task_tuner = [seed = cfg.seed, deadline](ScenarioTask &t) {
            const std::uint64_t index = t.seed - seed;
            if (index % 20 == 0) {
                t.priority = 0;
                t.size = InputSize::C;
                t.deadline = 0.0;
            } else {
                t.priority = 1;
                t.size = InputSize::A;
                t.deadline = deadline;
            }
        };
    } else {
        // Poisson: classes drawn by the per-task hash; heavies are
        // the low-priority minority.
        cfg.period = 3e-4;
        cfg.hi_priority_fraction = 0.8;
        cfg.deadline_hi = deadline;
        cfg.task_tuner = [](ScenarioTask &t) {
            t.size = t.priority > 0 ? InputSize::A : InputSize::C;
        };
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks"});
    Report report(args.get("out", "BENCH_preempt.json"),
                  "csprint-preempt-bench-v1");
    JsonWriter &json = report.json();
    const int tasks = static_cast<int>(args.getDouble("tasks", 40));
    json.object("units", [&] {
        json.field("time", "time-scaled seconds (scale 7e-4, see "
                           "EXPERIMENTS.md)");
    });

    // --- Gate 1: suspend/resume is bit-identical to uninterrupted.
    const RunResult whole = pumpOnce(0);
    std::string parity_why;
    for (int every : {5, 16, 63}) {
        const std::string why = firstDifference(pumpOnce(every), whole);
        if (!why.empty() && parity_why.empty())
            parity_why = "suspend every " + std::to_string(every) +
                         " samples: " + why;
    }
    json.object("suspend_resume_parity", [&] {
        json.field("runs", "fig07-style sobel-B 16-core coupled task; "
                           "forced suspend/resume every 5/16/63 samples "
                           "vs uninterrupted");
        report.parity("suspend/resume parity", parity_why);
    });

    // --- Gate 2: mid-task delivery with no preemption fired changes
    // nothing: QoS on a uniform-priority, deadline-free version of
    // the train (its onArrival always queues, its pickNext degrades
    // to FIFO) == the classic greedy engine on the same timeline.
    ScenarioConfig quiet = deadlineTrain(
        SprintPolicyKind::Qos, ArrivalPattern::Bursty, tasks, 0.0);
    quiet.task_tuner = [seed = quiet.seed](ScenarioTask &t) {
        // Same size mix as the train, but one priority class and no
        // deadlines, so the QoS policy never reorders or preempts.
        t.size = (t.seed - seed) % 20 == 0 ? InputSize::C
                                           : InputSize::A;
    };
    ScenarioConfig classic = quiet;
    classic.policy.kind = SprintPolicyKind::GreedyActivity;
    const ScenarioResult rq = runScenario(quiet);
    const ScenarioResult rc = runScenario(classic);
    const std::string engine_why =
        rq.preemptions != 0 ? "preemptions fired" : firstDifference(rq, rc);
    json.object("no_preempt_engine_parity", [&] {
        json.field("runs", "qos with no deadlines (mid-task delivery, zero "
                           "preemptions) vs classic greedy engine on the "
                           "bursty train");
        report.flag("exact", "no-preempt engine parity",
                    engine_why.empty(), engine_why);
    });

    // --- Sweep: policy x pattern x deadline tightness.
    const Seconds tight = 4e-4;
    const Seconds loose = 4e-3;
    struct Row
    {
        SprintPolicyKind kind;
        const char *policy;
        ArrivalPattern pattern;
        const char *pattern_name;
        Seconds deadline;
        const char *tightness;
        ScenarioResult result;
    };
    const std::pair<SprintPolicyKind, const char *> policies[] = {
        {SprintPolicyKind::GreedyActivity, "no-preempt"},
        {SprintPolicyKind::Qos, "qos"},
        {SprintPolicyKind::ModelPredictive, "model-predictive"},
    };
    const std::pair<ArrivalPattern, const char *> patterns[] = {
        {ArrivalPattern::Bursty, "bursty"},
        {ArrivalPattern::Poisson, "poisson"},
    };
    const std::pair<Seconds, const char *> tightnesses[] = {
        {tight, "tight"},
        {loose, "loose"},
    };
    std::vector<Row> rows;
    for (const auto &[kind, pname] : policies) {
        for (const auto &[pattern, patname] : patterns) {
            for (const auto &[deadline, tname] : tightnesses) {
                Row row{kind,     pname, pattern, patname,
                        deadline, tname, {}};
                row.result = runScenario(
                    deadlineTrain(kind, pattern, tasks, deadline));
                rows.push_back(std::move(row));
            }
        }
    }

    auto find = [&rows](const char *policy, const char *pattern,
                        const char *tightness) -> const ScenarioResult & {
        for (const Row &row : rows) {
            if (std::string(row.policy) == policy &&
                std::string(row.pattern_name) == pattern &&
                std::string(row.tightness) == tightness)
                return row.result;
        }
        SPRINT_PANIC("sweep row missing");
    };

    // --- Gate 3: preemption strictly improves p95 on the
    // deadline-heavy bursty train.
    const ScenarioResult &base = find("no-preempt", "bursty", "tight");
    const ScenarioResult &qos = find("qos", "bursty", "tight");
    const ScenarioResult &mpc =
        find("model-predictive", "bursty", "tight");
    std::cout << "p95 (bursty, tight): no-preempt " << base.p95_response
              << " s, qos " << qos.p95_response << " s ("
              << qos.preemptions << " preemptions), model-predictive "
              << mpc.p95_response << " s (" << mpc.preemptions
              << " preemptions)\n";
    std::cout << "deadlines met (of " << base.deadlines_met +
                     base.deadlines_missed
              << "): no-preempt " << base.deadlines_met << ", qos "
              << qos.deadlines_met << ", model-predictive "
              << mpc.deadlines_met << "\n";
    json.object("p95_gate", [&] {
        json.field("config", "bursty deadline-heavy train, " +
                                 std::to_string(tasks) +
                                 " tasks, bursts of 10 led by a heavy "
                                 "low-priority job, tight deadlines")
            .field("no_preempt_p95_s", base.p95_response)
            .field("qos_p95_s", qos.p95_response)
            .field("model_predictive_p95_s", mpc.p95_response);
        report.flag("improved",
                    "preemption improves p95 on the deadline-heavy "
                    "bursty train",
                    qos.p95_response < base.p95_response &&
                        mpc.p95_response < base.p95_response &&
                        qos.preemptions > 0 && mpc.preemptions > 0);
    });
    json.array("sweep", [&] {
        for (const Row &row : rows) {
            const ScenarioResult &r = row.result;
            json.object([&] {
                json.field("policy", row.policy)
                    .field("pattern", row.pattern_name)
                    .field("deadlines", row.tightness)
                    .field("tasks", r.tasks_completed)
                    .field("preemptions", r.preemptions)
                    .field("dropped", r.tasks_dropped)
                    .field("deadlines_met", r.deadlines_met)
                    .field("deadlines_missed", r.deadlines_missed)
                    .field("p50_response_s", r.p50_response)
                    .field("p95_response_s", r.p95_response)
                    .field("makespan_s", r.makespan)
                    .field("utilization", r.utilization)
                    .field("sprints_granted", r.sprints_granted)
                    .field("sprints_exhausted", r.sprints_exhausted)
                    .field("hardware_throttles", r.hardware_throttles)
                    .field("peak_junction_c", r.peak_junction)
                    .field("total_energy_j", r.total_energy);
            });
        }
    });
    std::cout << "sweep: " << rows.size() << " scenarios\n";
    return report.finish();
}
