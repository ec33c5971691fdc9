/**
 * @file
 * Preemption invariants across all three layers:
 *
 *  - Machine/pump: suspend+resume at sample boundaries conserves
 *    committed-op counts, energy, and traces bit-for-bit against an
 *    uninterrupted run (both scheduler loops).
 *  - Scenario engine: mid-task arrivals are delivered to the policy;
 *    preempted work resumes from its live machine; a dropped arrival
 *    leaves the package and timeline exactly as if it never arrived
 *    (the abort == deny thermal contract); a preempted-then-resumed
 *    task never responds faster than it would uninterrupted, keeps
 *    the peak junction of its earlier slices, and leaves every one of
 *    its samples on the timeline.
 *  - Checkpointing: a shard boundary cut between a preemption and the
 *    resume carries the suspended task's full progress (the
 *    mid-queue checkpoint semantics pinned bit-for-bit).
 *  - The QoS and model-predictive policies' decision logic.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

/**
 * Run one fig07-style task through the pump, suspending the machine
 * every @p suspend_every samples (0 = classic uninterrupted run).
 */
RunResult
pumpWithSuspends(MachineLoop loop, int suspend_every)
{
    SprintConfig cfg = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.machine.loop = loop;
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::A, 42);
    std::unique_ptr<Machine> machine = prepareMachine(prog, cfg);
    MobilePackageModel package(cfg.package);
    package.reset();
    package.step(cfg.activation_ramp);
    GreedyActivityPolicy policy(cfg.governor);
    policy.beginTask(package);

    if (suspend_every <= 0)
        return samplePump(*machine, cfg, package, policy);

    int samples = 0;
    const RunResult result = samplePump(
        *machine, cfg, package, policy,
        [&](Seconds, Celsius, Watts, double) {
            return ++samples % suspend_every == 0;
        });
    EXPECT_GE(samples, suspend_every) << "suspension never fired";
    return result;
}

TEST(MachinePreemption, SuspendResumeConservesEverything)
{
    for (MachineLoop loop :
         {MachineLoop::EventDriven, MachineLoop::Reference}) {
        const RunResult whole = pumpWithSuspends(loop, 0);
        const RunResult sliced = pumpWithSuspends(loop, 7);
        EXPECT_EQ(firstDifference(sliced, whole), "");
    }
}

TEST(MachinePreemption, SuspendedMachineSeedsWarmRestart)
{
    // An aborted/suspended task's caches are a valid warm-start
    // source: the re-run completes and starts warmer than cold.
    SprintConfig cfg = SprintConfig::parallelSprint(16, kSmallPcm);
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::A, 42);
    std::unique_ptr<Machine> first = prepareMachine(prog, cfg);
    int samples = 0;
    first->setSampleHook(
        [&](Machine &m, Seconds, Joules) {
            if (++samples == 20)
                m.suspend();
        },
        1000);
    first->run();
    ASSERT_TRUE(first->suspended());
    ASSERT_FALSE(first->finished());

    const RunResult cold = runSprint(prog, cfg);
    std::unique_ptr<Machine> rerun = prepareMachine(prog, cfg);
    rerun->warmStartFrom(*first);
    MobilePackageModel package(cfg.package);
    package.reset();
    package.step(cfg.activation_ramp);
    GreedyActivityPolicy policy(cfg.governor);
    policy.beginTask(package);
    const RunResult warm = samplePump(*rerun, cfg, package, policy);
    EXPECT_EQ(warm.machine.ops_retired, cold.machine.ops_retired);
    EXPECT_LT(warm.machine.l1_misses, cold.machine.l1_misses);
}

TEST(MachinePreemption, WarmStartCarriesDramChannelOccupancy)
{
    // A machine suspended mid-run can leave DRAM channels busy past
    // the cut; warmStartFrom must rebase that residual occupancy onto
    // the successor's cycle domain (same clock here, so residuals
    // carry verbatim from cycle 0) instead of silently dropping it.
    SprintConfig cfg = SprintConfig::parallelSprint(16, kSmallPcm);
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::A, 42);
    std::unique_ptr<Machine> first = prepareMachine(prog, cfg);
    int samples = 0;
    first->setSampleHook(
        [&](Machine &m, Seconds, Joules) {
            if (++samples == 3)
                m.suspend();
        },
        1000);
    first->run();
    ASSERT_TRUE(first->suspended());

    const int channels = cfg.machine.memory.channels;
    const double cut = static_cast<double>(first->stats().cycles);
    std::vector<double> residual;
    for (int ch = 0; ch < channels; ++ch)
        residual.push_back(std::max(
            0.0, first->memorySystem().channelFreeAt(ch) - cut));

    std::unique_ptr<Machine> rerun = prepareMachine(prog, cfg);
    rerun->warmStartFrom(*first);
    for (int ch = 0; ch < channels; ++ch) {
        EXPECT_DOUBLE_EQ(rerun->memorySystem().channelFreeAt(ch),
                         residual[static_cast<std::size_t>(ch)])
            << "channel " << ch;
    }
}

/**
 * The bench's deadline-heavy burst in miniature: task 0 is a heavy
 * low-priority job, the rest are short high-priority tasks with tight
 * deadlines arriving while it runs.
 */
ScenarioConfig
preemptScenario(SprintPolicyKind kind, int tasks)
{
    ScenarioConfig cfg;
    // Full PCM provisioning: the heavy task does not exhaust the
    // budget, so the preemption benefit is isolated from governor
    // consolidation effects.
    cfg.platform = SprintConfig::parallelSprint(16, kFullPcm);
    cfg.policy.kind = kind;
    cfg.policy.service_prior = 2e-3;
    cfg.policy.qos_slack = 1.5;
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = tasks;
    cfg.period = 2e-4;  // arrivals land inside the heavy task's run
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    cfg.seed = 42;
    cfg.task_tuner = [seed = cfg.seed](ScenarioTask &task) {
        const std::uint64_t index = task.seed - seed;
        if (index == 0) {
            task.priority = 0;
            task.size = InputSize::C;
            task.deadline = 0.0;
        } else {
            task.priority = 1;
            task.size = InputSize::A;
            task.deadline = 2e-3;
        }
    };
    return cfg;
}

TEST(ScenarioPreemption, QosPreemptsHeavyTaskForDeadlines)
{
    const ScenarioConfig cfg = preemptScenario(SprintPolicyKind::Qos, 4);
    const ScenarioResult s = runScenario(cfg);
    EXPECT_EQ(s.tasks_completed, 4u);
    EXPECT_GE(s.preemptions, 1);
    ASSERT_EQ(s.tasks.size(), 4u);
    // The heavy task was suspended and finished last.
    const ScenarioTaskResult &heavy = s.tasks.back();
    EXPECT_EQ(heavy.priority, 0);
    EXPECT_GE(heavy.preemptions, 1);
    EXPECT_DOUBLE_EQ(heavy.arrival, 0.0);
    // The shorts completed first and within their deadlines.
    for (std::size_t i = 0; i + 1 < s.tasks.size(); ++i) {
        EXPECT_EQ(s.tasks[i].priority, 1);
        EXPECT_TRUE(s.tasks[i].deadline_met)
            << "short task " << i << " missed its deadline";
    }
    EXPECT_EQ(s.deadlines_met, 3);
    EXPECT_EQ(s.deadlines_missed, 0);
}

TEST(ScenarioPreemption, PreemptedResponseNeverBeatsUninterrupted)
{
    // Response-time monotonicity: being suspended can only delay the
    // heavy task relative to having the machine to itself.
    ScenarioConfig alone = preemptScenario(SprintPolicyKind::Qos, 4);
    alone.num_tasks = 1;
    const ScenarioResult ra = runScenario(alone);
    ASSERT_EQ(ra.tasks.size(), 1u);

    const ScenarioResult rp =
        runScenario(preemptScenario(SprintPolicyKind::Qos, 4));
    const ScenarioTaskResult &heavy = rp.tasks.back();
    ASSERT_EQ(heavy.priority, 0);
    EXPECT_GE(heavy.response, ra.tasks[0].response);
}

/** Greedy behaviour plus an unconditional Drop for mid-task arrivals. */
class DropArrivalsPolicy : public GreedyActivityPolicy
{
  public:
    using GreedyActivityPolicy::GreedyActivityPolicy;

    bool preemptive() const override { return true; }

    ArrivalDecision
    onArrival(const MobilePackageModel &, Seconds, const TaskSnapshot &,
              const TaskSnapshot &) override
    {
        return ArrivalDecision::Drop;
    }
};

TEST(ScenarioPreemption, DroppedArrivalLeavesStateAsIfDenied)
{
    // The abort == deny contract: rejecting an arrival outright must
    // leave the package thermal state, traces, and timeline identical
    // to a timeline in which the task never existed.
    ScenarioConfig base;
    base.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    base.policy.kind = SprintPolicyKind::GreedyActivity;
    base.pattern = ArrivalPattern::Periodic;
    base.period = 2e-4;  // arrivals 1, 2 land inside task 0's run
    base.kernel = KernelId::Sobel;
    base.size = InputSize::B;
    base.num_tasks = 1;

    ScenarioConfig dropping = base;
    dropping.num_tasks = 3;
    dropping.policy_factory = [gov = base.platform.governor]() {
        return std::make_unique<DropArrivalsPolicy>(gov);
    };

    const ScenarioResult only = runScenario(base);
    const ScenarioResult dropped = runScenario(dropping);

    EXPECT_EQ(dropped.tasks_dropped, 2);
    EXPECT_EQ(dropped.tasks_completed, 1u);
    EXPECT_EQ(dropped.preemptions, 0);
    EXPECT_EQ(only.makespan, dropped.makespan);
    EXPECT_EQ(only.total_energy, dropped.total_energy);
    EXPECT_EQ(only.peak_junction, dropped.peak_junction);
    EXPECT_EQ(only.peak_melt_fraction, dropped.peak_melt_fraction);
    ASSERT_EQ(only.junction_trace.size(), dropped.junction_trace.size());
    for (std::size_t i = 0; i < only.junction_trace.size(); ++i) {
        ASSERT_EQ(only.junction_trace.valueAt(i),
                  dropped.junction_trace.valueAt(i));
    }
    EXPECT_EQ(
        firstDifference(only.tasks.at(0).run, dropped.tasks.at(0).run), "");
}

TEST(ScenarioPreemption, ShardCutBetweenPreemptionAndResume)
{
    // The mid-queue checkpoint semantics, pinned: with one-task
    // shards the first boundary falls after the first short task
    // completes — while the heavy task sits suspended in the ready
    // queue. The checkpoint must carry that live progress (not
    // restart the task from scratch), reproducing the unsharded run
    // bit-for-bit.
    const ScenarioConfig cfg = preemptScenario(SprintPolicyKind::Qos, 4);
    const ScenarioResult whole = runScenario(cfg);
    ASSERT_GE(whole.preemptions, 1);

    for (std::uint64_t shard : {1u, 2u}) {
        EXPECT_EQ(firstDifference(whole, runScenarioSharded(cfg, shard)),
                  "")
            << "shard " << shard;
    }
}

/**
 * Greedy behaviour that sprints only the first task, preempts the
 * runner for every mid-task arrival, and counts the samples it folds.
 */
class PreemptForArrivalsPolicy : public GreedyActivityPolicy
{
  public:
    PreemptForArrivalsPolicy(const GovernorConfig &gov, int *samples)
        : GreedyActivityPolicy(gov), samples_(samples)
    {
    }

    bool preemptive() const override { return true; }

    bool
    wantSprint(const MobilePackageModel &) override
    {
        const bool first = !granted_;
        granted_ = true;
        return first;
    }

    SprintDecision
    onSample(MobilePackageModel &package, Seconds dt,
             Joules energy) override
    {
        ++*samples_;
        return GreedyActivityPolicy::onSample(package, dt, energy);
    }

    ArrivalDecision
    onArrival(const MobilePackageModel &, Seconds, const TaskSnapshot &,
              const TaskSnapshot &) override
    {
        return ArrivalDecision::Preempt;
    }

  private:
    int *samples_;
    bool granted_ = false;
};

TEST(ScenarioPreemption, ResumedTaskKeepsEverySampleAndItsPeak)
{
    // A heavy sprinted task exhausts its small PCM budget, drops to
    // one core, and is then preempted by an unsprinted short task:
    // its hottest samples all precede the preemption. The resumed
    // task's peak junction must still cover them, and the timeline
    // (no idle gap anywhere) holds exactly one sample per sample the
    // policy folded — the preempting sample included.
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = 2;
    cfg.period = 1e-3;  // well after the budget is exhausted
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    cfg.seed = 42;
    cfg.task_tuner = [seed = cfg.seed](ScenarioTask &task) {
        if (task.seed == seed)
            task.size = InputSize::C;
    };
    int samples = 0;
    cfg.policy_factory = [gov = cfg.platform.governor, &samples]() {
        return std::make_unique<PreemptForArrivalsPolicy>(gov, &samples);
    };

    const ScenarioResult s = runScenario(cfg);
    ASSERT_EQ(s.tasks.size(), 2u);
    const ScenarioTaskResult &heavy = s.tasks.back();
    ASSERT_EQ(heavy.arrival, 0.0);
    ASSERT_EQ(heavy.preemptions, 1);
    EXPECT_TRUE(heavy.run.sprint_exhausted);
    EXPECT_EQ(s.junction_trace.size(), static_cast<std::size_t>(samples));

    // Junction peaks of the timeline before and after the preemption.
    Celsius before = 0.0, after = 0.0;
    for (std::size_t i = 0; i < s.junction_trace.size(); ++i) {
        Celsius &peak =
            s.junction_trace.timeAt(i) < cfg.period ? before : after;
        peak = std::max(peak, s.junction_trace.valueAt(i));
    }
    EXPECT_GT(before, after + 1.0);
    EXPECT_GE(heavy.run.peak_junction, before);
}

TEST(QosPolicyUnit, ArrivalDecisions)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.reset();
    QosPolicy policy(1.0, 0.5, GovernorConfig());

    TaskSnapshot running;
    running.priority = 0;
    running.started = true;
    running.sprint_granted = true;
    running.service = 0.1;

    TaskSnapshot incoming;
    incoming.arrival = 1.0;
    incoming.priority = 1;
    incoming.deadline = 1.4;  // tight: prior says 0.4 rem + 0.5 own

    // Deadline at risk behind the runner: preempt.
    EXPECT_EQ(policy.onArrival(pkg, 1.0, running, incoming),
              ArrivalDecision::Preempt);
    // No deadline: nothing to protect.
    incoming.deadline = kNoDeadline;
    EXPECT_EQ(policy.onArrival(pkg, 1.0, running, incoming),
              ArrivalDecision::Queue);
    // Loose deadline: waiting still meets it.
    incoming.deadline = 3.0;
    EXPECT_EQ(policy.onArrival(pkg, 1.0, running, incoming),
              ArrivalDecision::Queue);
    // Equal priority never evicts, however tight the deadline.
    incoming.priority = 0;
    incoming.deadline = 1.01;
    EXPECT_EQ(policy.onArrival(pkg, 1.0, running, incoming),
              ArrivalDecision::Queue);
}

TEST(QosPolicyUnit, PickNextIsPriorityMajorEdf)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.reset();
    QosPolicy policy(1.0, 0.0, GovernorConfig());

    std::vector<TaskSnapshot> ready(3);
    ready[0].arrival = 0.0;
    ready[0].priority = 0;
    ready[1].arrival = 0.1;
    ready[1].priority = 1;
    ready[1].deadline = 2.0;
    ready[2].arrival = 0.2;
    ready[2].priority = 1;
    ready[2].deadline = 1.0;
    // Highest priority wins; earliest deadline within the class.
    EXPECT_EQ(policy.pickNext(pkg, 0.3, ready), 2u);
    ready[2].deadline = 2.0;
    // Deadline tie: earliest arrival (the stable FIFO order).
    EXPECT_EQ(policy.pickNext(pkg, 0.3, ready), 1u);
}

TEST(QosPolicyUnit, EstimatorLearnsFromCompletions)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.reset();
    QosPolicy policy(1.0, 0.0, GovernorConfig());

    TaskSnapshot running;
    running.started = true;
    running.sprint_granted = true;
    TaskSnapshot incoming;
    incoming.priority = 1;
    incoming.deadline = 0.5;

    // No prior, nothing learned: the forecast shows no risk.
    EXPECT_EQ(policy.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Queue);

    TaskSnapshot done;
    done.sprint_granted = true;
    policy.onTaskComplete(done, 1.0);  // tasks take ~1 s
    EXPECT_EQ(policy.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Preempt);

    // The learned state round-trips through the checkpoint.
    QosPolicy clone(1.0, 0.0, GovernorConfig());
    clone.restoreState(policy.saveState());
    EXPECT_EQ(clone.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Preempt);
}

TEST(ModelPredictiveUnit, PreemptsWhenMoreDeadlinesAreMet)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.reset();
    ModelPredictivePolicy policy(0.0, GovernorConfig());

    TaskSnapshot running;  // no deadline of its own
    running.started = true;
    running.sprint_granted = true;
    TaskSnapshot incoming;
    incoming.priority = 1;

    // Nothing learned and no prior: conservative queueing.
    incoming.deadline = 0.2;
    EXPECT_EQ(policy.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Queue);

    TaskSnapshot done;
    done.sprint_granted = true;
    policy.onTaskComplete(done, 1.0);

    // Queued, the newcomer misses (1 s remaining + 1 s own > 0.2 s);
    // preempted, its finish moves ahead of the runner's remainder —
    // fewer misses, so preempt. (The 0.2 s deadline is still missed
    // either way only if service estimates exceed it; with a 1 s
    // estimate both orders miss, but preemption minimizes tardiness.)
    EXPECT_EQ(policy.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Preempt);
    // Both orders meet a loose deadline: stay with the queue.
    incoming.deadline = 10.0;
    EXPECT_EQ(policy.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Queue);
    // The runner has the tight deadline instead: preempting it would
    // sacrifice a met deadline, so queue.
    running.deadline = 1.05;
    incoming.deadline = 10.0;
    EXPECT_EQ(policy.onArrival(pkg, 0.0, running, incoming),
              ArrivalDecision::Queue);
}

TEST(WorkloadMix, FactoryIsDeterministicAndWeighted)
{
    const auto factory = makeWorkloadMixFactory(
        {{KernelId::Sobel, InputSize::A, 3.0},
         {KernelId::Kmeans, InputSize::A, 1.0}});
    int sobel = 0;
    int kmeans = 0;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        ScenarioTask task;
        task.seed = seed;
        const ParallelProgram a = factory(task);
        const ParallelProgram b = factory(task);
        EXPECT_EQ(a.name(), b.name());
        if (a.name() == "sobel")
            ++sobel;
        else if (a.name() == "kmeans")
            ++kmeans;
    }
    EXPECT_EQ(sobel + kmeans, 64);
    // 3:1 weights: both kernels drawn, sobel clearly dominant.
    EXPECT_GT(sobel, kmeans);
    EXPECT_GT(kmeans, 0);
}

TEST(WorkloadMix, PriorityHashIsDeterministicAndMixed)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = 40;
    cfg.period = 1e-3;
    cfg.hi_priority_fraction = 0.5;
    cfg.deadline_hi = 1e-3;
    cfg.deadline_lo = 0.0;
    const auto a = buildArrivals(cfg);
    const auto b = buildArrivals(cfg);
    int hi = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].priority, b[i].priority);
        EXPECT_EQ(a[i].deadline,
                  a[i].priority == 1 ? cfg.deadline_hi : 0.0);
        hi += a[i].priority;
    }
    // Both classes present (p(all-one-class) ~ 2^-39).
    EXPECT_GT(hi, 0);
    EXPECT_LT(hi, 40);
}

} // namespace
} // namespace csprint
