/**
 * @file
 * Tests for the Scenario engine: arrival-timeline construction,
 * bit-exact parity of the greedy policy with the classic runSprint
 * path, PCM melt/refreeze cycles across a burst train, warm machine
 * re-activation, and the pacing <-> scenario consistency property
 * (the analytical sustainableDutyCycle bound upper-bounds the duty
 * cycle the engine achieves on a saturating burst train).
 */

#include <gtest/gtest.h>

#include "budget_gate_policy.hh"
#include "sprint/experiment.hh"
#include "sprint/pacing.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

ScenarioConfig
smallScenario(SprintPolicyKind kind, ArrivalPattern pattern, int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.policy.kind = kind;
    cfg.policy.pacing_period = 2.5e-3;
    cfg.pattern = pattern;
    cfg.num_tasks = tasks;
    cfg.period = 2.5e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    return cfg;
}

TEST(Arrivals, PeriodicSpacing)
{
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Periodic, 5);
    const auto tasks = buildArrivals(cfg);
    ASSERT_EQ(tasks.size(), 5u);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_DOUBLE_EQ(tasks[i].arrival,
                         static_cast<double>(i) * cfg.period);
        EXPECT_EQ(tasks[i].seed, cfg.seed + i);
    }
}

TEST(Arrivals, BurstyStructure)
{
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Bursty, 6);
    cfg.burst_size = 3;
    cfg.burst_spacing = 1e-4;
    const auto tasks = buildArrivals(cfg);
    ASSERT_EQ(tasks.size(), 6u);
    EXPECT_DOUBLE_EQ(tasks[0].arrival, 0.0);
    EXPECT_DOUBLE_EQ(tasks[1].arrival, 1e-4);
    EXPECT_DOUBLE_EQ(tasks[2].arrival, 2e-4);
    EXPECT_DOUBLE_EQ(tasks[3].arrival, cfg.period);
    EXPECT_DOUBLE_EQ(tasks[5].arrival, cfg.period + 2e-4);
}

TEST(Arrivals, PoissonIsSeededAndNonDecreasing)
{
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Poisson, 50);
    const auto a = buildArrivals(cfg);
    const auto b = buildArrivals(cfg);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(a[0].arrival, 0.0);
    double mean_gap = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
        if (i > 0) {
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
            mean_gap += a[i].arrival - a[i - 1].arrival;
        }
    }
    mean_gap /= static_cast<double>(a.size() - 1);
    // 49 exponential draws: the sample mean is loose but bounded.
    EXPECT_GT(mean_gap, 0.4 * cfg.period);
    EXPECT_LT(mean_gap, 2.0 * cfg.period);

    cfg.seed = 1234;
    const auto c = buildArrivals(cfg);
    EXPECT_NE(c[1].arrival, a[1].arrival);
}

TEST(Arrivals, BackToBackQueuesEverything)
{
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 4);
    for (const auto &task : buildArrivals(cfg))
        EXPECT_DOUBLE_EQ(task.arrival, 0.0);
}

/** The melt/refreeze cycles MeltCycleCounter counts over @p melt. */
int
meltCycles(std::initializer_list<double> melt)
{
    MeltCycleCounter counter;
    for (double m : melt)
        counter.add(m);
    return counter.cycles();
}

TEST(MeltCycles, HysteresisCounting)
{
    // Rises at 0.3, falls at 0.04; rises at 0.5, falls at 0.02;
    // rises at 0.9 but never refreezes: two complete cycles.
    EXPECT_EQ(meltCycles({0.0, 0.3, 0.6, 0.04, 0.5, 0.2, 0.02, 0.9, 0.5,
                          0.3}),
              2);
}

TEST(Scenario, GreedySingleTaskMatchesRunSprintExactly)
{
    // The acceptance gate in miniature (scenario_report checks the
    // full fig07 sobel-B configurations): one back-to-back task under
    // the greedy policy is the classic coupled run, bit for bit.
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 1);
    const ScenarioResult s = runScenario(cfg);
    ASSERT_EQ(s.tasks.size(), 1u);
    const RunResult &a = s.tasks[0].run;

    const ParallelProgram prog =
        buildKernelProgram(cfg.kernel, cfg.size, cfg.seed);
    const RunResult b = runSprint(prog, cfg.platform);

    EXPECT_EQ(a.machine.cycles, b.machine.cycles);
    EXPECT_EQ(a.machine.ops_retired, b.machine.ops_retired);
    EXPECT_EQ(a.machine.l1_hits, b.machine.l1_hits);
    EXPECT_EQ(a.machine.l1_misses, b.machine.l1_misses);
    EXPECT_EQ(a.machine.dynamic_energy, b.machine.dynamic_energy);
    EXPECT_EQ(a.task_time, b.task_time);
    EXPECT_EQ(a.peak_junction, b.peak_junction);
    EXPECT_EQ(a.final_melt_fraction, b.final_melt_fraction);
    EXPECT_EQ(a.sprint_exhausted, b.sprint_exhausted);
    EXPECT_EQ(a.sprint_duration, b.sprint_duration);
    EXPECT_EQ(a.sprint_energy, b.sprint_energy);
    EXPECT_EQ(a.cooldown_estimate, b.cooldown_estimate);
    // The task record carries no samples; the timeline holds them,
    // and with no idle gap it is the one-shot run's traces exactly.
    EXPECT_TRUE(a.junction_trace.empty());
    EXPECT_GT(b.junction_trace.size(), 0u);
    RunResult timeline = a;
    timeline.junction_trace = s.junction_trace;
    timeline.power_trace = s.power_trace;
    timeline.melt_trace = s.melt_trace;
    EXPECT_EQ(firstDifference(timeline, b), "");
    EXPECT_EQ(s.sprints_granted, 1);
    EXPECT_EQ(s.sprints_denied, 0);
    EXPECT_DOUBLE_EQ(s.utilization, 1.0);
}

TEST(Scenario, BurstTrainMeltsAndRefreezes)
{
    // Bursts separated by cooling gaps on a mid-size PCM: the melt
    // fraction must rise during bursts and refreeze in between, at
    // least twice (the paper's repeated sprint-and-rest signature).
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, 0.015);
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::Bursty;
    cfg.num_tasks = 4;
    cfg.burst_size = 2;
    cfg.period = 3e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::B;
    cfg.tail_rest = 3e-3;
    const ScenarioResult s = runScenario(cfg);
    EXPECT_GE(s.sprint_rest_cycles, 2);
    EXPECT_GT(s.melt_trace.maxValue(), 0.25);
    EXPECT_LT(s.melt_trace.back(), 0.05);  // refrozen by the end
    EXPECT_EQ(s.sprints_granted, 4);
}

TEST(Scenario, QueueingNeverStartsBeforeArrivalOrPredecessor)
{
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Bursty, 6);
    cfg.burst_size = 3;
    const ScenarioResult s = runScenario(cfg);
    ASSERT_EQ(s.tasks.size(), 6u);
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
        const ScenarioTaskResult &tr = s.tasks[i];
        EXPECT_GE(tr.start, tr.arrival);
        EXPECT_GE(tr.response, tr.finish - tr.start);
        if (i > 0) {
            EXPECT_GE(tr.start, s.tasks[i - 1].finish);
        }
    }
    EXPECT_GT(s.p95_response, 0.0);
    EXPECT_GE(s.p95_response, s.p50_response);
}

TEST(Scenario, BudgetGateDeniesWhileDrained)
{
    // A saturating train drains the budget; the gate must deny
    // re-sprints until recovery, so a back-to-back train has both
    // grants and denials.
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 6);
    cfg.policy_factory = budgetGate(0.8, cfg.policy.governor);
    const ScenarioResult s = runScenario(cfg);
    EXPECT_GE(s.sprints_granted, 1);
    EXPECT_GE(s.sprints_denied, 1);
    EXPECT_TRUE(s.tasks[0].sprint_granted);
}

TEST(Scenario, WarmCachesCarryAcrossTasks)
{
    // Identical back-to-back tasks: with warm re-activation the
    // successor machine inherits the predecessor's L1/L2 contents,
    // so later tasks miss (far) less; stats stay per-task. The
    // 16-core sprint path is used because the aggregate L1 capacity
    // (16 x 32 KB) actually holds the kernel's working set; a single
    // L1 would thrash warm or cold.
    ScenarioConfig cold;
    cold.platform = SprintConfig::parallelSprint(16, kFullPcm);
    cold.policy.kind = SprintPolicyKind::GreedyActivity;
    cold.pattern = ArrivalPattern::BackToBack;
    cold.num_tasks = 3;
    cold.kernel = KernelId::Sobel;
    cold.size = InputSize::A;
    cold.seed = 7;
    ScenarioConfig warm = cold;
    warm.warm_caches = true;
    const ScenarioResult rc = runScenario(cold);
    const ScenarioResult rw = runScenario(warm);
    ASSERT_EQ(rc.tasks.size(), 3u);
    ASSERT_EQ(rw.tasks.size(), 3u);
    // Task 0 is cold either way.
    EXPECT_EQ(rw.tasks[0].run.machine.l1_misses,
              rc.tasks[0].run.machine.l1_misses);
    // Later tasks re-use the cached input image (the synthetic input
    // depends on the per-task seed, which differs, but the shared
    // buffers dominate -- require a strict improvement).
    EXPECT_LT(rw.tasks[2].run.machine.l1_misses,
              rc.tasks[2].run.machine.l1_misses);
    // Warm stats are still per-task: hits cannot exceed ops retired.
    EXPECT_LE(rw.tasks[2].run.machine.l1_hits,
              rw.tasks[2].run.machine.ops_retired);
    // And the timeline still records the pump's samples.
    EXPECT_GT(rw.junction_trace.size(), 0u);
}

TEST(ScenarioProperty, DutyCycleBoundsSaturatingBurstTrain)
{
    // Pacing <-> scenario consistency: on a saturating back-to-back
    // train the long-run duty cycle the engine achieves cannot exceed
    // the analytical sustainableDutyCycle bound (plus the one-off
    // cold-start budget transient and the per-task grace overshoot).
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 8);
    const ScenarioResult s = runScenario(cfg);
    ASSERT_GT(s.total_sprint_time, 0.0);
    ASSERT_GT(s.makespan, 0.0);

    MobilePackageModel pkg(cfg.platform.package);
    const Watts tdp = pkg.sustainableTdp();
    const Watts sprint_power =
        s.total_sprint_energy / s.total_sprint_time;
    ASSERT_GT(sprint_power, tdp);

    const double bound = sustainableDutyCycle(pkg, sprint_power);
    // The cold-start budget funds sprint time beyond the steady-state
    // bound exactly once.
    const Seconds transient =
        pkg.sprintEnergyBudget() / (sprint_power - tdp);
    const double duty = s.total_sprint_time / s.makespan;
    EXPECT_LE(duty, bound + transient / s.makespan + 0.05)
        << "duty " << duty << " bound " << bound << " transient "
        << transient / s.makespan;

    // Energy form of the same conservation argument.
    EXPECT_LE(s.total_sprint_energy,
              pkg.sprintEnergyBudget() + 1.10 * tdp * s.makespan +
                  0.10 * pkg.sprintEnergyBudget());
}

TEST(Arrivals, PoissonGapsArePinned)
{
    // Determinism anchor for the log1p-based exponential gaps (seed
    // 42, mean 2.5e-3): pins the exact first arrivals so an RNG or
    // formula change cannot slip in silently.
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Poisson, 5);
    const auto tasks = buildArrivals(cfg);
    ASSERT_EQ(tasks.size(), 5u);
    EXPECT_DOUBLE_EQ(tasks[0].arrival, 0.0);
    EXPECT_DOUBLE_EQ(tasks[1].arrival, 0.00021897332645854392);
    EXPECT_DOUBLE_EQ(tasks[2].arrival, 0.001409954314155475);
    EXPECT_DOUBLE_EQ(tasks[3].arrival, 0.0042588791937901689);
    EXPECT_DOUBLE_EQ(tasks[4].arrival, 0.010724332846257276);
}

TEST(Arrivals, CursorMatchesMaterializedTimeline)
{
    for (ArrivalPattern pattern : allArrivalPatterns()) {
        ScenarioConfig cfg =
            smallScenario(SprintPolicyKind::GreedyActivity, pattern,
                          40);
        cfg.burst_size = 3;
        cfg.burst_spacing = 1e-4;
        const auto all = buildArrivals(cfg);
        ArrivalCursor cursor(cfg);
        for (std::size_t i = 0; i < all.size(); ++i) {
            const ScenarioTask task = nextArrival(cfg, cursor);
            ASSERT_DOUBLE_EQ(task.arrival, all[i].arrival);
            ASSERT_EQ(task.seed, all[i].seed);
        }
    }
}

TEST(MeltCycles, EmptySeriesHasNoCycles)
{
    EXPECT_EQ(meltCycles({}), 0);
}

TEST(MeltCycles, SeriesStartingMolten)
{
    // A series that opens above the rise threshold arms the counter
    // on its first sample; the first refreeze completes a cycle.
    EXPECT_EQ(meltCycles({1.0, 0.5, 0.01}), 1);

    // Starting molten and never refreezing is zero cycles.
    EXPECT_EQ(meltCycles({1.0, 0.9}), 0);

    // Starting exactly at the fall threshold while armed refreezes
    // immediately on the next below-threshold sample.
    EXPECT_EQ(meltCycles({0.25, 0.05}), 1);
}

TEST(Scenario, TraceModesPreserveAggregates)
{
    // The bounded-memory modes must reproduce every scalar aggregate
    // of the full-trace run exactly (same physics, same per-task
    // runs); only the trace storage differs.
    ScenarioConfig full =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Bursty, 6);
    full.tail_rest = 1e-3;
    ScenarioConfig ring = full;
    ring.trace_mode = TraceMode::DecimatedRing;
    ring.trace_capacity = 64;
    ScenarioConfig off = full;
    off.trace_mode = TraceMode::Off;

    const ScenarioResult rf = runScenario(full);
    const ScenarioResult rr = runScenario(ring);
    const ScenarioResult ro = runScenario(off);

    for (ScenarioResult r : {rr, ro}) {
        r.junction_trace = rf.junction_trace;
        r.power_trace = rf.power_trace;
        r.melt_trace = rf.melt_trace;
        EXPECT_EQ(firstDifference(rf, r), "");
    }
    EXPECT_LE(rr.junction_trace.size(), 64u);
    EXPECT_GT(rr.junction_trace.size(), 0u);
    EXPECT_TRUE(ro.junction_trace.empty());
    // The ring keeps a uniformly decimated subsequence of the full
    // trace: every retained sample appears in the full trace.
    for (std::size_t i = 0, j = 0; i < rr.junction_trace.size(); ++i) {
        while (j < rf.junction_trace.size() &&
               (rf.junction_trace.timeAt(j) !=
                    rr.junction_trace.timeAt(i) ||
                rf.junction_trace.valueAt(j) !=
                    rr.junction_trace.valueAt(i)))
            ++j;
        ASSERT_LT(j, rf.junction_trace.size())
            << "ring sample " << i << " not found in full trace";
    }
}

TEST(Scenario, StreamingResultDropsTasksButKeepsStats)
{
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 8);
    ScenarioConfig streaming = cfg;
    streaming.keep_task_results = false;
    streaming.trace_mode = TraceMode::Off;
    const ScenarioResult rk = runScenario(cfg);
    const ScenarioResult rs = runScenario(streaming);
    EXPECT_TRUE(rs.tasks.empty());
    EXPECT_EQ(rs.tasks_completed, 8u);
    EXPECT_DOUBLE_EQ(rs.makespan, rk.makespan);
    EXPECT_DOUBLE_EQ(rs.total_energy, rk.total_energy);
    // P² is exact through five samples and a tight estimate beyond;
    // on eight samples both quantiles must land within the sample
    // range and near the exact values.
    EXPECT_GT(rs.p50_response, 0.0);
    EXPECT_NEAR(rs.p50_response, rk.p50_response,
                0.25 * rk.p50_response + 1e-12);
    EXPECT_GE(rs.p95_response, rs.p50_response);
}

TEST(Scenario, ShardedRunMatchesUnshardedBitForBit)
{
    // The checkpoint acceptance gate in miniature (the scale bench
    // checks a bigger configuration): replaying the timeline in
    // shards of 1, 2, and 4 tasks must reproduce the unsharded run
    // exactly — every aggregate, every per-task machine stat, every
    // trace sample — including across warm-cache chains.
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Bursty, 6);
    cfg.policy_factory = budgetGate(0.8, cfg.policy.governor);
    cfg.warm_caches = true;
    cfg.tail_rest = 1e-3;
    const ScenarioResult u = runScenario(cfg);
    EXPECT_GE(u.sprints_denied, 1); // denied tasks cross the cuts too
    for (std::uint64_t shard : {1u, 2u, 4u}) {
        EXPECT_EQ(firstDifference(u, runScenarioSharded(cfg, shard)), "")
            << "shard " << shard;
    }
}

TEST(Scenario, CheckpointResumesMidTimeline)
{
    // Driving the checkpoint API by hand: advance 2 of 5 tasks, then
    // finish from the checkpoint; the result equals one-shot.
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Periodic, 5);
    const ScenarioResult whole = runScenario(cfg);

    ScenarioCheckpoint ck = beginScenario(cfg);
    EXPECT_FALSE(advanceScenario(cfg, ck, 2));
    EXPECT_EQ(ck.tasks_completed, 2u);
    EXPECT_TRUE(advanceScenario(cfg, ck, 1000));
    EXPECT_EQ(firstDifference(whole, finishScenario(cfg, std::move(ck))),
              "");
}

TEST(Scenario, QuiescentIdleStaysNearExactIdle)
{
    // The fast idle model changes only the idle integration; the
    // junction trace stays within the documented tolerance band of
    // the exact path on a gap-dominated timeline, and the task
    // outcomes (grants, counts) are unchanged.
    ScenarioConfig exact =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::Periodic, 4);
    exact.period = 20e-3;  // long gaps: the PCM refreezes in between
    exact.tail_rest = 10e-3;
    ScenarioConfig fast = exact;
    fast.idle_model = IdleModel::Quiescent;
    const ScenarioResult re = runScenario(exact);
    const ScenarioResult rf = runScenario(fast);
    EXPECT_EQ(rf.tasks_completed, re.tasks_completed);
    EXPECT_EQ(rf.sprints_granted, re.sprints_granted);
    EXPECT_EQ(rf.sprint_rest_cycles, re.sprint_rest_cycles);
    ASSERT_EQ(rf.junction_trace.size(), re.junction_trace.size());
    double max_dev = 0.0;
    for (std::size_t i = 0; i < re.junction_trace.size(); ++i)
        max_dev = std::max(max_dev,
                           std::abs(re.junction_trace.valueAt(i) -
                                    rf.junction_trace.valueAt(i)));
    EXPECT_LT(max_dev, 0.05);
}

TEST(Scenario, ProgramFactoryOverridesKernelPrograms)
{
    // A custom per-task program flows through dispatch untouched;
    // task metadata still comes from the timeline.
    int calls = 0;
    ScenarioConfig cfg =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 3);
    cfg.policy_factory = budgetGate(2.0, cfg.policy.governor);
    cfg.program_factory = [&calls](const ScenarioTask &task) {
        ++calls;
        return buildKernelProgram(KernelId::Kmeans, InputSize::A,
                                  task.seed);
    };
    const ScenarioResult r = runScenario(cfg);
    EXPECT_EQ(calls, 3);
    ASSERT_EQ(r.tasks.size(), 3u);
    for (const auto &tr : r.tasks)
        EXPECT_EQ(tr.run.program_name, "kmeans");
}

TEST(ScenarioProperty, PacedPolicyHoldsDutyTighterThanGreedy)
{
    // The duty-cycle policy exists to keep the long-run duty near the
    // analytical bound on every prefix, not just asymptotically: its
    // total sprint time on a saturating train must not exceed
    // greedy's.
    ScenarioConfig greedy =
        smallScenario(SprintPolicyKind::GreedyActivity,
                      ArrivalPattern::BackToBack, 6);
    ScenarioConfig paced =
        smallScenario(SprintPolicyKind::DutyCycle,
                      ArrivalPattern::BackToBack, 6);
    const ScenarioResult sg = runScenario(greedy);
    const ScenarioResult sp = runScenario(paced);
    EXPECT_LE(sp.total_sprint_time, sg.total_sprint_time + 1e-9);
}

} // namespace
} // namespace csprint
