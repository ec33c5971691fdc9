/**
 * @file
 * Fault-injection tests for the supervised scenario batch runner
 * (sprint/supervisor.hh). The headline gate: for every thread-transport
 * FaultKind, a run that crashes, corrupts its newest checkpoint, or
 * throws — and is then recovered by the supervisor from persisted
 * state — finishes with aggregates and traces bit-identical to an
 * uninterrupted run of the same configuration. Also covers retry
 * exhaustion (degraded shards keep their exception and do not sink
 * the rest of the batch). Stall recovery needs a process to kill; it
 * is gated in tests/fleet_fault_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "fresh_dir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

ScenarioConfig
shardScenario(std::uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.policy.pacing_period = 2.5e-3;
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = 6;
    cfg.period = 2.5e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    cfg.seed = seed;
    cfg.warm_caches = true;
    return cfg;
}

/** Recovered-equals-uninterrupted, parameterized by the fault kind. */
void
recoveryParity(FaultKind kind)
{
    const ScenarioConfig cfg = shardScenario(11);
    const ScenarioResult direct = runScenario(cfg);

    SupervisorOptions opts;
    opts.store_dir = freshDir(faultKindName(kind));
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 2;
    opts.paranoia = true;

    FaultPlan plan;
    plan.faults.push_back({0, kind, 2});

    const SupervisedBatchResult batch =
        runSupervisedScenarioBatch({cfg}, opts, plan);
    ASSERT_EQ(batch.shards.size(), 1u);
    const ShardOutcome &shard = batch.shards[0];
    ASSERT_TRUE(batch.allOk())
        << "shard degraded under " << faultKindName(kind);
    EXPECT_GE(shard.retries, 1) << "the fault never fired";
    EXPECT_GE(shard.recoveries, 1u)
        << "recovery never resumed from a persisted checkpoint";
    EXPECT_EQ(firstDifference(direct, shard.result), "");
}

TEST(FaultInjection, CrashAtCheckpointRecoversBitExact)
{
    recoveryParity(FaultKind::CrashAtCheckpoint);
}

TEST(FaultInjection, BitFlipRecoversBitExact)
{
    recoveryParity(FaultKind::BitFlip);
}

TEST(FaultInjection, TruncateRecoversBitExact)
{
    recoveryParity(FaultKind::Truncate);
}

TEST(FaultInjection, WorkerExceptionRecoversBitExact)
{
    recoveryParity(FaultKind::WorkerException);
}

TEST(FaultInjection, MultiShardRandomizedPlanStaysBitExact)
{
    // A seed-derived plan hits every shard once; all recover and all
    // match their uninterrupted twins.
    std::vector<ScenarioConfig> shards;
    for (std::uint64_t s = 0; s < 3; ++s)
        shards.push_back(shardScenario(100 + s));

    SupervisorOptions opts;
    opts.store_dir = freshDir("random");
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;

    const FaultPlan plan = FaultPlan::randomized(
        0xC0FFEEu, static_cast<int>(shards.size()), 3);
    ASSERT_EQ(plan.faults.size(), shards.size());

    const SupervisedBatchResult batch =
        runSupervisedScenarioBatch(shards, opts, plan);
    ASSERT_TRUE(batch.allOk());
    for (std::size_t i = 0; i < shards.size(); ++i)
        EXPECT_EQ(firstDifference(runScenario(shards[i]),
                                  batch.shards[i].result),
                  "");
}

TEST(FaultInjection, ExhaustedRetriesReportDegradedNotDropped)
{
    std::vector<ScenarioConfig> shards{shardScenario(5),
                                       shardScenario(6)};

    SupervisorOptions opts;
    opts.store_dir = freshDir("degraded");
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 0; // one attempt: the injected fault is fatal

    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::WorkerException, 1});

    const SupervisedBatchResult batch =
        runSupervisedScenarioBatch(shards, opts, plan);
    ASSERT_EQ(batch.shards.size(), 2u);
    EXPECT_FALSE(batch.allOk());

    const ShardOutcome &failed = batch.shards[0];
    EXPECT_TRUE(failed.degraded);
    ASSERT_TRUE(failed.error != nullptr);
    try {
        std::rethrow_exception(failed.error);
        FAIL() << "degraded shard carried no exception";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("injected"),
                  std::string::npos);
    }

    // The healthy shard is unaffected by its neighbour's failure.
    EXPECT_FALSE(batch.shards[1].degraded);
    EXPECT_EQ(firstDifference(runScenario(shards[1]),
                              batch.shards[1].result),
              "");
}

TEST(FaultInjection, InterruptedBatchResumesFromTheStore)
{
    // Kill a batch externally (simulated by a fatal first run), then
    // rerun the supervisor over the same store: the second run picks
    // up the persisted shard checkpoints instead of starting over,
    // and still matches the uninterrupted result.
    const ScenarioConfig cfg = shardScenario(21);
    SupervisorOptions opts;
    opts.store_dir = freshDir("rerun");
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 0;

    FaultPlan crash;
    crash.faults.push_back({0, FaultKind::WorkerException, 2});
    const SupervisedBatchResult first =
        runSupervisedScenarioBatch({cfg}, opts, crash);
    ASSERT_TRUE(first.shards[0].degraded);

    const SupervisedBatchResult second =
        runSupervisedScenarioBatch({cfg}, opts, FaultPlan{});
    ASSERT_TRUE(second.allOk());
    EXPECT_GE(second.shards[0].recoveries, 1u);
    EXPECT_EQ(firstDifference(runScenario(cfg), second.shards[0].result), "");
}

TEST(FaultInjection, DueFaultFiresOnItsSideOfThePersistOnce)
{
    // Both transports' hooks share this lookup: a crash and a bit flip
    // due at the same checkpoint fire on their own side of the persist,
    // each once; other shards and checkpoints are not due.
    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::BitFlip, 1});
    plan.faults.push_back({0, FaultKind::CrashAtCheckpoint, 1});
    plan.faults.push_back({1, FaultKind::KillWorker, 1});
    std::vector<bool> fired(plan.faults.size(), false);

    EXPECT_EQ(plan.fireDue(fired, 0, 2, true), -1);
    EXPECT_EQ(plan.fireDue(fired, 0, 1, true), 1);
    EXPECT_EQ(plan.fireDue(fired, 0, 1, true), -1);
    EXPECT_EQ(plan.fireDue(fired, 0, 1, false), 0);
    EXPECT_EQ(plan.fireDue(fired, 0, 1, false), -1);
    EXPECT_EQ(fired, (std::vector<bool>{true, true, false}));
    EXPECT_EQ(plan.fireDue(fired, 1, 1, false), 2);
}

} // namespace
} // namespace csprint
