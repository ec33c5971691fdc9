/**
 * @file
 * Tests for the shard core and the fault vocabulary
 * (sprint/supervisor.hh), below any fleet transport:
 *
 *  - a shard faulted at a checkpoint (crash before the persist, bit
 *    flip or torn write after it) and rerun over the same store
 *    finishes bit-equal to the clean run, running only the slices after
 *    the checkpoint it recovered — resume, not restart;
 *
 *  - a due fault fires once, on its own side of the persist;
 *
 *  - a randomized plan is seed-deterministic and hits every shard once;
 *
 *  - retry backoff doubles per attempt.
 *
 * Per-kind recovery through the process transport, which supervises
 * every fleet run, is gated in tests/fleet_fault_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
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

TEST(FaultInjection, ShardCoreResumesInsteadOfRestarting)
{
    // Bit parity cannot tell a shard that resumed from the store from
    // one that restarted fresh; the slices the rerun runs can. One
    // task per slice, so checkpoint n lands after slice n.
    const ScenarioConfig cfg = shardScenario(11);
    int beats = 0; // two per slice
    const ShardBeatFn count = [&] { ++beats; };
    CheckpointStore clean_store(freshDir("core-clean"));
    const std::vector<std::uint8_t> clean = runShardToCompletion(
        cfg, 0, clean_store, 1, false, count, nullptr, nullptr);
    const int slices = beats / 2;
    ASSERT_GE(slices, 3);

    // Fault the shard at checkpoint 2, then rerun it over the same
    // store: it must finish bit-equal, running only the slices after
    // the checkpoint it recovered.
    const auto slicesAfterFault = [&](FaultKind kind) {
        CheckpointStore store(freshDir(faultKindName(kind)));
        const ShardPersistHook fault = [&](std::uint64_t seq) {
            if (seq != 2)
                return;
            if (kind == FaultKind::BitFlip)
                faultFlipBitInFile(store.checkpointPath(0, seq));
            if (kind == FaultKind::Truncate)
                faultTruncateFile(store.checkpointPath(0, seq));
            throw std::runtime_error("injected fault");
        };
        const bool before = kind == FaultKind::CrashAtCheckpoint;
        EXPECT_THROW(runShardToCompletion(cfg, 0, store, 1, true, nullptr,
                                          before ? fault : nullptr,
                                          before ? nullptr : fault),
                     std::runtime_error);
        beats = 0;
        EXPECT_TRUE(runShardToCompletion(cfg, 0, store, 1, true, count,
                                         nullptr, nullptr) == clean)
            << faultKindName(kind);
        return beats / 2;
    };
    // A crash before checkpoint 2 persists leaves checkpoint 1 newest.
    EXPECT_EQ(slicesAfterFault(FaultKind::CrashAtCheckpoint), slices - 1);
    // A corrupt checkpoint 2 is rejected for its predecessor.
    EXPECT_EQ(slicesAfterFault(FaultKind::BitFlip), slices - 1);
    EXPECT_EQ(slicesAfterFault(FaultKind::Truncate), slices - 1);
    // A failure after checkpoint 2 persists resumes from it.
    EXPECT_EQ(slicesAfterFault(FaultKind::WorkerException), slices - 2);
}

TEST(FaultInjection, DueFaultFiresOnItsSideOfThePersistOnce)
{
    // The worker's persist hooks share this lookup: a crash and a bit
    // flip due at the same checkpoint fire on their own side of the
    // persist, each once; other shards and checkpoints are not due.
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

TEST(FaultInjection, RandomizedPlanIsSeedDeterministic)
{
    // Equal seeds draw equal plans; each plan hits every shard once at
    // a checkpoint in [1, max_seq]; across seeds every kind is drawn.
    std::set<FaultKind> kinds;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const FaultPlan plan = FaultPlan::randomized(seed, 8, 3);
        const FaultPlan again = FaultPlan::randomized(seed, 8, 3);
        ASSERT_EQ(plan.faults.size(), 8u);
        ASSERT_EQ(again.faults.size(), 8u);
        for (std::size_t i = 0; i < plan.faults.size(); ++i) {
            const FaultSpec &f = plan.faults[i];
            EXPECT_EQ(f.shard, static_cast<int>(i));
            EXPECT_GE(f.at_seq, 1u);
            EXPECT_LE(f.at_seq, 3u);
            EXPECT_EQ(f.kind, again.faults[i].kind);
            EXPECT_EQ(f.at_seq, again.faults[i].at_seq);
            kinds.insert(f.kind);
        }
    }
    EXPECT_EQ(kinds.size(),
              static_cast<std::size_t>(FaultKind::CorruptPipe) + 1);
    // A zero bound still names a checkpoint that exists.
    for (const FaultSpec &f : FaultPlan::randomized(5, 4, 0).faults)
        EXPECT_EQ(f.at_seq, 1u);
}

TEST(FaultInjection, RetryBackoffDoublesPerAttempt)
{
    EXPECT_EQ(retryBackoffSeconds(0.01, 1), 0.01);
    EXPECT_EQ(retryBackoffSeconds(0.01, 2), 0.02);
    EXPECT_EQ(retryBackoffSeconds(0.01, 4), 0.08);
    // No backoff configured, or no retry yet: no sleep.
    EXPECT_EQ(retryBackoffSeconds(0.0, 3), 0.0);
    EXPECT_EQ(retryBackoffSeconds(0.01, 0), 0.0);
}

} // namespace
} // namespace csprint
