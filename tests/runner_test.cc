/**
 * @file
 * Tests for the ExperimentRunner thread pool: result ordering, nested
 * batches, and agreement between a pooled batch and the serial
 * experiment drivers.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "sprint/experiment.hh"
#include "sprint/runner.hh"

namespace csprint {
namespace {

TEST(ExperimentRunner, MapPreservesSubmissionOrder)
{
    ExperimentRunner runner(4);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.emplace_back([i] {
            // Stagger completion so out-of-order finishes would show.
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 10));
            return i;
        });
    }
    const std::vector<int> out = runner.map(jobs);
    ASSERT_EQ(out.size(), jobs.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);

    // The pool stays usable after a batch.
    EXPECT_EQ(runner.map(jobs), out);
}

TEST(ExperimentRunner, NestedMapDoesNotDeadlock)
{
    ExperimentRunner runner(2);
    std::vector<std::function<int()>> outer;
    for (int i = 0; i < 4; ++i) {
        outer.emplace_back([&runner, i] {
            std::vector<std::function<int()>> inner;
            for (int j = 0; j < 4; ++j)
                inner.emplace_back([i, j] { return 10 * i + j; });
            const std::vector<int> got = runner.map(inner);
            int sum = 0;
            for (int v : got)
                sum += v;
            return sum;
        });
    }
    const std::vector<int> sums = runner.map(outer);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sums[static_cast<std::size_t>(i)], 40 * i + 6);
}

TEST(ExperimentRunner, ZeroWorkerRequestGetsAtLeastOne)
{
    ExperimentRunner runner(0);
    EXPECT_GE(runner.workerCount(), 1);
}

TEST(ExperimentRunner, BatchAgreesWithSerialDrivers)
{
    // The pooled batch must produce the same physics as calling the
    // drivers serially (each run owns its state, so this is pure
    // plumbing — but it is the property every claim rests on).
    ExperimentSpec spec;
    spec.kernel = KernelId::Sobel;
    spec.size = InputSize::A;
    spec.cores = 4;

    const RunResult serial_base = runBaselineExperiment(spec);
    const RunResult serial_sprint = runParallelSprintExperiment(spec);

    ExperimentRunner runner(2);
    const std::vector<RunResult> batched =
        runner.map(std::vector<std::function<RunResult()>>{
            [&spec] { return runBaselineExperiment(spec); },
            [&spec] { return runParallelSprintExperiment(spec); }});

    ASSERT_EQ(batched.size(), 2u);
    EXPECT_DOUBLE_EQ(batched[0].task_time, serial_base.task_time);
    EXPECT_DOUBLE_EQ(batched[0].dynamic_energy,
                     serial_base.dynamic_energy);
    EXPECT_DOUBLE_EQ(batched[1].task_time, serial_sprint.task_time);
    EXPECT_DOUBLE_EQ(batched[1].dynamic_energy,
                     serial_sprint.dynamic_energy);
    EXPECT_DOUBLE_EQ(speedupOver(batched[0], batched[1]),
                     speedupOver(serial_base, serial_sprint));
}

} // namespace
} // namespace csprint
