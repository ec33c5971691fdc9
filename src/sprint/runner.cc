#include "sprint/runner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csprint {

RunResult
runExperiment(const ExperimentRun &run)
{
    switch (run.mode) {
      case ExperimentMode::Baseline:
        return runBaselineExperiment(run.spec);
      case ExperimentMode::ParallelSprint:
        return runParallelSprintExperiment(run.spec);
      case ExperimentMode::DvfsSprint:
        return runDvfsSprintExperiment(run.spec);
    }
    SPRINT_PANIC("unknown experiment mode");
}

ExperimentRunner::ExperimentRunner(int workers)
{
    if (workers <= 0) {
        workers = static_cast<int>(std::thread::hardware_concurrency());
        workers = std::max(1, workers);
    }
    threads.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ExperimentRunner::~ExperimentRunner()
{
    wait();
    {
        std::lock_guard<std::mutex> guard(mutex);
        stopping = true;
    }
    signal.notify_all();
    for (auto &t : threads)
        t.join();
}

void
ExperimentRunner::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> guard(mutex);
        SPRINT_ASSERT(!stopping, "submit on a stopped runner");
        queue.push_back(std::move(job));
        ++in_flight;
    }
    signal.notify_all();
}

void
ExperimentRunner::submit(std::function<void()> job)
{
    enqueue(std::move(job));
}

void
ExperimentRunner::runOne(std::unique_lock<std::mutex> &lock)
{
    std::function<void()> job = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    try {
        job();
    } catch (...) {
        // map() wraps its jobs and never lets an exception reach here;
        // a raw submit() job that throws would otherwise leave
        // in_flight stuck and hang every waiter. Fail loudly instead.
        SPRINT_PANIC("ExperimentRunner job threw an exception; "
                     "use map() for throwing jobs");
    }
    lock.lock();
    --in_flight;
    signal.notify_all();
}

void
ExperimentRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        signal.wait(lock,
                    [this] { return stopping || !queue.empty(); });
        if (queue.empty())
            return; // stopping, nothing left to run
        runOne(lock);
    }
}

void
ExperimentRunner::helpUntilZero(const std::size_t &counter)
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        if (counter == 0)
            return;
        if (!queue.empty()) {
            runOne(lock);
            continue;
        }
        // Jobs of this batch are running elsewhere: sleep until a
        // completion (or new work to help with) arrives.
        signal.wait(lock, [this, &counter] {
            return counter == 0 || !queue.empty();
        });
    }
}

void
ExperimentRunner::wait()
{
    helpUntilZero(in_flight);
}

std::vector<RunResult>
ExperimentRunner::runBatch(const std::vector<ExperimentRun> &batch)
{
    std::vector<std::function<RunResult()>> jobs;
    jobs.reserve(batch.size());
    for (const ExperimentRun &run : batch)
        jobs.emplace_back([&run] { return runExperiment(run); });
    return map(jobs);
}

std::vector<ScenarioResult>
ExperimentRunner::runScenarioBatch(const std::vector<ScenarioConfig> &batch)
{
    std::vector<std::function<ScenarioResult()>> jobs;
    jobs.reserve(batch.size());
    for (const ScenarioConfig &cfg : batch)
        jobs.emplace_back([&cfg] { return runScenario(cfg); });
    return map(jobs);
}

} // namespace csprint
