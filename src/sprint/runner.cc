#include "sprint/runner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csprint {

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
    helpUntilZero(in_flight);
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
        SPRINT_ASSERT(!stopping, "map on a stopped runner");
        queue.push_back(std::move(job));
        ++in_flight;
    }
    signal.notify_all();
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
        // one that did would leave in_flight stuck and hang every
        // waiter. Fail loudly instead.
        SPRINT_PANIC("ExperimentRunner job threw an exception");
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

} // namespace csprint
