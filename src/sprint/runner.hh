/**
 * @file
 * Thread-pool experiment runner.
 *
 * Every paper claim is measured by a batch of independent coupled runs
 * (each owns its Machine and ThermalNetwork, so runs share no mutable
 * state). ExperimentRunner::map fans a batch across a persistent pool
 * of std::thread workers and returns the results in submission order.
 */

#ifndef CSPRINT_SPRINT_RUNNER_HH
#define CSPRINT_SPRINT_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csprint {

/**
 * A persistent pool of worker threads for embarrassingly parallel
 * experiment batches.
 *
 * Jobs are arbitrary callables returning a value. A thread waiting on
 * a batch lends itself to the queue, so progress is made even with a
 * single hardware thread, and a map() nested inside a job cannot
 * deadlock.
 */
class ExperimentRunner
{
  public:
    /**
     * Start @p workers worker threads; 0 picks the hardware
     * concurrency (minimum 1).
     */
    explicit ExperimentRunner(int workers = 0);

    /** Drains outstanding jobs, then joins the workers. */
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /** Number of worker threads in the pool. */
    int workerCount() const { return static_cast<int>(threads.size()); }

    /**
     * Run @p jobs concurrently; results land in submission order. If a
     * job throws, the batch still drains and the first exception is
     * rethrown to the caller.
     */
    template <typename T>
    std::vector<T> map(const std::vector<std::function<T()>> &jobs)
    {
        std::vector<T> out(jobs.size());
        std::size_t remaining = jobs.size();
        std::exception_ptr first_error; // guarded by mutex
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            enqueue([this, &out, &jobs, &remaining, &first_error, i] {
                std::exception_ptr error;
                try {
                    out[i] = jobs[i]();
                } catch (...) {
                    error = std::current_exception();
                }
                std::lock_guard<std::mutex> guard(mutex);
                if (error && !first_error)
                    first_error = error;
                --remaining;
            });
        }
        helpUntilZero(remaining);
        if (first_error)
            std::rethrow_exception(first_error);
        return out;
    }

  private:
    void workerLoop();

    /** Queue a job and wake a thread. */
    void enqueue(std::function<void()> job);

    /**
     * Pop one job and run it with the lock released; updates in_flight
     * and signals on return. Requires a non-empty queue.
     */
    void runOne(std::unique_lock<std::mutex> &lock);

    /** Help run jobs until @p counter (guarded by mutex) reaches 0. */
    void helpUntilZero(const std::size_t &counter);

    std::mutex mutex;
    std::condition_variable signal; ///< enqueue / completion / shutdown
    std::deque<std::function<void()>> queue;
    std::size_t in_flight = 0; ///< queued + currently running jobs
    bool stopping = false;
    std::vector<std::thread> threads;
};

} // namespace csprint

#endif // CSPRINT_SPRINT_RUNNER_HH
