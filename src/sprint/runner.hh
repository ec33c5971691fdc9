/**
 * @file
 * Thread-pool experiment runner.
 *
 * Every paper figure is a batch of independent coupled runs (each owns
 * its Machine and ThermalNetwork, so runs share no mutable state); the
 * seed drivers executed them strictly serially. ExperimentRunner fans a
 * batch across a persistent pool of std::thread workers and returns
 * results in submission order, so the figure/ablation drivers stay a
 * simple "build specs, run batch, print table" pipeline.
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

#include "sprint/experiment.hh"
#include "sprint/scenario.hh"

namespace csprint {

/** Which experiment driver a batched run goes through. */
enum class ExperimentMode
{
    Baseline,       ///< runBaselineExperiment
    ParallelSprint, ///< runParallelSprintExperiment
    DvfsSprint,     ///< runDvfsSprintExperiment
};

/** One entry of a batched experiment request. */
struct ExperimentRun
{
    ExperimentMode mode = ExperimentMode::Baseline;
    ExperimentSpec spec;
};

/** Dispatch one ExperimentRun through its driver. */
RunResult runExperiment(const ExperimentRun &run);

/**
 * A persistent pool of worker threads for embarrassingly parallel
 * experiment batches.
 *
 * Jobs are arbitrary callables; runBatch() and map() are the typed
 * conveniences the drivers use. A thread waiting on a batch lends
 * itself to the queue, so progress is made even with a single hardware
 * thread, and a map() nested inside a job cannot deadlock.
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
     * Enqueue a fire-and-forget job (finished by wait()). Jobs
     * submitted through this raw primitive must not throw — an escaped
     * exception panics rather than hanging the pool (map() jobs may
     * throw; their exceptions are captured and rethrown).
     */
    void submit(std::function<void()> job);

    /** Help run queued jobs until every submitted job has finished. */
    void wait();

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

    /** Run a batch of experiments; results in submission order. */
    std::vector<RunResult> runBatch(const std::vector<ExperimentRun> &batch);

    /**
     * Run a batch of scenarios; results in submission order. Each
     * scenario owns its package, policy, and machines, so scenarios
     * fan out as freely as single experiments (the tasks *within* one
     * scenario share thermal state and stay serial).
     */
    std::vector<ScenarioResult>
    runScenarioBatch(const std::vector<ScenarioConfig> &batch);

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
    std::condition_variable signal; ///< submit / completion / shutdown
    std::deque<std::function<void()>> queue;
    std::size_t in_flight = 0; ///< queued + currently running jobs
    bool stopping = false;
    std::vector<std::thread> threads;
};

} // namespace csprint

#endif // CSPRINT_SPRINT_RUNNER_HH
