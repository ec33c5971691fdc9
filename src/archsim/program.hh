/**
 * @file
 * The parallel-program abstraction executed by the machine: a sequence
 * of phases separated by barriers. A phase is a bag of tasks executed
 * serially (by thread 0), statically partitioned across threads
 * (OpenMP-style), or dynamically dequeued from a shared counter
 * (task-stealing-style, with the dequeue critical section modelled).
 * Each task materializes as an OpStream.
 */

#ifndef CSPRINT_ARCHSIM_PROGRAM_HH
#define CSPRINT_ARCHSIM_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "archsim/opstream.hh"

namespace csprint {

/** Scheduling policy of a phase. */
enum class PhaseKind
{
    Serial,          ///< all tasks run on thread 0; others wait
    ParallelStatic,  ///< contiguous static partition across threads
    ParallelDynamic, ///< shared-counter dynamic dequeue (task stealing)
};

/** One barrier-delimited phase. */
struct Phase
{
    std::string name;
    PhaseKind kind = PhaseKind::ParallelStatic;
    std::size_t num_tasks = 0;
    /** Materialize the op stream for one task index. */
    std::function<std::unique_ptr<OpStream>(std::size_t task)> make_task;
};

/** A named sequence of phases. */
class ParallelProgram
{
  public:
    explicit ParallelProgram(std::string name) : title(std::move(name)) {}

    /** Program name (workload kernel name). */
    const std::string &name() const { return title; }

    /** Append a phase. */
    void addPhase(Phase phase) { phases_.push_back(std::move(phase)); }

    /** Phase list. */
    const std::vector<Phase> &phases() const { return phases_; }

  private:
    std::string title;
    std::vector<Phase> phases_;
};

/**
 * Materialize every task of @p program in order, phase by phase, and
 * call fn(phase, task, op) for each op its stream hands out.
 */
template <typename Fn>
void
forEachOp(const ParallelProgram &program, Fn &&fn)
{
    std::vector<MicroOp> window;
    for (const Phase &phase : program.phases()) {
        for (std::size_t task = 0; task < phase.num_tasks; ++task) {
            const std::unique_ptr<OpStream> stream = phase.make_task(task);
            while (const std::size_t n = stream->fillInto(window)) {
                for (std::size_t i = 0; i < n; ++i)
                    fn(phase, task, window[i]);
            }
        }
    }
}

/**
 * Bump allocator handing out disjoint, line-aligned address ranges for
 * workload buffers so distinct data structures never false-share.
 */
class AddressAllocator
{
  public:
    explicit AddressAllocator(std::uint64_t base = 0x10000000ULL)
        : next(base)
    {
    }

    /** Reserve @p bytes and return the base address. */
    std::uint64_t
    alloc(std::uint64_t bytes)
    {
        const std::uint64_t base = next;
        next += (bytes + 63) & ~63ULL;
        // Pad by a line to avoid adjacency effects between buffers.
        next += 64;
        return base;
    }

  private:
    std::uint64_t next;
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_PROGRAM_HH
