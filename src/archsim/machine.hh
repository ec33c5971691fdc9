/**
 * @file
 * The many-core machine: in-order cores (CPI of one plus cache-miss
 * penalties), private L1s, a shared directory-coherent L2, a
 * dual-channel memory system, and the threading runtime that executes
 * a ParallelProgram (paper Section 8.1).
 *
 * Threads map onto active cores; when there are more threads than
 * active cores (the post-sprint single-core mode of Section 7) each
 * core round-robin multiplexes its threads with a context-switch cost.
 * A PAUSE op puts the executing core to sleep for ~1000 cycles at 10%
 * of active power. An external controller (the sprint governor) may
 * observe energy every sampling quantum and react by consolidating all
 * threads onto core 0 or by throttling frequency.
 *
 * Two scheduler loops implement identical semantics (see PERF.md, "The
 * machine hot path"): the default event-driven loop advances the clock
 * directly to the next cycle on which any core can change state
 * (charging skipped idle cycles in bulk) and drains runs of one-cycle
 * ops per core visit, while the retained reference loop is the seed's
 * cycle-by-cycle scan, kept as the parity baseline. Both charge energy
 * through integer event tallies priced at sample boundaries, so their
 * statistics agree bit-for-bit.
 */

#ifndef CSPRINT_ARCHSIM_MACHINE_HH
#define CSPRINT_ARCHSIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "archsim/cache.hh"
#include "archsim/coreset.hh"
#include "archsim/l2.hh"
#include "archsim/memory.hh"
#include "archsim/program.hh"
#include "common/units.hh"
#include "energy/model.hh"
#include "energy/ops.hh"

namespace csprint {

/** Which scheduler loop Machine::run() executes. */
enum class MachineLoop : unsigned char
{
    EventDriven,  ///< skip-ahead scheduler with batched op streams
    Reference,    ///< retained cycle-by-cycle loop (parity baseline)
};

/** Machine configuration (paper defaults). */
struct MachineConfig
{
    /** Upper bound on num_cores (directory pointer width, sanity). */
    static constexpr int kMaxCores = 4096;

    int num_cores = 16;      ///< cores physically present and active
    int num_threads = 16;    ///< software threads executing the program
    Hertz nominal_clock = 1e9;
    double freq_mult = 1.0;  ///< DVFS multiplier (voltage tracks it)

    std::size_t l1_bytes = 32 * 1024;
    int l1_assoc = 8;
    std::size_t line_bytes = 64;

    L2Config l2;
    MemoryConfig memory;

    Cycles pause_sleep_cycles = 1000;   ///< PAUSE sleep duration
    Cycles context_switch_cycles = 2000;
    Cycles thread_quantum = 100000;     ///< multiplexing quantum
    Cycles task_dequeue_cycles = 40;    ///< dynamic-dequeue critical path
    Cycles migration_cycles = 30000;    ///< consolidation cost on core 0
    int spin_tries_before_pause = 16;   ///< lock spin before PAUSE

    MachineLoop loop = MachineLoop::EventDriven;

    InstructionEnergyModel energy;

    /** Sixteen-core sprint chip of the paper's evaluation. */
    static MachineConfig paper16(int threads = 16);
};

/** Aggregate machine statistics. */
struct MachineStats
{
    Cycles cycles = 0;          ///< core-clock cycles elapsed
    Seconds seconds = 0.0;      ///< wall-clock time elapsed
    std::uint64_t ops_retired = 0;
    std::array<std::uint64_t, kNumOpKinds> ops_by_kind{};
    std::uint64_t l1_hits = 0;     ///< mirror of the per-L1 counters
    std::uint64_t l1_misses = 0;   ///< (refreshed at sample boundaries)
    std::uint64_t idle_cycles = 0;   ///< stall/sleep/idle core-cycles
    std::uint64_t sleep_cycles = 0;  ///< PAUSE-sleep subset
    std::uint64_t barrier_arrivals = 0;  ///< threads reaching a barrier
    Joules dynamic_energy = 0.0;
};

/**
 * Executes one ParallelProgram to completion.
 */
class Machine
{
  public:
    Machine(const MachineConfig &cfg, const ParallelProgram &program);

    /**
     * Observer invoked every sampling quantum with the wall-clock
     * span and the dynamic energy dissipated within it; may call the
     * control methods below.
     */
    using SampleHook =
        std::function<void(Machine &, Seconds dt, Joules energy)>;

    /** Install the per-quantum observer. */
    void setSampleHook(SampleHook hook, Cycles quantum = 1000);

    /** Run until the program completes (or abort()/suspend() fires). */
    void run();

    /**
     * Preemption (Scenario engine): request, from inside the sample
     * hook, that run() return at the current sample boundary instead
     * of continuing. The machine object itself is the checkpoint —
     * per-core progress, op-stream cursors, and L1/L2/directory
     * contents stay live — and at a sample boundary every deferred
     * stride run is committed and every energy tally priced, so
     * resume() continues bit-identically to an uninterrupted run.
     * A suspended machine is also a valid warmStartFrom() source (an
     * aborted task's caches can seed its re-run).
     */
    void suspend() { suspend_pending = true; }

    /** True when the last run() returned because of suspend(). */
    bool suspended() const { return was_suspended; }

    /**
     * Continue a suspended run (bit-identical to never pausing).
     * The sample hook installed for the interrupted run may have
     * captured state that died with it (pumpTaskSlice clears the
     * hook on suspension for exactly that reason) — re-install the
     * hook before resuming, or resume through pumpTaskSlice, which
     * always does.
     */
    void resume();

    /**
     * Warm re-activation (Scenario engine): adopt the L1 and L2/
     * directory contents of @p prev, a machine that finished an
     * earlier task on the same cache geometry, instead of starting
     * cold. Cores beyond this machine's width are dropped from the
     * adopted directory (their lines recalled into the L2) so the
     * directory exactly matches the adopted L1 set; cores this
     * machine has beyond @p prev's width simply start with empty
     * L1s. Event counters and energy accounting start fresh — only
     * contents and recency carry over. Must be called before run();
     * @p prev is left in a drained state and must not be run again.
     */
    void warmStartFrom(Machine &prev);

    /** True once every phase has finished. */
    bool finished() const;

    /** Stop at the end of the current cycle (governor emergency). */
    void abort() { aborted = true; }

    // --- Control surface used by the sprint runtime (Section 7) ---

    /** Migrate every thread to core 0 and power down other cores. */
    void consolidateToSingleCore();

    /** Hardware frequency throttle (voltage tracks frequency). */
    void setFrequencyMult(double mult);

    /** Swap the energy model (DVFS boost entry/exit re-prices ops). */
    void setEnergyModel(const InstructionEnergyModel &model);

    /** Number of currently active cores. */
    int activeCores() const { return active_cores; }

    // --- Introspection ---

    const MachineStats &stats() const { return totals; }
    const L2Stats &l2Stats() const { return l2->stats(); }
    const MemoryStats &memoryStats() const { return memory->stats(); }
    const MachineConfig &config() const { return cfg; }

    /** Event counters of core @p core's private L1. */
    const CacheStats &l1Stats(int core) const
    {
        return l1s[static_cast<std::size_t>(core)].stats();
    }

    /**
     * The machine's DRAM model; test hook for inspecting channel
     * occupancy around warmStartFrom's adoptChannelState carry.
     */
    const MemorySystem &memorySystem() const { return *memory; }

    /** Wall-clock time simulated so far. */
    Seconds simTime() const;

  private:
    friend struct CheckpointIO;

    /** Per-thread op window refilled in bulk from the task stream. */
    static constexpr std::size_t kOpBufferCap = 1024;

    /** Sanity bound on lock ids (locks are resized on demand). */
    static constexpr std::uint64_t kMaxLockId = 1 << 20;

    /** "No pending wake-up" sentinel for next-event times. */
    static constexpr Cycles kNever = ~Cycles(0);

    /** "No memory op yet" sentinel for the stride probe's lines. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t(0);

    struct Thread
    {
        std::size_t id = 0;
        std::unique_ptr<OpStream> stream;  ///< current task
        bool at_barrier = false;
        Cycles sleep_until = 0;
        int spin_failures = 0;
        // Static-partition bookkeeping for the current phase.
        std::size_t next_task = 0;
        std::size_t task_end = 0;
        // Task index the current stream was materialized from
        // (meaningful while stream != nullptr); lets a checkpoint
        // recreate the stream via the phase's make_task factory.
        std::size_t current_task = 0;
        // Bulk-fetched op window (ops[buf_pos, buf_len) are pending).
        std::vector<MicroOp> buf;
        std::size_t buf_pos = 0;
        std::size_t buf_len = 0;
    };

    struct Core
    {
        int id = 0;
        bool active = true;
        std::vector<std::size_t> run_queue;
        std::size_t rr = 0;           ///< round-robin cursor
        int current = -1;             ///< running thread (-1: none)
        Cycles busy_until = 0;
        Cycles quantum_end = 0;
        // Lazy idle accounting: while idle_repeat is set, the
        // reference loop would have idle-ticked this core on every
        // cycle in [idle_from, now); the gap is charged in one piece
        // when the core is next processed (or settled at a sample
        // boundary / end of run).
        bool idle_repeat = false;
        Cycles idle_from = 0;
        // Cached stride probe: the next probe_local ops of the
        // current thread's buffer are verified local (one-cycle, own
        // L1 only); probe_blocked marks the op after them as a
        // verified stride blocker (global op or buffer end). Cleared
        // whenever this core ticks or its L1 is externally mutated.
        // probe_counts aggregates the probed ops per kind.
        // probe_mem[probe_mem_pos, probe_mem_len) queues one hit entry
        // (set << 4 | way) per change of line among the probed memory
        // ops: an op on the line of the memory op before it finds
        // that way MRU already, so replaying it only counts a hit.
        // A full-run commit therefore applies the counts wholesale
        // and replays the entries without re-walking the ops; a
        // partial commit re-walks its prefix and consumes an entry at
        // each line change. probe_line and commit_line hold the line
        // of the last probed and the last committed memory op
        // (kNoLine after a reset, which clears both with the probe),
        // so the two walks see the same line changes. probe_mem is
        // sized once to the op window; the probe writes it through a
        // cursor.
        std::uint32_t probe_local = 0;
        bool probe_blocked = false;
        std::array<std::uint32_t, kNumOpKinds> probe_counts{};
        std::vector<std::uint32_t> probe_mem;
        std::uint32_t probe_mem_pos = 0;
        std::uint32_t probe_mem_len = 0;
        std::uint64_t probe_line = kNoLine;
        std::uint64_t commit_line = kNoLine;
    };

    struct LockState
    {
        int holder = -1;
    };

    /**
     * Integer event counts accumulated since the last energy flush;
     * priced against the (possibly swapped) energy model at sample
     * boundaries and at the end of the run, in a fixed order, so both
     * scheduler loops produce bit-identical dynamic energy.
     */
    struct EnergyTally
    {
        std::array<std::uint64_t, kNumOpKinds> ops{};
        std::uint64_t idle_ticks = 0;
        std::uint64_t l2_accesses = 0;
        std::uint64_t dram_accesses = 0;
    };

    void enterPhase(std::size_t index);
    bool acquireNextTask(Thread &thread, Cycles now);
    bool threadRunnable(const Thread &thread, Cycles now) const;
    bool refillOps(Thread &thread);
    void tickCore(Core &core, Cycles now);
    bool streamCapable(const Core &core, Cycles now) const;
    // Out of line on purpose: most dispatch scans are served by the
    // cached reach, and with the probe inlined into the scan loop
    // (its only caller) csbench's sprint-train ran ~6% slower (GCC 12
    // -O3 + LTO, 4-thread Xeon).
    [[gnu::noinline]] void probeLocalRun(Core &core, const Thread &thread,
                                         Cycles cap);
    void resetProbe(Core &core);
    void commitRun(Core &core, Cycles from, Cycles k);
    void precommitL1Targets(std::uint64_t line, bool write,
                            int requester, Cycles now);
    Cycles coreWake(const Core &core, Cycles now) const;
    void settleIdle(Core &core, Cycles upto);
    void executeOp(Core &core, Thread &thread, const MicroOp &op,
                   Cycles now);
    Cycles memoryAccess(Core &core, bool write, std::uint64_t addr,
                        Cycles now);
    void maybeAdvanceBarrier();
    void chargeOp(OpKind kind) { ++tally.ops[opKindIndex(kind)]; }
    void chargeIdle(Cycles n)
    {
        totals.idle_cycles += n;
        tally.idle_ticks += n;
    }
    void flushEnergy();
    void syncCacheTotals();
    void fireSampleHook();
    void resetNextEvents();
    void runEventLoop();
    void runReference();
    void finishRun();

    MachineConfig cfg;
    const ParallelProgram &program;

    std::unique_ptr<MemorySystem> memory;
    std::unique_ptr<SharedL2> l2;
    std::vector<Cache> l1s;  ///< indexed by core id
    std::vector<Core> cores;
    std::vector<Thread> threads;
    std::vector<LockState> locks;

    // Scratch core sets for the directory exchange (sized once for
    // num_cores so the hot path never allocates).
    CoreSet peek_targets;
    CoreSet l1_mutated;

    std::size_t phase_idx = 0;
    std::size_t serial_next_task = 0;   ///< serial-phase task cursor
    std::size_t dynamic_next_task = 0;  ///< dynamic-phase shared counter
    Cycles dequeue_free_at = 0;         ///< dynamic-dequeue lock horizon
    std::size_t barrier_count = 0;
    int active_cores = 0;
    bool events_dirty = false;  ///< a hook rewired cores mid-run
    unsigned line_shift = 6;            ///< log2(cfg.line_bytes)

    /**
     * Per-core next-event time (kNever for inactive cores), kept as a
     * flat array so the event loop's due/minimum scans touch two cache
     * lines instead of every Core struct.
     */
    std::vector<Cycles> next_event;

    /**
     * Flat mirrors for the dispatch scan's fast path. reach[c] =
     * next_event[c] + the core's cached verified-local run (commits
     * advance both ends equally, so it is invariant under commits and
     * refreshed only by probes, ticks, and resets); reach[c] >
     * next_event[c] implies the core is still stream-capable, because
     * every state change that could end streaming goes through a tick
     * or a reset, which collapse reach back to next_event. qend[c] is
     * the core's preemption point (kNever when not multiplexing).
     */
    std::vector<Cycles> reach;
    std::vector<Cycles> qend;
    void refreshScanCache(std::size_t c)
    {
        const Core &core = cores[c];
        reach[c] = next_event[c] + core.probe_local;
        qend[c] = core.run_queue.size() > 1 ? core.quantum_end : kNever;
    }

    Cycles cycle = 0;
    double freq_mult = 1.0;
    Seconds time_base = 0.0;   ///< wall time folded at freq changes
    Cycles cycle_base = 0;

    SampleHook hook;
    Cycles sample_quantum = 1000;
    Cycles next_sample_at = kNever;  ///< next boundary (kNever: no hook)
    Joules energy_at_last_sample = 0.0;

    MachineStats totals;
    EnergyTally tally;
    bool aborted = false;
    bool suspend_pending = false;  ///< suspend() called this run
    bool was_suspended = false;    ///< last run() exited via suspend()
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_MACHINE_HH
