/**
 * @file
 * Supervised execution of scenario shard batches on top of the
 * portable checkpoint layer (sprint/checkpoint.hh): each shard runs on
 * the caller's thread, persists a crash-safe checkpoint every few
 * tasks, and is restarted by a bounded-retry loop from its last valid
 * persisted checkpoint, with exponential backoff, when an attempt
 * throws. A shard that exhausts its retries is reported as degraded —
 * carrying the exception that killed it — instead of being silently
 * dropped.
 *
 * There is no watchdog here: a thread cannot be stopped from outside,
 * so an attempt that hangs hangs the batch. Stalls are recovered by
 * the process transport (sprint/fleet.hh), whose parent SIGKILLs a
 * worker that goes silent and respawns it.
 *
 * Determinism gate: because checkpoints capture the full trajectory
 * (thermal state, arrival RNG cursor, suspended machines, streaming
 * aggregates), a supervised run that crashes and recovers any number
 * of times produces final aggregates and traces bit-identical to an
 * uninterrupted run. tests/faultinject_test.cc holds that gate per
 * fault kind; bench/faultinject_report.cc re-checks it in CI under a
 * rotating seed.
 *
 * Fault injection is first-class and seed-deterministic: a FaultPlan
 * names, per shard, which checkpoint sequence number triggers which
 * FaultKind. Faults are one-shot — a retry of the same shard does not
 * re-fire a fault that already fired — mirroring transient real-world
 * failures.
 */

#ifndef CSPRINT_SPRINT_SUPERVISOR_HH
#define CSPRINT_SPRINT_SUPERVISOR_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sprint/scenario.hh"

namespace csprint {

class CheckpointStore;

/** The failure modes the supervisor can inject and recover from. */
enum class FaultKind
{
    /**
     * The worker dies immediately before persisting a checkpoint:
     * recovery resumes from the previous persisted one and replays
     * the lost slice.
     */
    CrashAtCheckpoint,

    /**
     * The checkpoint is persisted, one bit of the file is flipped
     * (bit rot / torn storage), and the worker dies: recovery must
     * reject the corrupt file via its CRC and fall back to the
     * retained predecessor.
     */
    BitFlip,

    /**
     * The persisted checkpoint loses its tail (partial write that
     * survived a rename-less filesystem): recovery must reject the
     * truncated file and fall back.
     */
    Truncate,

    /**
     * The worker throws a plain exception mid-run (a bug, a resource
     * failure): the supervisor retries from the last checkpoint.
     */
    WorkerException,

    // --- Process-level kinds (the fleet driver's transport, ---------
    // --- sprint/fleet.hh; Unsupported on the thread transport) ------

    /**
     * The worker process SIGKILLs itself right after persisting the
     * checkpoint — the real uncatchable kill, no destructors, no
     * flushes. The parent must reap it and respawn the shard range,
     * resuming from the newest valid persisted checkpoint.
     */
    KillWorker,

    /**
     * The worker process stops sending frames without dying: the
     * parent's watchdog must notice the silent pipe, SIGKILL the
     * process, and respawn it.
     */
    StallWorker,

    /**
     * The worker writes a garbage frame onto the result pipe (torn
     * protocol state): the parent must reject the frame by its
     * magic/CRC, kill the worker, and respawn it.
     */
    CorruptPipe,
};

/** Human-readable name of @p kind (for logs and reports). */
const char *faultKindName(FaultKind kind);

/** One injected fault: fires when @p shard persists checkpoint @p at_seq. */
struct FaultSpec
{
    int shard = 0;
    FaultKind kind = FaultKind::CrashAtCheckpoint;
    std::uint64_t at_seq = 1;
};

/** A deterministic set of one-shot faults for a supervised batch. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    /**
     * A seed-derived plan that hits every shard in [0, num_shards)
     * with one fault of a seed-chosen thread-transport kind (the four
     * before KillWorker) at a seed-chosen checkpoint in [1, max_seq].
     * Equal seeds yield equal plans.
     */
    static FaultPlan randomized(std::uint64_t seed, int num_shards,
                                std::uint64_t max_seq);

    /**
     * Like randomized(), but drawing from every kind including the
     * process-level faults (KillWorker / StallWorker / CorruptPipe) —
     * for the fleet driver's process transport, which recovers from
     * all of them.
     */
    static FaultPlan randomizedProcess(std::uint64_t seed,
                                       int num_shards,
                                       std::uint64_t max_seq);

    /**
     * Fire the fault due when @p shard persists checkpoint @p seq, on
     * the side of the persist @p before_persist names
     * (CrashAtCheckpoint fires before it, every other kind after): the
     * first such fault not yet set in @p fired (one flag per fault).
     * Sets its flag and returns its index; -1 when none is due.
     */
    int fireDue(std::vector<bool> &fired, int shard, std::uint64_t seq,
                bool before_persist) const;
};

/** True for the process-transport-only kinds (fleet driver faults). */
bool faultKindIsProcessLevel(FaultKind kind);

/** Thrown by an injected CrashAtCheckpoint/BitFlip/Truncate fault. */
struct SimulatedCrash : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

struct SupervisorOptions
{
    /**
     * Persist a checkpoint after every this many completed tasks.
     * Also the slice length handed to advanceScenario, so it bounds
     * both the work lost to a crash and the heartbeat period of a
     * fleet worker process. Must be >= 1: a zero slice makes no
     * progress.
     */
    std::uint64_t checkpoint_every_tasks = 4;

    /** Restarts allowed per shard before it is reported degraded. */
    int max_retries = 3;

    /**
     * Sleep before retry r (r >= 1) is backoff_initial * 2^(r-1)
     * seconds (retryBackoffSeconds). Zero
     * (the default) retries immediately — tests want no wall-clock
     * padding; production batches want a real value.
     */
    double backoff_initial = 0.0;

    /** Directory the CheckpointStore persists under. Required. */
    std::string store_dir;

    /**
     * Run validateCheckpoint() on every checkpoint before persisting
     * it. Fleet workers receive it in the spec file.
     */
    bool paranoia = false;
};

/** What became of one shard of a supervised batch. */
struct ShardOutcome
{
    /** The shard's final result; meaningful only when !degraded. */
    ScenarioResult result;

    /** True when the shard exhausted its retries without finishing. */
    bool degraded = false;

    /** Worker restarts this shard consumed. */
    int retries = 0;

    /** Checkpoints persisted across all attempts. */
    std::uint64_t checkpoints_persisted = 0;

    /** Attempts that resumed from a stored checkpoint (vs. fresh). */
    std::uint64_t recoveries = 0;

    /**
     * The exception that ended the last attempt; set when degraded,
     * and also kept (for diagnosis) when a retry eventually
     * succeeded after failures.
     */
    std::exception_ptr error;
};

struct SupervisedBatchResult
{
    std::vector<ShardOutcome> shards;

    /** True when no shard is degraded. */
    bool allOk() const;
};

// --- Shared shard-attempt core ------------------------------------------
//
// Both supervision transports — the thread supervisor below and the
// multi-process fleet driver (sprint/fleet.hh) — run the same loop per
// shard, and so does the unsupervised in-process fleet: recover from
// the newest valid persisted checkpoint (corrupt candidates rejected
// by CRC, falling back to the retained predecessor), advance in
// checkpoint-sized slices, enforce the forward-motion invariants, and
// persist every boundary. Only the transport differs (exceptions on
// the caller's thread vs. pipe frames + SIGKILL), so the core is
// shared and the transports inject their behaviour through the hooks.

/** Progress tallies one shard accumulates across attempts. */
struct ShardProgress
{
    std::uint64_t checkpoints_persisted = 0;
    std::uint64_t recoveries = 0;
};

/** Heartbeat hook (a fleet worker sends a Beat frame). */
using ShardBeatFn = std::function<void()>;

/**
 * Persistence hook, fired with the checkpoint sequence number either
 * immediately before or immediately after the store publishes it.
 * Fault injection lives here: throw to simulate a crash, corrupt the
 * persisted file first to simulate bit rot, or (process transport)
 * never return at all.
 */
using ShardPersistHook = std::function<void(std::uint64_t seq)>;

/**
 * One attempt at running shard @p shard of @p cfg to completion:
 * recover-or-begin, advance in @p checkpoint_every_tasks slices,
 * persist each boundary into @p store, and return the final (done)
 * checkpoint unfinished: a caller that wants the result runs
 * finishScenario (a fleet worker ships the bytes and its parent
 * finishes them). @p beat is called around every slice;
 * @p beforePersist / @p afterPersist bracket every store publish
 * (either may be null). On completion it releases the shard's writer
 * lock, so one store can run any number of shards.
 * When @p final_blob is non-null it receives the bytes of the final
 * persisted checkpoint — the exact bytes a parent process reaps over
 * the wire, so per-shard digests agree between transports. Throws on
 * hook-injected faults, violated monotonicity invariants, or genuine
 * engine errors.
 */
ScenarioCheckpoint runShardToCompletion(
    const ScenarioConfig &cfg, int shard, CheckpointStore &store,
    std::uint64_t checkpoint_every_tasks, bool paranoia,
    const ShardBeatFn &beat, const ShardPersistHook &beforePersist,
    const ShardPersistHook &afterPersist, ShardProgress &progress,
    std::vector<std::uint8_t> *final_blob = nullptr);

/** Sleep length before retry @p attempt (attempt >= 1): initial*2^(a-1). */
double retryBackoffSeconds(double backoff_initial, int attempt);

/** Flip one bit in the middle of @p path (injected bit rot). */
void faultFlipBitInFile(const std::string &path);

/** Cut @p path down to half its length (injected torn write). */
void faultTruncateFile(const std::string &path);

/**
 * Run every ScenarioConfig in @p shards to completion under
 * supervision: periodic crash-safe checkpoint persistence into
 * @p opts.store_dir, and up to @p opts.max_retries restarts per shard
 * from the last valid checkpoint after an attempt throws. @p plan's
 * faults fire deterministically (one-shot) at their named
 * checkpoints. Shards and their attempts run in order on the caller's
 * thread.
 *
 * Pre-existing checkpoints in the store are honoured: a batch that
 * was killed externally resumes where its shards left off. Throws
 * std::invalid_argument when opts.checkpoint_every_tasks is 0, and
 * CheckpointError with Kind::Unsupported when @p plan holds a
 * process-level kind.
 */
SupervisedBatchResult
runSupervisedScenarioBatch(const std::vector<ScenarioConfig> &shards,
                           const SupervisorOptions &opts,
                           const FaultPlan &plan = {});

} // namespace csprint

#endif // CSPRINT_SPRINT_SUPERVISOR_HH
