/**
 * @file
 * The shard core and the fault vocabulary of crash-safe fleet runs.
 *
 * runShardToCompletion() is the one loop every fleet transport runs
 * per device (sprint/fleet.hh): recover from the newest valid
 * checkpoint in a CheckpointStore (sprint/checkpoint.hh), advance in
 * checkpoint-sized slices, and persist every boundary. Supervision —
 * retries, backoff, the watchdog — lives in the fleet's multi-process
 * transport, whose parent respawns a worker that dies, stalls or
 * corrupts its pipe, resuming each device from persisted state.
 *
 * Determinism gate: because checkpoints capture the full trajectory
 * (thermal state, arrival RNG cursor, suspended machines, streaming
 * aggregates), a run that crashes and recovers any number of times
 * produces final checkpoints bit-identical to an uninterrupted run.
 * tests/fleet_fault_test.cc holds that gate per fault kind;
 * bench/faultinject_report.cc re-checks it in CI under a rotating
 * seed. tests/faultinject_test.cc checks that the shard core resumes
 * from the store rather than restarting.
 *
 * Fault injection is first-class and seed-deterministic: a FaultPlan
 * names, per shard, which checkpoint sequence number triggers which
 * FaultKind. Faults are one-shot — a respawn of the same shard does
 * not re-fire a fault that already fired — mirroring transient
 * real-world failures.
 */

#ifndef CSPRINT_SPRINT_SUPERVISOR_HH
#define CSPRINT_SPRINT_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sprint/scenario.hh"

namespace csprint {

class CheckpointStore;

/**
 * The failure modes a fleet worker can inject and its parent recovers
 * from (sprint/fleet.cc, the worker's persist hooks). Every kind ends
 * the worker process; the parent respawns it, and the respawn resumes
 * each device from the newest valid persisted checkpoint.
 */
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
     * The worker fails mid-run (a bug, a resource failure): it sends
     * an Error frame and exits non-zero.
     */
    WorkerException,

    /**
     * The worker process SIGKILLs itself right after persisting the
     * checkpoint — the real uncatchable kill, no destructors, no
     * flushes. The parent must reap it and respawn the shard range.
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

/** A deterministic set of one-shot faults for a fleet run. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    /**
     * A seed-derived plan that hits every shard in [0, num_shards)
     * with one fault of a seed-chosen kind (any of the seven) at a
     * seed-chosen checkpoint in [1, max_seq]. Equal seeds yield equal
     * plans.
     */
    static FaultPlan randomized(std::uint64_t seed, int num_shards,
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

// --- Shard core ----------------------------------------------------------
//
// A fleet worker and the in-process fleet transport run the same loop
// per shard: recover from the newest valid persisted checkpoint
// (corrupt candidates rejected by CRC, falling back to the retained
// predecessor), advance in checkpoint-sized slices, enforce the
// forward-motion invariants, and persist every boundary. The worker
// injects its heartbeat and its faults through the hooks.

/** Heartbeat hook (a fleet worker sends a Beat frame). */
using ShardBeatFn = std::function<void()>;

/**
 * Persistence hook, fired with the checkpoint sequence number either
 * immediately before or immediately after the store publishes it.
 * Fault injection lives here: corrupt the persisted file, then end
 * the process, or never return at all.
 */
using ShardPersistHook = std::function<void(std::uint64_t seq)>;

/**
 * One attempt at running shard @p shard of @p cfg to completion:
 * recover-or-begin, advance in @p checkpoint_every_tasks slices,
 * persist each boundary into @p store, and return the bytes of the
 * final (done) checkpoint — the exact bytes the store holds and a
 * fleet worker ships to its parent, so per-shard digests agree between
 * transports. A caller that wants the result decodes and finishes
 * them. @p beat is called around every slice; @p beforePersist /
 * @p afterPersist bracket every store publish (any may be null).
 * On completion it releases the shard's writer lock, so one store can
 * run any number of shards. Throws on hook-injected faults, violated
 * monotonicity invariants, or genuine engine errors.
 */
std::vector<std::uint8_t> runShardToCompletion(
    const ScenarioConfig &cfg, int shard, CheckpointStore &store,
    std::uint64_t checkpoint_every_tasks, bool paranoia,
    const ShardBeatFn &beat, const ShardPersistHook &beforePersist,
    const ShardPersistHook &afterPersist);

/** Sleep length before retry @p attempt (attempt >= 1): initial*2^(a-1). */
double retryBackoffSeconds(double backoff_initial, int attempt);

/** Flip one bit in the middle of @p path (injected bit rot). */
void faultFlipBitInFile(const std::string &path);

/** Cut @p path down to half its length (injected torn write). */
void faultTruncateFile(const std::string &path);

} // namespace csprint

#endif // CSPRINT_SPRINT_SUPERVISOR_HH
