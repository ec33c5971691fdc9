/**
 * @file
 * Portable scenario checkpoints: serialize a ScenarioCheckpoint —
 * including suspended mid-flight machines and the warm L1/L2 chain —
 * to the versioned, CRC32-framed byte format of common/blob.hh, and
 * load it back bit-exactly in another process. Closes the in-process
 * restriction the Scenario engine's checkpoint sharding used to have:
 * a shard can now crash, restart, and resume from its last persisted
 * checkpoint with aggregates and traces identical to an uninterrupted
 * run (gated per fault kind in tests/fleet_fault_test.cc).
 *
 * Every malformed input — truncation, bit rot, a checkpoint from a
 * different build or configuration — fails with a typed
 * CheckpointError instead of undefined behaviour. What cannot be
 * captured (a custom OpStream subclass, a machine not parked at a
 * sample boundary) fails the save with Kind::Unsupported.
 *
 * CheckpointStore adds persistence that survives process crashes:
 * checkpoints are written to a temporary file and atomically renamed,
 * with a manifest naming the last complete checkpoint and the previous
 * one retained as a fallback, so a crash mid-write never corrupts the
 * last good state.
 */

#ifndef CSPRINT_SPRINT_CHECKPOINT_HH
#define CSPRINT_SPRINT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/blob.hh"
#include "sprint/scenario.hh"

namespace csprint {

/**
 * CRC32 digest over a canonical dump of @p cfg's value fields (the
 * platform, policy parameters, arrival layout, and every knob that
 * shapes the trajectory). Deserialization rejects a blob whose digest
 * differs — a checkpoint is only valid against the configuration that
 * produced it. Callback members (program_factory, task_tuner,
 * policy_factory) contribute presence only: the engine requires them
 * to be pure functions, so equal configs with equal callbacks replay
 * identically. pipeline_build and the test knobs in
 * ScenarioConfig::debug do not alter the trajectory and are not
 * covered, so a checkpoint can move to a run with other settings of
 * them.
 */
std::uint32_t scenarioConfigDigest(const ScenarioConfig &cfg);

/**
 * Serialize @p ck (taken from beginScenario/advanceScenario under
 * @p cfg) into a framed blob. Suspended ready-queue machines and the
 * warm cache chain ride along. Throws CheckpointError with
 * Kind::Unsupported when the checkpoint holds state the format cannot
 * capture (a machine that is not suspended at a priced sample
 * boundary, or a custom OpStream type).
 */
std::vector<std::uint8_t>
serializeCheckpoint(const ScenarioConfig &cfg,
                    const ScenarioCheckpoint &ck);

/**
 * Reconstruct the checkpoint @p blob carries. The result continues
 * under advanceScenario bit-identically to the in-process original
 * (machines and trace channels are rebuilt from @p cfg, at the sizes
 * it fixes, and their state overwritten field for field). Throws
 * CheckpointError on any malformed input: wrong magic or version, a
 * digest from a different configuration, truncation, checksum
 * mismatch, or structurally inconsistent contents.
 */
ScenarioCheckpoint
deserializeCheckpoint(const ScenarioConfig &cfg,
                      const std::vector<std::uint8_t> &blob);

/**
 * The one field list of a P² estimator's state (the checkpoint's and
 * the fleet aggregates' layout: q as f64, n as u64, then the four
 * marker arrays). Reading throws CheckpointError (Corrupt) when the
 * blob's quantile differs from the one @p q was constructed with.
 */
template <typename Ar>
void transferQuantile(Ar &a, Io<Ar, P2Quantile> q);

/**
 * Paranoia-mode invariant sweep (FleetOptions::paranoia runs it
 * at every persisted checkpoint): all temperatures finite
 * and within physical bounds, melt fractions in [0, 1], energy and
 * time tallies non-negative and mutually consistent, and — for every
 * live machine in the checkpoint — the L2 directory consistent with
 * the L1 tag arrays (sharers hold the line, dirty owners hold it
 * dirty, inclusion holds). Throws CheckpointError with
 * Kind::Invariant and a message naming the failing quantity.
 */
void validateCheckpoint(const ScenarioConfig &cfg,
                        const ScenarioCheckpoint &ck);

/**
 * Atomic checkpoint persistence for one scenario batch. Each shard
 * owns a subdirectory, `dir/shardNNNN/`, holding its checkpoint files
 * (`<seq>.ck`, at most two after a save), a `manifest` naming the
 * newest complete one, and its writer `lock`. save() and
 * loadCandidates() list only that subdirectory, so their cost does
 * not grow with the number of shards in the store.
 *
 * save() writes the checkpoint to a temporary name and rename(2)s it
 * into place, publishes the manifest the same way, then prunes the
 * shard to the published checkpoint and its predecessor. A crash at
 * any instant leaves the last good state readable. Nothing is
 * fsynced: the store survives process death, not power loss.
 *
 * Single-writer contract: save() prunes, and pruning assumes no other
 * live writer is publishing the same shard — a respawned worker
 * racing a stalled-but-alive predecessor could otherwise prune the
 * other's newest checkpoint and then shadow it with older state. The
 * store ENFORCES the contract with a per-shard advisory lockfile
 * (flock, held from a shard's first save() until releaseShard(), the
 * store's destruction, or the owning process's death — including by
 * SIGKILL, which releases kernel flocks): a save() on a shard whose
 * lock another live store holds throws CheckpointError with Kind::Io
 * instead of touching the shard's files. Readers (loadCandidates)
 * never lock.
 */
class CheckpointStore
{
  public:
    /** Operate under @p dir (created on first save). */
    explicit CheckpointStore(std::string dir);

    /** Releases every held per-shard writer lock. */
    ~CheckpointStore();

    // The writer locks are tied to this instance's lifetime.
    CheckpointStore(const CheckpointStore &) = delete;
    CheckpointStore &operator=(const CheckpointStore &) = delete;

    /**
     * Persist @p blob as shard @p shard's checkpoint number @p seq,
     * then keep only it and the newest older checkpoint. Files
     * numbered above @p seq are stale state from before a restart and
     * are removed. Throws CheckpointError with Kind::Io on filesystem
     * failure.
     */
    void save(int shard, std::uint64_t seq,
              const std::vector<std::uint8_t> &blob);

    /**
     * Drop shard @p shard's writer lock (a no-op when not held). For a
     * writer that is done with the shard, so a store that works
     * through many shards holds a bounded number of descriptors.
     */
    void releaseShard(int shard);

    /** One recoverable checkpoint file's contents. */
    struct Candidate
    {
        std::uint64_t seq = 0;
        std::vector<std::uint8_t> blob;
    };

    /**
     * Shard @p shard's recoverable checkpoints, newest first: the
     * manifest-named file, then any retained predecessor. Unreadable
     * or missing files are skipped, never thrown — an empty result
     * means "start from the beginning".
     */
    std::vector<Candidate> loadCandidates(int shard) const;

    /** The directory this store operates under. */
    const std::string &dir() const { return dir_; }

    /**
     * The file a given (shard, seq) checkpoint is published under —
     * exposed so fault injection can corrupt persisted state exactly
     * where a real crash or bit rot would.
     */
    std::string checkpointPath(int shard, std::uint64_t seq) const;

    /** The manifest file naming shard @p shard's newest checkpoint. */
    std::string manifestPath(int shard) const;

    /** The advisory writer lockfile guarding shard @p shard. */
    std::string lockPath(int shard) const;

  private:
    /** Shard @p shard's subdirectory. */
    std::string shardDir(int shard) const;

    /**
     * Take (or verify we already hold) shard @p shard's writer lock,
     * creating the shard's subdirectory on first use. Throws
     * CheckpointError with Kind::Io when another live writer holds it.
     */
    void lockShardWriter(int shard);

    std::string dir_;
    std::unordered_map<int, int> writer_locks_; ///< shard -> lock fd
};

} // namespace csprint

#endif // CSPRINT_SPRINT_CHECKPOINT_HH
