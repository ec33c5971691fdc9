#include "sprint/supervisor.hh"

#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sprint/checkpoint.hh"

namespace csprint {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::CrashAtCheckpoint:
        return "crash-at-checkpoint";
    case FaultKind::BitFlip:
        return "bit-flip";
    case FaultKind::Truncate:
        return "truncate";
    case FaultKind::WorkerException:
        return "worker-exception";
    case FaultKind::KillWorker:
        return "kill-worker";
    case FaultKind::StallWorker:
        return "stall-worker";
    case FaultKind::CorruptPipe:
        return "corrupt-pipe";
    }
    return "unknown";
}

bool
faultKindIsProcessLevel(FaultKind kind)
{
    return kind == FaultKind::KillWorker ||
           kind == FaultKind::StallWorker ||
           kind == FaultKind::CorruptPipe;
}

FaultPlan
FaultPlan::randomized(std::uint64_t seed, int num_shards,
                      std::uint64_t max_seq)
{
    FaultPlan plan;
    Rng rng(seed ^ 0xfa017ull);
    if (max_seq == 0)
        max_seq = 1;
    for (int shard = 0; shard < num_shards; ++shard) {
        FaultSpec f;
        f.shard = shard;
        // The thread-transport kinds are the ones before KillWorker.
        f.kind = static_cast<FaultKind>(
            rng.next() % static_cast<std::uint64_t>(FaultKind::KillWorker));
        f.at_seq = 1 + rng.next() % max_seq;
        plan.faults.push_back(f);
    }
    return plan;
}

FaultPlan
FaultPlan::randomizedProcess(std::uint64_t seed, int num_shards,
                             std::uint64_t max_seq)
{
    // The process transport recovers from every kind; CorruptPipe is
    // the last.
    const std::uint64_t kinds =
        static_cast<std::uint64_t>(FaultKind::CorruptPipe) + 1;
    FaultPlan plan;
    Rng rng(seed ^ 0xf1ee7ull);
    if (max_seq == 0)
        max_seq = 1;
    for (int shard = 0; shard < num_shards; ++shard) {
        FaultSpec f;
        f.shard = shard;
        f.kind = static_cast<FaultKind>(rng.next() % kinds);
        f.at_seq = 1 + rng.next() % max_seq;
        plan.faults.push_back(f);
    }
    return plan;
}

int
FaultPlan::fireDue(std::vector<bool> &fired, int shard, std::uint64_t seq,
                   bool before_persist) const
{
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultSpec &f = faults[i];
        if (fired[i] || f.shard != shard || f.at_seq != seq ||
            (f.kind == FaultKind::CrashAtCheckpoint) != before_persist)
            continue;
        fired[i] = true;
        return static_cast<int>(i);
    }
    return -1;
}

double
retryBackoffSeconds(double backoff_initial, int attempt)
{
    if (backoff_initial <= 0.0 || attempt < 1)
        return 0.0;
    return backoff_initial * std::ldexp(1.0, attempt - 1);
}

bool
SupervisedBatchResult::allOk() const
{
    for (const ShardOutcome &s : shards) {
        if (s.degraded)
            return false;
    }
    return true;
}

void
faultFlipBitInFile(const std::string &path)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!f)
        return;
    f.seekg(0, std::ios::end);
    const std::streamoff len = f.tellg();
    if (len <= 0)
        return;
    const std::streamoff at = len / 2;
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(at);
    f.write(&byte, 1);
}

void
faultTruncateFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return;
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
}

ScenarioCheckpoint
runShardToCompletion(const ScenarioConfig &cfg, int shard,
                     CheckpointStore &store,
                     std::uint64_t checkpoint_every_tasks,
                     bool paranoia, const ShardBeatFn &beat,
                     const ShardPersistHook &beforePersist,
                     const ShardPersistHook &afterPersist,
                     ShardProgress &progress,
                     std::vector<std::uint8_t> *final_blob)
{
    SPRINT_ASSERT(checkpoint_every_tasks > 0,
                  "a zero checkpoint cadence never advances shard ", shard);
    // Recover from the newest checkpoint that deserializes cleanly;
    // corrupt or truncated candidates are rejected by their CRC /
    // structure checks and the retained predecessor is used instead.
    ScenarioCheckpoint ck;
    std::uint64_t seq = 0;
    bool recovered = false;
    for (CheckpointStore::Candidate &cand : store.loadCandidates(shard)) {
        try {
            ck = deserializeCheckpoint(cfg, cand.blob);
            seq = cand.seq;
            recovered = true;
            break;
        } catch (const CheckpointError &) {
            // fall through to the next (older) candidate
        }
    }
    if (recovered)
        ++progress.recoveries;
    else
        ck = beginScenario(cfg);

    // Monotonicity gates: a resumed trajectory must only move
    // forward. A violation means the serializer or the engine lost
    // state, and retrying would silently produce wrong numbers.
    double prev_now = ck.now;
    std::uint64_t prev_completed = ck.tasks_completed;
    double prev_energy = ck.total_energy;

    // A shard recovered at its final checkpoint (ck.done) still
    // re-persists nothing below; its final blob is the recovered
    // candidate's bytes re-serialized — bit-identical, since the
    // round-trip is (serialize ∘ deserialize)-exact.
    std::vector<std::uint8_t> last_blob;
    if (ck.done && final_blob)
        last_blob = serializeCheckpoint(cfg, ck);

    bool done = ck.done;
    while (!done) {
        if (beat)
            beat();
        done = advanceScenario(cfg, ck, checkpoint_every_tasks);
        if (beat)
            beat();

        if (ck.now < prev_now - 1e-12 ||
            ck.tasks_completed < prev_completed ||
            ck.total_energy < prev_energy - 1e-12)
            throw CheckpointError(
                CheckpointError::Kind::Invariant,
                "shard " + std::to_string(shard) +
                    " moved backwards across a checkpoint boundary");
        prev_now = ck.now;
        prev_completed = ck.tasks_completed;
        prev_energy = ck.total_energy;

        if (paranoia)
            validateCheckpoint(cfg, ck);
        std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);
        ++seq;

        if (beforePersist)
            beforePersist(seq);
        store.save(shard, seq, blob);
        ++progress.checkpoints_persisted;
        if (final_blob)
            last_blob = std::move(blob);
        if (afterPersist)
            afterPersist(seq);
    }
    // The shard is final and this writer never touches it again; its
    // lock fd would otherwise stay open for the store's lifetime.
    store.releaseShard(shard);
    if (final_blob)
        *final_blob = std::move(last_blob);
    return ck;
}

namespace {

/**
 * One attempt: the shared shard core with thread-level fault
 * injection wired into the hooks. Returns the finished result. Throws
 * on injected faults or genuine engine errors.
 */
ScenarioResult
shardAttempt(const ScenarioConfig &cfg, int shard,
             const SupervisorOptions &opts, const FaultPlan &plan,
             std::vector<bool> &fired, CheckpointStore &store,
             ShardOutcome &outcome)
{
    // An injected fault due at this checkpoint fires exactly once
    // across all attempts of the batch.
    auto beforePersist = [&](std::uint64_t seq) {
        if (plan.fireDue(fired, shard, seq, true) < 0)
            return;
        throw SimulatedCrash("injected crash before persisting "
                             "checkpoint " +
                             std::to_string(seq));
    };

    auto afterPersist = [&](std::uint64_t seq) {
        const int i = plan.fireDue(fired, shard, seq, false);
        if (i < 0)
            return;
        switch (plan.faults[static_cast<std::size_t>(i)].kind) {
        case FaultKind::BitFlip:
            faultFlipBitInFile(store.checkpointPath(shard, seq));
            throw SimulatedCrash("injected crash after bit-flip "
                                 "of checkpoint " +
                                 std::to_string(seq));
        case FaultKind::Truncate:
            faultTruncateFile(store.checkpointPath(shard, seq));
            throw SimulatedCrash("injected crash after "
                                 "truncation of checkpoint " +
                                 std::to_string(seq));
        case FaultKind::WorkerException:
            throw std::runtime_error("injected worker exception "
                                     "at checkpoint " +
                                     std::to_string(seq));
        default:
            break; // process-level kinds rejected at batch entry
        }
    };

    // Fold the attempt's tallies into the outcome whether it finishes
    // or dies mid-run — a crashed attempt's persisted checkpoints and
    // recovery still happened.
    ShardProgress progress;
    auto fold = [&]() {
        outcome.checkpoints_persisted += progress.checkpoints_persisted;
        outcome.recoveries += progress.recoveries;
    };
    try {
        ScenarioResult result = finishScenario(
            cfg, runShardToCompletion(
                     cfg, shard, store, opts.checkpoint_every_tasks,
                     opts.paranoia, nullptr, beforePersist, afterPersist,
                     progress));
        fold();
        return result;
    } catch (...) {
        fold();
        throw;
    }
}

} // namespace

SupervisedBatchResult
runSupervisedScenarioBatch(const std::vector<ScenarioConfig> &shards,
                           const SupervisorOptions &opts,
                           const FaultPlan &plan)
{
    if (opts.checkpoint_every_tasks == 0)
        throw std::invalid_argument(
            "SupervisorOptions::checkpoint_every_tasks must be >= 1");
    if (opts.store_dir.empty())
        throw CheckpointError(CheckpointError::Kind::Io,
                              "supervisor requires a checkpoint "
                              "store directory");
    for (const FaultSpec &f : plan.faults) {
        if (faultKindIsProcessLevel(f.kind))
            throw CheckpointError(
                CheckpointError::Kind::Unsupported,
                std::string("fault kind ") + faultKindName(f.kind) +
                    " needs the process transport "
                    "(runFleetMultiProcess), not the thread "
                    "supervisor");
    }
    CheckpointStore store(opts.store_dir);
    std::vector<bool> fired(plan.faults.size(), false);

    SupervisedBatchResult batch;
    batch.shards.resize(shards.size());
    for (std::size_t shard = 0; shard < shards.size(); ++shard) {
        const ScenarioConfig &cfg = shards[shard];
        ShardOutcome &outcome = batch.shards[shard];

        for (int attempt = 0; attempt <= opts.max_retries; ++attempt) {
            if (attempt > 0) {
                ++outcome.retries;
                const double s =
                    retryBackoffSeconds(opts.backoff_initial, attempt);
                if (s > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(s));
            }

            try {
                outcome.result =
                    shardAttempt(cfg, static_cast<int>(shard), opts, plan,
                                 fired, store, outcome);
                break;
            } catch (...) {
                outcome.error = std::current_exception();
            }
            if (attempt == opts.max_retries)
                outcome.degraded = true;
        }
    }
    return batch;
}

} // namespace csprint
