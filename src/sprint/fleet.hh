/**
 * @file
 * Fleet-scale serving driver: sample a device population from a
 * FleetSpec (PCM provisioning, ambient, core count, workload mix, and
 * sprint policy drawn from seeded distributions), shard the devices
 * across worker processes, and reap per-device results over a
 * length-prefixed pipe protocol that reuses the portable checkpoint
 * byte format (sprint/checkpoint.hh) for all state in flight.
 *
 * Two transports run the same fleet:
 *
 *  - runFleetInProcess() runs every device on the caller's thread
 *    through the same shard core a worker runs (runShardToCompletion)
 *    — no processes, no faults, no retries, same shard ranges.
 *
 *  - runFleetMultiProcess() fork/execs one csprint-fleet-worker
 *    binary per shard range; it is the only transport that
 *    supervises. Each worker persists crash-safe checkpoints into a
 *    shared CheckpointStore directory, streams heartbeat frames and
 *    each device's final checkpoint to the parent over a pipe, and is
 *    supervised by a parent-side watchdog: a worker that ends under
 *    any FaultKind (sprint/supervisor.hh) — crashes, corrupts its
 *    newest checkpoint, fails, is SIGKILLed, stalls, or corrupts its
 *    pipe — is reaped and respawned with bounded exponential backoff,
 *    resuming every device in its range from the newest valid
 *    persisted checkpoint. The parent finishes and folds each device's
 *    final checkpoint as its frame arrives and keeps only its digest,
 *    never the blob or the result. A range is finished once its worker
 *    exits cleanly and every device in it has been folded; a worker
 *    that exits any other way is respawned. A range that exhausts its
 *    retries is degraded, not dropped: devices whose final checkpoints
 *    were already received still count, the rest are tallied as
 *    degraded devices.
 *
 * Determinism gates (tests/fleet_fault_test.cc, bench/fleet_report.cc,
 * bench/faultinject_report.cc): the multi-process run equals the
 * in-process run bit-for-bit on every shared aggregate field and
 * per-device checkpoint digest, and a run hit by any fault kind equals
 * the uninterrupted run bit-for-bit after recovery — under a rotating
 * seed.
 *
 * Both transports hand each device's final checkpoint bytes to one
 * range reducer: it decodes and finishes them, folds the range's
 * devices in device order into a FleetAggregates (counters, maxima,
 * and streaming P² response quantiles with a deterministic merge —
 * common/stats.hh), and merges ranges in range order. The transports
 * differ only in how the bytes reach it, so the bit-parity gate
 * compares transport, not reduction; tests/fleet_test.cc checks the
 * reducer itself against a fold of per-device runScenario results.
 * The merged quantiles depend on the worker count (ROADMAP, "Fleet
 * quantiles that do not depend on how the fleet is split").
 *
 * The parent's per-device state is O(1) in both transports: a
 * FleetDeviceOutcome is a completion flag and a digest. A device's
 * full ScenarioResult stays in the checkpoint store as its final
 * checkpoint; loadFleetDeviceResult() reads it back on demand.
 */

#ifndef CSPRINT_SPRINT_FLEET_HH
#define CSPRINT_SPRINT_FLEET_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"

namespace csprint {

/**
 * One device class of the fleet: the knob ranges a device of this
 * class draws its concrete configuration from. Scalar knobs are taken
 * verbatim; the [lo, hi] pairs are sampled uniformly per device.
 */
struct FleetDeviceClass
{
    /** Relative share of the population this class receives. */
    double weight = 1.0;

    int cores = 16;                 ///< sprint width (parallelSprint)
    Grams pcm_mass_lo = 0.0015;     ///< PCM provisioning range [g]
    Grams pcm_mass_hi = 0.0015;
    Celsius ambient_lo = 25.0;      ///< ambient temperature range
    Celsius ambient_hi = 25.0;

    SprintPolicyKind policy = SprintPolicyKind::GreedyActivity;
    Seconds pacing_period = 2.5e-3; ///< DutyCycle pacing budget
    Seconds service_prior = 0.0;    ///< Qos/ModelPredictive prior

    ArrivalPattern pattern = ArrivalPattern::Periodic;
    int num_tasks = 4;
    Seconds period = 2.5e-3;
    int burst_size = 2;
    Seconds burst_spacing = 0.0;

    /** Weighted workload mix; empty uses kernel/size below. */
    std::vector<WorkloadMixEntry> mix;
    KernelId kernel = KernelId::Sobel;
    InputSize size = InputSize::A;
    bool warm_caches = false;

    double hi_priority_fraction = 0.0;
    Seconds deadline_hi = 0.0;
    Seconds deadline_lo = 0.0;
    Seconds tail_rest = 0.0;
};

/** A seeded device population. */
struct FleetSpec
{
    std::uint64_t seed = 42;
    int num_devices = 64;
    std::vector<FleetDeviceClass> classes;
    double time_scale = kDefaultTimeScale;
    /**
     * Junction temperature above which a device counts as a thermal
     * violation in the fleet aggregates; 0 (the default) uses each
     * device's own package t_junction_max.
     */
    Celsius thermal_limit = 0.0;
};

/** Throw std::invalid_argument when @p spec is not runnable. */
void validateFleetSpec(const FleetSpec &spec);

/**
 * The concrete ScenarioConfig of device @p device of @p spec: class
 * choice and every sampled knob derive from (spec.seed, device) alone
 * through a SplitMix64-decorated per-device stream, so any process
 * can rebuild any device's configuration without coordination — this
 * is what lets a respawned worker resume a device it never saw.
 * keep_task_results is forced on (the fleet quantiles fold per-task
 * response times) and trace_mode off (no fold reads the timeline
 * traces, so device checkpoints carry none).
 */
ScenarioConfig fleetDeviceConfig(const FleetSpec &spec, int device);

/**
 * The thermal-violation threshold of device @p device: the spec's
 * thermal_limit when positive, else @p cfg's package t_junction_max.
 */
Celsius fleetDeviceThermalLimit(const FleetSpec &spec,
                                const ScenarioConfig &cfg);

/**
 * Contiguous device ranges [begin, end) for @p num_workers workers
 * over @p num_devices devices, balanced to within one device, in
 * device order. Workers are clamped to the device count so no range
 * is empty. Both transports use these exact ranges, so the range
 * merge order — and therefore the merged P² state — is identical.
 */
std::vector<std::pair<int, int>> fleetShardRanges(int num_devices,
                                                  int num_workers);

/**
 * Mergeable fleet-level aggregates: the devices' summed task tallies
 * (peak_junction is the fleet-wide maximum), fleet-only counters and
 * maxima, and streaming P² response quantiles. fold* on one range,
 * merge ranges in range order; counters and maxima merge exactly, the
 * quantile merge is deterministic (equal inputs and order give
 * bit-equal state) but not split-invariant: fleet_report --devices 64
 * reads p95 0.58, 1.31 and 2.32 ms at 1, 2 and 4 workers.
 */
struct FleetAggregates : TaskTallies<std::uint64_t>
{
    std::uint64_t devices = 0;          ///< devices folded (any fate)
    std::uint64_t degraded_devices = 0; ///< retries exhausted, no result
    std::uint64_t melt_cycles = 0;        ///< sprint/rest cycles summed
    std::uint64_t thermal_violations = 0; ///< devices over their limit
    double peak_melt = 0.0;        ///< largest PCM melt fraction seen

    P2Quantile response_p50{0.50};
    P2Quantile response_p95{0.95};

    /** Fold one completed device in (violation judged against @p limit). */
    void foldDevice(const ScenarioResult &r, Celsius limit);

    /** Count one device that exhausted its retries. */
    void foldDegradedDevice();

    /** Fold another range's aggregates in (deterministic). */
    void merge(const FleetAggregates &other);

    /** Deadline SLO: met / (met + missed); 1 when no deadlines. */
    double deadlineSlo() const;

    /** Devices over their thermal limit per device folded. */
    double thermalViolationRate() const;
};

/**
 * The first field in which @p a and @p b differ, bit for bit
 * (FieldDiff), P² state included; empty when identical.
 */
std::string firstDifference(const FleetAggregates &a,
                            const FleetAggregates &b);

/**
 * Knobs of a fleet run (either transport). store_dir is shared by all
 * workers. The supervision knobs — max_retries, backoff_initial and
 * watchdog_deadline — act on worker processes only: the in-process
 * transport neither retries nor watches.
 */
struct FleetOptions
{
    /**
     * Persist a checkpoint after every this many completed tasks.
     * Also the slice length handed to advanceScenario, so it bounds
     * both the work lost to a crash and the heartbeat period of a
     * worker process. Must be >= 1: a zero slice makes no progress.
     */
    std::uint64_t checkpoint_every_tasks = 4;

    /** Respawns allowed per worker range before it is degraded; >= 0. */
    int max_retries = 3;

    /**
     * Sleep before respawn r (r >= 1) is backoff_initial * 2^(r-1)
     * seconds (retryBackoffSeconds); finite and >= 0. Zero (the
     * default) respawns immediately — tests want no wall-clock
     * padding; production fleets want a real value.
     */
    double backoff_initial = 0.0;

    /** Directory the CheckpointStore persists under. Required. */
    std::string store_dir;

    /**
     * Run validateCheckpoint() on every checkpoint before persisting
     * it. Workers receive it in the spec file.
     */
    bool paranoia = false;

    /** Worker processes / shard ranges (clamped to the device count). */
    int num_workers = 2;

    /**
     * Seconds without a frame from a worker process before the parent
     * SIGKILLs and respawns it; positive and finite. Must comfortably
     * exceed the wall time of one checkpoint slice, since workers beat
     * only between slices.
     */
    double watchdog_deadline = 30.0;

    /**
     * Worker binary path. Empty resolves CSPRINT_FLEET_WORKER from
     * the environment, then csprint-fleet-worker next to the running
     * executable (the build tree layout).
     */
    std::string worker_path;
};

/**
 * What became of one device of a fleet run: a flag and a digest, so
 * the parent's memory does not grow with the device's results. The
 * device's result lives in the store (loadFleetDeviceResult).
 */
struct FleetDeviceOutcome
{
    /** Final checkpoint received (directly or via the store). */
    bool completed = false;

    /** CRC32 of the final persisted checkpoint blob; 0 when absent. */
    std::uint32_t checkpoint_digest = 0;
};
static_assert(sizeof(FleetDeviceOutcome) <= 16,
              "a fleet device outcome must stay O(1) in the parent");

/** Per-worker (per shard range) supervision tallies. */
struct FleetWorkerStats
{
    int range_begin = 0;
    int range_end = 0;
    int respawns = 0;    ///< worker process respawns (0 in-process)
    bool degraded = false; ///< gave up: unfinished devices degrade
    std::string last_error; ///< last failure reason, for diagnosis
};

/**
 * A fleet run: merged aggregates, one O(1) outcome per device (index
 * = device), and per-range supervision tallies.
 */
struct FleetResult
{
    FleetAggregates aggregates;
    std::vector<FleetDeviceOutcome> devices;
    std::vector<FleetWorkerStats> workers;

    /** True when no worker range is degraded. */
    bool allOk() const;
};

/**
 * The first difference between two fleet runs: an aggregate field
 * (FieldDiff), else the first device whose completion flag or
 * checkpoint digest differs; empty when the runs are bit-equal.
 * Supervision tallies are not compared.
 */
std::string firstDifference(const FleetResult &a, const FleetResult &b);

/**
 * Run @p spec's fleet inside this process, range by range and device
 * by device, persisting checkpoints into opts.store_dir as a worker
 * would and folding each device's final checkpoint bytes through the
 * same reducer as the multi-process transport. A device that throws
 * degrades its range: the failure is its last_error, and the range's
 * remaining devices count as degraded.
 */
FleetResult runFleetInProcess(const FleetSpec &spec,
                              const FleetOptions &opts);

/**
 * Run @p spec's fleet across worker processes (see the file comment
 * for the supervision semantics). @p plan's faults, of any kind, fire
 * one-shot inside the workers at their named checkpoints; fired
 * faults survive respawns (the parent passes the fired set back on
 * the respawn command line). Throws
 * CheckpointError with Kind::Io when the worker binary cannot be
 * found or spawned.
 */
FleetResult runFleetMultiProcess(const FleetSpec &spec,
                                 const FleetOptions &opts,
                                 const FaultPlan &plan = {});

/**
 * Device @p device's final ScenarioResult, read back from the fleet
 * store @p store_dir a run of @p spec wrote: its newest persisted
 * checkpoint, decoded under fleetDeviceConfig(spec, device) and
 * finished. Throws CheckpointError: the decoder's kind when that
 * checkpoint is unreadable, Kind::Io when the store holds none or
 * only a non-final one (the device never completed).
 */
ScenarioResult loadFleetDeviceResult(const FleetSpec &spec,
                                     const std::string &store_dir,
                                     int device);

/**
 * Entry point of the csprint-fleet-worker binary (tools/
 * fleet_worker.cc is just main() calling this): parse --spec/--store/
 * --begin/--end/--fd/--attempt/--fired, run the device range, stream
 * frames on the given descriptor. Exits the process directly on
 * injected faults; returns the process exit code otherwise.
 */
int fleetWorkerMain(int argc, char **argv);

/**
 * The worker binary the parent will exec when FleetOptions::
 * worker_path is empty: $CSPRINT_FLEET_WORKER, else
 * csprint-fleet-worker beside /proc/self/exe, else bare
 * "csprint-fleet-worker" (PATH).
 */
std::string defaultFleetWorkerPath();

// --- Wire/spec-file serialization (exposed for the worker + tests) --

/**
 * Serialize (spec, plan, worker-relevant options) into a sealed blob
 * — the spec file the parent writes into the store directory and
 * every worker reads back, so one byte stream is the single source
 * of truth for what the fleet runs.
 */
std::vector<std::uint8_t> serializeFleetSpec(const FleetSpec &spec,
                                             const FaultPlan &plan,
                                             const FleetOptions &opts);

/** Inverse of serializeFleetSpec; throws CheckpointError. */
void deserializeFleetSpec(const std::vector<std::uint8_t> &blob,
                          FleetSpec &spec, FaultPlan &plan,
                          FleetOptions &opts);

/** What a worker->parent pipe frame carries. */
enum class FleetFrameType : std::uint32_t
{
    Hello = 1,      ///< worker up: begin, end, attempt
    Beat = 2,       ///< heartbeat: device index
    FaultFired = 3, ///< one-shot fault index just fired
    DeviceDone = 4, ///< device index + final checkpoint blob
    Error = 5,      ///< human-readable failure message
};

/**
 * One worker->parent frame, all little-endian:
 *
 *   u32 magic ("CSFR")  u32 type  u64 payload length
 *   ...payload...       u32 CRC32 over type, length and payload
 *
 * The CRC covers the header too, so a torn or flipped frame is
 * rejected instead of desynchronizing the stream or changing type.
 */
std::vector<std::uint8_t> encodeFleetFrame(FleetFrameType type,
                                           const std::uint8_t *payload,
                                           std::size_t size);

/**
 * Incremental decoder of a worker's frame stream. append() the bytes
 * of each read, then call next() until it stops returning Ready. The
 * consumed prefix is dropped once per append(), not once per frame.
 */
class FleetFrameReader
{
  public:
    enum class Status
    {
        Ready,    ///< a whole, checksummed frame was decoded
        NeedMore, ///< the buffer ends inside a frame
        Corrupt,  ///< bad magic, type, length or CRC: drop the stream
    };

    /** A decoded frame; its payload lives until the next append(). */
    struct Frame
    {
        FleetFrameType type = FleetFrameType::Hello;
        const std::uint8_t *payload = nullptr;
        std::size_t size = 0;
    };

    void append(const std::uint8_t *bytes, std::size_t n);
    Status next(Frame &out);
    void clear();

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t off_ = 0; ///< bytes of buf_ already consumed
};

} // namespace csprint

#endif // CSPRINT_SPRINT_FLEET_HH
