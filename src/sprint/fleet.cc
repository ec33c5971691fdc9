#include "sprint/fleet.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/args.hh"
#include "common/blob.hh"
#include "common/rng.hh"
#include "sprint/checkpoint.hh"

namespace csprint {

namespace {

constexpr std::uint32_t kFleetSpecVersion = 2;

/**
 * Digest slot of the sealed spec FILE: the spec cannot seal itself
 * under its own digest (the reader does not know it yet), so the file
 * is sealed under this constant.
 */
constexpr std::uint32_t kFleetFileDigest = 0x464c5401u;

// --- Pipe frame protocol --------------------------------------------

constexpr std::uint32_t kFrameMagic = 0x52465343u; // "CSFR"
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;
constexpr std::size_t kFrameHeader = 16; ///< magic, type, length
constexpr std::size_t kFrameCrc = 4;

[[noreturn]] void
throwIo(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Io,
                          what + (errno != 0
                                      ? std::string(": ") +
                                            std::strerror(errno)
                                      : std::string()));
}

/** Worker-side: write @p n bytes fully; the parent's death ends us. */
void
writeAll(int fd, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t k = ::write(fd, p, n);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(21); // parent gone (EPIPE): nothing left to report to
        }
        p += k;
        n -= static_cast<std::size_t>(k);
    }
}

void
sendFrame(int fd, FleetFrameType type,
          const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame =
        encodeFleetFrame(type, payload.data(), payload.size());
    writeAll(fd, frame.data(), frame.size());
}

void
sendFrameU64s(int fd, FleetFrameType type,
              std::initializer_list<std::uint64_t> words)
{
    BlobWriter w;
    for (std::uint64_t v : words)
        w.u64(v);
    sendFrame(fd, type, w.buffer());
}

// --- Spec payload ---------------------------------------------------

/** The spec's fields in wire order, the body of the spec file. */
template <typename Ar>
void
transferSpecBody(Ar &a, Io<Ar, FleetSpec> spec)
{
    a.u64(spec.seed);
    a.narrowInt(spec.num_devices, "fleet spec: device count");
    if constexpr (Ar::kReading) {
        const int nd = spec.num_devices;
        if (nd < 1 || nd > (1 << 20))
            throw CheckpointError(CheckpointError::Kind::Corrupt,
                                  "fleet spec: device count " +
                                      std::to_string(nd) +
                                      " outside [1, 2^20]");
    }
    a.f64(spec.time_scale);
    a.f64(spec.thermal_limit);
    a.vec(spec.classes, 8 * 20, [](Ar &a2, auto &c) {
        a2.f64(c.weight);
        a2.narrowInt(c.cores, "fleet spec: cores");
        a2.f64(c.pcm_mass_lo);
        a2.f64(c.pcm_mass_hi);
        a2.f64(c.ambient_lo);
        a2.f64(c.ambient_hi);
        a2.template enumAs<std::int64_t>(c.policy,
                                         SprintPolicyKind::ModelPredictive,
                                         "fleet spec: policy kind");
        a2.f64(c.pacing_period);
        a2.f64(c.service_prior);
        a2.template enumAs<std::int64_t>(c.pattern,
                                         ArrivalPattern::BackToBack,
                                         "fleet spec: arrival pattern");
        a2.narrowInt(c.num_tasks, "fleet spec: task count");
        a2.f64(c.period);
        a2.narrowInt(c.burst_size, "fleet spec: burst size");
        a2.f64(c.burst_spacing);
        a2.vec(c.mix, 24, [](Ar &a3, auto &m) {
            a3.template enumAs<std::int64_t>(m.kernel, KernelId::Segment,
                                             "fleet spec: kernel");
            a3.template enumAs<std::int64_t>(m.size, InputSize::D,
                                             "fleet spec: size");
            a3.f64(m.weight);
        });
        a2.template enumAs<std::int64_t>(c.kernel, KernelId::Segment,
                                         "fleet spec: kernel");
        a2.template enumAs<std::int64_t>(c.size, InputSize::D,
                                         "fleet spec: size");
        a2.boolean(c.warm_caches);
        a2.f64(c.hi_priority_fraction);
        a2.f64(c.deadline_hi);
        a2.f64(c.deadline_lo);
        a2.f64(c.tail_rest);
    });
}

/** The spec file's payload: version, spec, fault plan, options. */
template <typename Ar>
void
transferSpecFile(Ar &a, Io<Ar, FleetSpec> spec, Io<Ar, FaultPlan> plan,
                 Io<Ar, FleetOptions> opts)
{
    std::uint32_t version = kFleetSpecVersion;
    a.u32(version);
    if constexpr (Ar::kReading) {
        if (version != kFleetSpecVersion)
            throw CheckpointError(CheckpointError::Kind::BadVersion,
                                  "fleet spec format version " +
                                      std::to_string(version) +
                                      " is not readable by this build");
    }
    transferSpecBody(a, spec);
    a.vec(plan.faults, 24, [](Ar &a2, auto &f) {
        a2.narrowInt(f.shard, "fleet spec: fault shard");
        a2.template enumAs<std::int64_t>(f.kind, FaultKind::CorruptPipe,
                                         "fleet spec: fault kind");
        a2.u64(f.at_seq);
    });
    a.u64(opts.checkpoint_every_tasks);
    a.boolean(opts.paranoia);
}

} // namespace

// --- Spec validation and sampling -----------------------------------

void
validateFleetSpec(const FleetSpec &spec)
{
    if (spec.num_devices < 1)
        throw std::invalid_argument("fleet needs at least one device");
    if (spec.classes.empty())
        throw std::invalid_argument(
            "fleet needs at least one device class");
    if (!(spec.time_scale > 0.0))
        throw std::invalid_argument("time_scale must be positive");
    double total = 0.0;
    for (const FleetDeviceClass &c : spec.classes) {
        if (!(c.weight > 0.0) || !std::isfinite(c.weight))
            throw std::invalid_argument(
                "device class weight must be positive and finite");
        if (c.cores < 1)
            throw std::invalid_argument(
                "device class needs at least one core");
        if (c.num_tasks < 1)
            throw std::invalid_argument(
                "device class needs at least one task");
        if (!(c.pcm_mass_lo >= 0.0) || c.pcm_mass_hi < c.pcm_mass_lo)
            throw std::invalid_argument(
                "device class PCM mass range is invalid");
        if (c.ambient_hi < c.ambient_lo)
            throw std::invalid_argument(
                "device class ambient range is invalid");
        if (c.pattern != ArrivalPattern::BackToBack && !(c.period > 0.0))
            throw std::invalid_argument(
                "device class period must be positive");
        if (c.burst_size < 1)
            throw std::invalid_argument(
                "device class burst size must be positive");
        for (const WorkloadMixEntry &m : c.mix)
            if (!(m.weight > 0.0))
                throw std::invalid_argument(
                    "workload mix weights must be positive");
        total += c.weight;
    }
    if (!(total > 0.0))
        throw std::invalid_argument(
            "device class weights must sum to a positive total");
}

ScenarioConfig
fleetDeviceConfig(const FleetSpec &spec, int device)
{
    validateFleetSpec(spec);
    if (device < 0 || device >= spec.num_devices)
        throw std::invalid_argument("device index out of range");

    // The per-device stream depends on (spec.seed, device) alone, so
    // any process rebuilds any device without coordination. The
    // SplitMix64 hop decorrelates adjacent device indices.
    SplitMix64 sm(spec.seed);
    const std::uint64_t fleet_stream = sm.next();
    Rng rng(fleet_stream ^
            (0x9e3779b97f4a7c15ULL *
             static_cast<std::uint64_t>(device + 1)));

    // Draw order is part of the format: class, PCM mass, ambient,
    // then the scenario seed.
    double total = 0.0;
    for (const FleetDeviceClass &c : spec.classes)
        total += c.weight;
    const double x = rng.uniform() * total;
    std::size_t pick = 0;
    double cum = 0.0;
    for (std::size_t i = 0; i < spec.classes.size(); ++i) {
        cum += spec.classes[i].weight;
        if (x < cum) {
            pick = i;
            break;
        }
        pick = i; // rounding tail lands on the last class
    }
    const FleetDeviceClass &cls = spec.classes[pick];
    const Grams pcm = rng.uniform(cls.pcm_mass_lo, cls.pcm_mass_hi);
    const Celsius ambient = rng.uniform(cls.ambient_lo, cls.ambient_hi);

    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(cls.cores, pcm,
                                                spec.time_scale);
    cfg.platform.package.ambient = ambient;
    cfg.policy.kind = cls.policy;
    cfg.policy.pacing_period = cls.pacing_period;
    cfg.policy.service_prior = cls.service_prior;
    cfg.pattern = cls.pattern;
    cfg.num_tasks = cls.num_tasks;
    cfg.period = cls.period;
    cfg.burst_size = cls.burst_size;
    cfg.burst_spacing = cls.burst_spacing;
    cfg.kernel = cls.kernel;
    cfg.size = cls.size;
    cfg.seed = rng.next();
    if (!cls.mix.empty())
        cfg.program_factory = makeWorkloadMixFactory(cls.mix);
    cfg.warm_caches = cls.warm_caches;
    cfg.hi_priority_fraction = cls.hi_priority_fraction;
    cfg.deadline_hi = cls.deadline_hi;
    cfg.deadline_lo = cls.deadline_lo;
    cfg.tail_rest = cls.tail_rest;
    // The fleet quantiles fold per-task response times; no fold reads
    // the timeline traces, so devices record none.
    cfg.keep_task_results = true;
    cfg.trace_mode = TraceMode::Off;
    return cfg;
}

Celsius
fleetDeviceThermalLimit(const FleetSpec &spec, const ScenarioConfig &cfg)
{
    if (spec.thermal_limit > 0.0)
        return spec.thermal_limit;
    return cfg.platform.package.t_junction_max;
}

std::vector<std::uint8_t>
serializeFleetSpec(const FleetSpec &spec, const FaultPlan &plan,
                   const FleetOptions &opts)
{
    BlobWriter w;
    transferSpecFile(w, spec, plan, opts);
    return BlobContainer::seal(kFleetFileDigest, w.take());
}

void
deserializeFleetSpec(const std::vector<std::uint8_t> &blob,
                     FleetSpec &spec, FaultPlan &plan,
                     FleetOptions &opts)
{
    BlobReader r = BlobContainer::open(blob, kFleetFileDigest);
    spec = FleetSpec();
    transferSpecFile(r, spec, plan, opts);
    r.expectEnd();
    validateFleetSpec(spec);
    if (opts.checkpoint_every_tasks == 0)
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "fleet spec: checkpoint cadence is zero");
}

// --- Pipe frames ----------------------------------------------------

std::vector<std::uint8_t>
encodeFleetFrame(FleetFrameType type, const std::uint8_t *payload,
                 std::size_t size)
{
    BlobWriter w;
    w.u32(kFrameMagic);
    w.u32(static_cast<std::uint32_t>(type));
    w.u64(size);
    w.bytes(payload, size);
    w.u32(crc32(w.buffer().data() + 4, kFrameHeader - 4 + size));
    return w.take();
}

void
FleetFrameReader::append(const std::uint8_t *bytes, std::size_t n)
{
    if (off_ > 0) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(off_));
        off_ = 0;
    }
    buf_.insert(buf_.end(), bytes, bytes + n);
}

FleetFrameReader::Status
FleetFrameReader::next(Frame &out)
{
    const std::size_t avail = buf_.size() - off_;
    if (avail < kFrameHeader)
        return Status::NeedMore;
    const std::uint8_t *head = buf_.data() + off_;
    BlobReader r(head, kFrameHeader);
    const std::uint32_t magic = r.u32();
    const std::uint32_t type = r.u32();
    const std::uint64_t len = r.u64();
    if (magic != kFrameMagic ||
        type < static_cast<std::uint32_t>(FleetFrameType::Hello) ||
        type > static_cast<std::uint32_t>(FleetFrameType::Error) ||
        len > kMaxFramePayload)
        return Status::Corrupt;
    const std::size_t body = static_cast<std::size_t>(len);
    if (avail < kFrameHeader + body + kFrameCrc)
        return Status::NeedMore;
    const std::uint32_t want =
        BlobReader(head + kFrameHeader + body, kFrameCrc).u32();
    if (crc32(head + 4, kFrameHeader - 4 + body) != want)
        return Status::Corrupt;
    out.type = static_cast<FleetFrameType>(type);
    out.payload = head + kFrameHeader;
    out.size = body;
    off_ += kFrameHeader + body + kFrameCrc;
    return Status::Ready;
}

void
FleetFrameReader::clear()
{
    buf_.clear();
    off_ = 0;
}

std::vector<std::pair<int, int>>
fleetShardRanges(int num_devices, int num_workers)
{
    if (num_devices < 1)
        throw std::invalid_argument("fleet needs at least one device");
    num_workers = std::max(1, std::min(num_workers, num_devices));
    std::vector<std::pair<int, int>> ranges;
    ranges.reserve(static_cast<std::size_t>(num_workers));
    const int base = num_devices / num_workers;
    const int extra = num_devices % num_workers;
    int begin = 0;
    for (int w = 0; w < num_workers; ++w) {
        const int len = base + (w < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + len);
        begin += len;
    }
    return ranges;
}

// --- Mergeable aggregates -------------------------------------------

void
FleetAggregates::foldDevice(const ScenarioResult &r, Celsius limit)
{
    devices += 1;
    add(r);
    melt_cycles += static_cast<std::uint64_t>(r.sprint_rest_cycles);
    if (r.peak_junction > limit)
        thermal_violations += 1;
    peak_melt = std::max(peak_melt, r.peak_melt_fraction);
    for (const ScenarioTaskResult &t : r.tasks) {
        response_p50.add(t.response);
        response_p95.add(t.response);
    }
}

void
FleetAggregates::foldDegradedDevice()
{
    devices += 1;
    degraded_devices += 1;
}

void
FleetAggregates::merge(const FleetAggregates &other)
{
    devices += other.devices;
    degraded_devices += other.degraded_devices;
    add(other);
    melt_cycles += other.melt_cycles;
    thermal_violations += other.thermal_violations;
    peak_melt = std::max(peak_melt, other.peak_melt);
    response_p50.merge(other.response_p50);
    response_p95.merge(other.response_p95);
}

double
FleetAggregates::deadlineSlo() const
{
    const std::uint64_t with = deadlines_met + deadlines_missed;
    if (with == 0)
        return 1.0;
    return static_cast<double>(deadlines_met) /
           static_cast<double>(with);
}

double
FleetAggregates::thermalViolationRate() const
{
    if (devices == 0)
        return 0.0;
    return static_cast<double>(thermal_violations) /
           static_cast<double>(devices);
}

std::string
firstDifference(const FleetAggregates &a, const FleetAggregates &b)
{
    FieldDiff d;
    d("devices", a.devices, b.devices);
    d("degraded_devices", a.degraded_devices, b.degraded_devices);
    a.compare(d, b);
    d("melt_cycles", a.melt_cycles, b.melt_cycles);
    d("thermal_violations", a.thermal_violations, b.thermal_violations);
    d("peak_melt", a.peak_melt, b.peak_melt);
    d("response_p50", a.response_p50, b.response_p50);
    d("response_p95", a.response_p95, b.response_p95);
    return d.first();
}

bool
FleetResult::allOk() const
{
    for (const FleetWorkerStats &w : workers)
        if (w.degraded)
            return false;
    return true;
}

std::string
firstDifference(const FleetResult &a, const FleetResult &b)
{
    std::string why = firstDifference(a.aggregates, b.aggregates);
    if (!why.empty())
        return why;
    if (a.devices.size() != b.devices.size())
        return "device count";
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
        if (a.devices[d].completed != b.devices[d].completed ||
            a.devices[d].checkpoint_digest !=
                b.devices[d].checkpoint_digest)
            return "device " + std::to_string(d) + " digest";
    }
    return "";
}

std::string
defaultFleetWorkerPath()
{
    if (const char *env = std::getenv("CSPRINT_FLEET_WORKER"))
        if (*env != '\0')
            return env;
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        const std::string self(exe);
        const std::size_t slash = self.find_last_of('/');
        if (slash != std::string::npos) {
            const std::string sibling =
                self.substr(0, slash + 1) + "csprint-fleet-worker";
            if (::access(sibling.c_str(), X_OK) == 0)
                return sibling;
        }
    }
    return "csprint-fleet-worker";
}

// --- Range reducer and in-process transport ------------------------

namespace {

/** Reject a run either transport cannot make progress on. */
void
validateFleetRun(const FleetSpec &spec, const FleetOptions &opts)
{
    validateFleetSpec(spec);
    if (opts.store_dir.empty())
        throw std::invalid_argument("FleetOptions::store_dir is required");
    if (opts.checkpoint_every_tasks == 0)
        throw std::invalid_argument(
            "FleetOptions::checkpoint_every_tasks must be >= 1");
    if (opts.max_retries < 0)
        throw std::invalid_argument(
            "FleetOptions::max_retries must be >= 0");
    if (!(opts.backoff_initial >= 0.0) ||
        !std::isfinite(opts.backoff_initial))
        throw std::invalid_argument(
            "FleetOptions::backoff_initial must be finite and >= 0");
    // A NaN deadline never expires, so a stalled worker would hang the
    // parent; a non-positive one kills every worker on its first poll.
    if (!(opts.watchdog_deadline > 0.0) ||
        !std::isfinite(opts.watchdog_deadline))
        throw std::invalid_argument(
            "FleetOptions::watchdog_deadline must be positive and finite");
}

/**
 * The fold of one shard range, shared by both transports. Each
 * device's final checkpoint bytes are decoded and finished the moment
 * they arrive, and only their digest stays per device. Devices fold in
 * device order; one decoded past a gap (an earlier device's bytes were
 * unreadable or not sent yet) is held until its turn. finish() folds
 * what is still held, counts the rest as degraded, and merges the
 * range into the fleet result.
 */
class RangeFold
{
  public:
    RangeFold(int begin, int end) : next_(begin)
    {
        stats.range_begin = begin;
        stats.range_end = end;
    }

    /** The range and its supervision tallies. */
    FleetWorkerStats stats;

    /** The first device not folded yet. */
    int next() const { return next_; }

    /** Every device of the range folded. */
    bool complete() const { return next_ == stats.range_end; }

    /**
     * Take device @p d's final checkpoint @p blob. A device already
     * received keeps its first copy (a respawned worker re-sends the
     * devices it finished). Returns false when @p blob is unreadable
     * or not final: the device counts as never received.
     */
    bool
    receive(const FleetSpec &spec, FleetResult &res, int d,
            const std::vector<std::uint8_t> &blob)
    {
        FleetDeviceOutcome &out = res.devices[static_cast<std::size_t>(d)];
        if (out.completed)
            return true;
        const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
        Held got;
        try {
            ScenarioCheckpoint ck = deserializeCheckpoint(cfg, blob);
            if (!ck.done)
                return false;
            got.result = finishScenario(cfg, std::move(ck));
        } catch (const CheckpointError &) {
            return false;
        }
        got.limit = fleetDeviceThermalLimit(spec, cfg);
        out.completed = true;
        out.checkpoint_digest = crc32(blob.data(), blob.size());
        ahead_.emplace(d, std::move(got));
        // Fold every device whose turn has come; each result is
        // dropped once folded.
        for (auto it = ahead_.find(next_); it != ahead_.end();
             it = ahead_.find(++next_)) {
            folded_.foldDevice(it->second.result, it->second.limit);
            ahead_.erase(it);
        }
        return true;
    }

    /**
     * Close the range: a degraded range still counts every device
     * whose final checkpoint arrived, in device order, and the rest
     * degrade, not drop. A complete range holds nothing, so both loops
     * are empty.
     */
    void
    finish(FleetResult &res)
    {
        for (const auto &entry : ahead_)
            folded_.foldDevice(entry.second.result, entry.second.limit);
        for (int d = next_ + static_cast<int>(ahead_.size());
             d < stats.range_end; ++d)
            folded_.foldDegradedDevice();
        res.aggregates.merge(folded_);
        res.workers.push_back(std::move(stats));
    }

  private:
    /** A finished device waiting for its turn in the fold. */
    struct Held
    {
        ScenarioResult result;
        Celsius limit = 0.0;
    };

    FleetAggregates folded_;
    int next_;
    std::map<int, Held> ahead_;
};

} // namespace

FleetResult
runFleetInProcess(const FleetSpec &spec, const FleetOptions &opts)
{
    validateFleetRun(spec, opts);
    CheckpointStore store(opts.store_dir);

    FleetResult res;
    res.devices.resize(static_cast<std::size_t>(spec.num_devices));
    for (const auto &[begin, end] :
         fleetShardRanges(spec.num_devices, opts.num_workers)) {
        RangeFold range(begin, end);
        try {
            for (int d = begin; d < end; ++d) {
                const std::vector<std::uint8_t> blob = runShardToCompletion(
                    fleetDeviceConfig(spec, d), d, store,
                    opts.checkpoint_every_tasks, opts.paranoia, nullptr,
                    nullptr, nullptr);
                if (!range.receive(spec, res, d, blob))
                    throw CheckpointError(
                        CheckpointError::Kind::Invariant,
                        "fleet device " + std::to_string(d) +
                            " ended on an unreadable checkpoint");
            }
        } catch (const std::exception &e) {
            // Nothing to respawn: the rest of the range degrades.
            range.stats.degraded = true;
            range.stats.last_error = e.what();
        }
        range.finish(res);
    }
    return res;
}

ScenarioResult
loadFleetDeviceResult(const FleetSpec &spec, const std::string &store_dir,
                      int device)
{
    const auto cands = CheckpointStore(store_dir).loadCandidates(device);
    if (cands.empty())
        throw CheckpointError(CheckpointError::Kind::Io,
                              "no checkpoint persisted for fleet device " +
                                  std::to_string(device) + " in " +
                                  store_dir);
    const ScenarioConfig cfg = fleetDeviceConfig(spec, device);
    ScenarioCheckpoint ck = deserializeCheckpoint(cfg, cands.front().blob);
    if (!ck.done)
        throw CheckpointError(CheckpointError::Kind::Io,
                              "fleet device " + std::to_string(device) +
                                  " has no final checkpoint in " +
                                  store_dir);
    return finishScenario(cfg, std::move(ck));
}

// --- Worker process (csprint-fleet-worker) --------------------------

namespace {

std::vector<bool>
parseFiredList(const std::string &csv, std::size_t num_faults)
{
    std::vector<bool> fired(num_faults, false);
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string tok = csv.substr(pos, comma - pos);
        if (!tok.empty()) {
            const unsigned long idx =
                std::strtoul(tok.c_str(), nullptr, 10);
            if (idx < num_faults)
                fired[idx] = true;
        }
        pos = comma + 1;
    }
    return fired;
}

[[noreturn]] void
workerStallForever()
{
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(3600));
}

} // namespace

int
fleetWorkerMain(int argc, char **argv)
{
    // The parent dying must surface as a write error, not SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    const ArgParser args(argc, argv,
                         {"spec", "store", "begin", "end", "fd",
                          "attempt", "fired"});
    const int out_fd = static_cast<int>(args.getInt("fd", 3));
    try {
        const std::string spec_path = args.get("spec", "");
        const std::string store_dir = args.get("store", "");
        const int begin = static_cast<int>(args.getInt("begin", 0));
        const int end = static_cast<int>(args.getInt("end", 0));
        const std::uint64_t attempt =
            static_cast<std::uint64_t>(args.getInt("attempt", 0));
        if (spec_path.empty() || store_dir.empty() || begin < 0 ||
            end <= begin)
            throw std::invalid_argument(
                "fleet worker: --spec/--store/--begin/--end required");

        FleetSpec spec;
        FaultPlan plan;
        FleetOptions wopts;
        std::vector<std::uint8_t> spec_blob;
        if (!readFileBytes(spec_path, spec_blob))
            throwIo("cannot read " + spec_path);
        deserializeFleetSpec(spec_blob, spec, plan, wopts);
        if (end > spec.num_devices)
            throw std::invalid_argument(
                "fleet worker: range exceeds the device count");
        std::vector<bool> fired =
            parseFiredList(args.get("fired", ""), plan.faults.size());

        sendFrameU64s(out_fd, FleetFrameType::Hello,
                      {static_cast<std::uint64_t>(begin),
                       static_cast<std::uint64_t>(end), attempt});

        CheckpointStore store(store_dir);
        for (int device = begin; device < end; ++device) {
            const ScenarioConfig cfg = fleetDeviceConfig(spec, device);
            const ShardBeatFn beat = [&] {
                sendFrameU64s(out_fd, FleetFrameType::Beat,
                              {static_cast<std::uint64_t>(device)});
            };
            const ShardPersistHook beforePersist =
                [&](std::uint64_t seq) {
                    const int i = plan.fireDue(fired, device, seq, true);
                    if (i < 0)
                        return;
                    sendFrameU64s(out_fd, FleetFrameType::FaultFired,
                                  {static_cast<std::uint64_t>(i)});
                    ::_exit(12); // died before the checkpoint landed
                };
            const ShardPersistHook afterPersist =
                [&](std::uint64_t seq) {
                    const int i = plan.fireDue(fired, device, seq, false);
                    if (i < 0)
                        return;
                    sendFrameU64s(out_fd, FleetFrameType::FaultFired,
                                  {static_cast<std::uint64_t>(i)});
                    switch (plan.faults[static_cast<std::size_t>(i)]
                                .kind) {
                    case FaultKind::BitFlip:
                        faultFlipBitInFile(
                            store.checkpointPath(device, seq));
                        ::_exit(13);
                    case FaultKind::Truncate:
                        faultTruncateFile(
                            store.checkpointPath(device, seq));
                        ::_exit(13);
                    case FaultKind::WorkerException: {
                        const std::string msg =
                            "injected worker exception";
                        sendFrame(out_fd, FleetFrameType::Error,
                                  {msg.begin(), msg.end()});
                        ::_exit(14);
                    }
                    case FaultKind::StallWorker:
                        workerStallForever();
                    case FaultKind::KillWorker:
                        ::kill(::getpid(), SIGKILL);
                        workerStallForever(); // unreachable
                    case FaultKind::CorruptPipe: {
                        const std::vector<std::uint8_t> junk(32, 0xa5);
                        writeAll(out_fd, junk.data(), junk.size());
                        ::_exit(15);
                    }
                    case FaultKind::CrashAtCheckpoint:
                        break; // fires before the persist, not here
                    }
                };

            const std::vector<std::uint8_t> final_blob =
                runShardToCompletion(cfg, device, store,
                                     wopts.checkpoint_every_tasks,
                                     wopts.paranoia, beat, beforePersist,
                                     afterPersist);

            BlobWriter payload;
            payload.u64(static_cast<std::uint64_t>(device));
            payload.bytes(final_blob.data(), final_blob.size());
            sendFrame(out_fd, FleetFrameType::DeviceDone, payload.buffer());
        }
        return 0;
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        sendFrame(out_fd, FleetFrameType::Error, {msg.begin(), msg.end()});
        return 3;
    }
}

// --- Multi-process transport ----------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerProc
{
    WorkerProc(int begin, int end) : range(begin, end) {}

    RangeFold range; ///< the range's fold and supervision tallies
    pid_t pid = -1;
    int fd = -1;
    FleetFrameReader frames;
    Clock::time_point last_frame;
    bool active = false;
    std::string attempt_error; ///< this attempt's Error frame, if any
};

} // namespace

FleetResult
runFleetMultiProcess(const FleetSpec &spec, const FleetOptions &opts,
                     const FaultPlan &plan)
{
    validateFleetRun(spec, opts);

    const std::string worker_path = opts.worker_path.empty()
                                        ? defaultFleetWorkerPath()
                                        : opts.worker_path;
    if (::access(worker_path.c_str(), X_OK) != 0)
        throw CheckpointError(
            CheckpointError::Kind::Io,
            "fleet worker binary not executable: " + worker_path +
                " (build csprint-fleet-worker or set "
                "CSPRINT_FLEET_WORKER)");

    std::error_code ec;
    std::filesystem::create_directories(opts.store_dir, ec);
    if (ec)
        throw CheckpointError(CheckpointError::Kind::Io,
                              "cannot create store directory " +
                                  opts.store_dir + ": " + ec.message());
    const std::string spec_path = opts.store_dir + "/fleet.spec";
    const std::vector<std::uint8_t> spec_blob =
        serializeFleetSpec(spec, plan, opts);
    writeFileAtomic(spec_path, spec_blob.data(), spec_blob.size());

    const auto ranges =
        fleetShardRanges(spec.num_devices, opts.num_workers);

    std::vector<bool> fired(plan.faults.size(), false);
    FleetResult res;
    res.devices.resize(static_cast<std::size_t>(spec.num_devices));

    std::vector<WorkerProc> procs;
    procs.reserve(ranges.size());
    for (const auto &[begin, end] : ranges)
        procs.emplace_back(begin, end);

    const auto firedCsv = [&]() {
        std::string csv;
        for (std::size_t i = 0; i < fired.size(); ++i) {
            if (!fired[i])
                continue;
            if (!csv.empty())
                csv += ',';
            csv += std::to_string(i);
        }
        return csv;
    };

    const auto spawn = [&](WorkerProc &p) {
        std::vector<std::string> sargs = {
            worker_path,
            "--spec", spec_path,
            "--store", opts.store_dir,
            "--begin", std::to_string(p.range.stats.range_begin),
            "--end", std::to_string(p.range.stats.range_end),
            "--fd", "3",
            "--attempt", std::to_string(p.range.stats.respawns),
        };
        const std::string csv = firedCsv();
        if (!csv.empty()) {
            sargs.push_back("--fired");
            sargs.push_back(csv);
        }

        int fds[2];
        if (::pipe(fds) != 0)
            throwIo("cannot create worker pipe");
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            throwIo("cannot fork fleet worker");
        }
        if (pid == 0) {
            // Move the read end off fd 3 first: pipe() hands out the
            // lowest free fds, and closing it after the dup2 below
            // would tear down the freshly-installed write end.
            if (fds[0] == 3) {
                fds[0] = ::dup(fds[0]);
                ::close(3);
            }
            ::dup2(fds[1], 3);
            if (fds[1] != 3)
                ::close(fds[1]);
            ::close(fds[0]);
            std::vector<char *> cargv;
            cargv.reserve(sargs.size() + 1);
            for (const std::string &s : sargs)
                cargv.push_back(const_cast<char *>(s.c_str()));
            cargv.push_back(nullptr);
            ::execv(worker_path.c_str(), cargv.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
        p.pid = pid;
        p.fd = fds[0];
        p.frames.clear();
        p.attempt_error.clear();
        p.active = true;
        p.last_frame = Clock::now();
    };

    const auto killAndReap = [](WorkerProc &p) {
        if (p.pid > 0) {
            ::kill(p.pid, SIGKILL);
            int st = 0;
            ::waitpid(p.pid, &st, 0);
            p.pid = -1;
        }
        if (p.fd >= 0) {
            ::close(p.fd);
            p.fd = -1;
        }
    };

    // Record the failure, then respawn the worker or degrade its range.
    const auto failProc = [&](WorkerProc &p, const std::string &why) {
        FleetWorkerStats &stats = p.range.stats;
        stats.last_error = why;
        killAndReap(p);
        if (stats.respawns >= opts.max_retries) {
            stats.degraded = true;
            p.active = false;
            return;
        }
        ++stats.respawns;
        const double s =
            retryBackoffSeconds(opts.backoff_initial, stats.respawns);
        if (s > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(s));
        spawn(p);
    };

    // Returns false when the frame stream is corrupt.
    const auto processFrames = [&](WorkerProc &p) -> bool {
        FleetFrameReader::Frame f;
        for (;;) {
            switch (p.frames.next(f)) {
            case FleetFrameReader::Status::NeedMore:
                return true;
            case FleetFrameReader::Status::Corrupt:
                return false;
            case FleetFrameReader::Status::Ready:
                break;
            }
            p.last_frame = Clock::now();
            BlobReader r(f.payload, f.size);
            switch (f.type) {
            case FleetFrameType::Hello:
            case FleetFrameType::Beat:
                break;
            case FleetFrameType::FaultFired: {
                if (f.size != 8)
                    return false;
                const std::uint64_t idx = r.u64();
                if (idx < fired.size())
                    fired[static_cast<std::size_t>(idx)] = true;
                break;
            }
            case FleetFrameType::DeviceDone: {
                if (f.size < 8)
                    return false;
                const std::uint64_t device = r.u64();
                const FleetWorkerStats &st = p.range.stats;
                if (device < static_cast<std::uint64_t>(st.range_begin) ||
                    device >= static_cast<std::uint64_t>(st.range_end))
                    return false;
                p.range.receive(spec, res, static_cast<int>(device),
                                {f.payload + 8, f.payload + f.size});
                break;
            }
            case FleetFrameType::Error:
                p.attempt_error.assign(f.payload, f.payload + f.size);
                break;
            }
        }
    };

    for (WorkerProc &p : procs)
        spawn(p);

    for (;;) {
        std::vector<pollfd> pfds;
        std::vector<std::size_t> owner;
        for (std::size_t i = 0; i < procs.size(); ++i) {
            if (!procs[i].active)
                continue;
            pfds.push_back({procs[i].fd, POLLIN, 0});
            owner.push_back(i);
        }
        if (pfds.empty())
            break;
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 5);

        for (std::size_t k = 0; k < pfds.size(); ++k) {
            WorkerProc &p = procs[owner[k]];
            if (!p.active)
                continue;
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            bool eof = false;
            for (;;) {
                std::uint8_t tmp[65536];
                const ssize_t n = ::read(p.fd, tmp, sizeof(tmp));
                if (n > 0) {
                    p.frames.append(tmp, static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0) {
                    eof = true;
                    break;
                }
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                eof = true;
                break;
            }
            if (!processFrames(p)) {
                failProc(p, "corrupt frame on the result pipe");
                continue;
            }
            if (!eof)
                continue;
            int st = 0;
            ::waitpid(p.pid, &st, 0);
            p.pid = -1;
            ::close(p.fd);
            p.fd = -1;
            const bool clean_exit = WIFEXITED(st) && WEXITSTATUS(st) == 0;
            if (clean_exit && p.range.complete()) {
                p.active = false;
            } else if (clean_exit) {
                failProc(p, "worker exited before delivering device " +
                                std::to_string(p.range.next()));
            } else if (WIFSIGNALED(st)) {
                failProc(p, std::string("worker killed by signal ") +
                                std::to_string(WTERMSIG(st)));
            } else {
                failProc(p,
                         std::string("worker exited with status ") +
                             std::to_string(WIFEXITED(st)
                                                ? WEXITSTATUS(st)
                                                : -1) +
                             (p.attempt_error.empty()
                                  ? std::string()
                                  : ": " + p.attempt_error));
            }
        }

        const Clock::time_point now = Clock::now();
        for (WorkerProc &p : procs) {
            if (!p.active)
                continue;
            const double idle =
                std::chrono::duration<double>(now - p.last_frame)
                    .count();
            if (idle > opts.watchdog_deadline)
                failProc(p, "watchdog: worker sent no frames for " +
                                std::to_string(idle) + " s");
        }
    }

    for (WorkerProc &p : procs)
        p.range.finish(res);
    return res;
}

} // namespace csprint
