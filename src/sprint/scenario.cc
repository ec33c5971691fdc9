#include "sprint/scenario.hh"

#include <algorithm>
#include <cmath>
#include <future>

#include "common/logging.hh"

namespace csprint {

const char *
arrivalPatternName(ArrivalPattern pattern)
{
    switch (pattern) {
      case ArrivalPattern::Periodic:
        return "periodic";
      case ArrivalPattern::Bursty:
        return "bursty";
      case ArrivalPattern::Poisson:
        return "poisson";
      case ArrivalPattern::BackToBack:
        return "back-to-back";
    }
    SPRINT_PANIC("unknown arrival pattern");
}

const std::vector<ArrivalPattern> &
allArrivalPatterns()
{
    static const std::vector<ArrivalPattern> patterns = {
        ArrivalPattern::Periodic,
        ArrivalPattern::Bursty,
        ArrivalPattern::Poisson,
        ArrivalPattern::BackToBack,
    };
    return patterns;
}

namespace {

/** The timeline preconditions shared by every scenario entry point. */
void
validateScenarioConfig(const ScenarioConfig &cfg)
{
    SPRINT_ASSERT(cfg.num_tasks >= 1, "scenario needs at least one task");
    SPRINT_ASSERT(cfg.pattern == ArrivalPattern::BackToBack ||
                      cfg.period > 0.0,
                  "arrival pattern needs a positive period");
    SPRINT_ASSERT(cfg.burst_size >= 1, "bursts need at least one task");
    validateSurrogateParams(cfg.surrogate);
    // Admissibility contract (PERF.md, "Surrogate fidelity tier"):
    // warm caches couple a task's service time to its predecessor's
    // cache contents, which a bypassed pump cannot reproduce.
    SPRINT_ASSERT(cfg.surrogate.tier == FidelityTier::CycleAccurate ||
                      !cfg.warm_caches,
                  "surrogate tiers require cold caches");
}

} // namespace

ScenarioTask
nextArrival(const ScenarioConfig &cfg, ArrivalCursor &cursor)
{
    ScenarioTask task;
    task.kernel = cfg.kernel;
    task.size = cfg.size;
    task.seed = cfg.seed + cursor.index;
    const std::uint64_t i = cursor.index++;
    const std::uint64_t burst =
        static_cast<std::uint64_t>(cfg.burst_size);
    switch (cfg.pattern) {
      case ArrivalPattern::Periodic:
        task.arrival = static_cast<double>(i) * cfg.period;
        break;
      case ArrivalPattern::Bursty:
        task.arrival =
            static_cast<double>(i / burst) * cfg.period +
            static_cast<double>(i % burst) * cfg.burst_spacing;
        break;
      case ArrivalPattern::Poisson:
        // First arrival at t = 0; exponential gaps afterwards.
        // log1p keeps precision for small u, where log(1 - u) would
        // round 1 - u first; uniform() is [0, 1) but the u == 1.0
        // boundary is guarded anyway (it would make the gap infinite).
        if (i > 0) {
            double u = cursor.rng.uniform();
            if (u >= 1.0)
                u = std::nextafter(1.0, 0.0);
            cursor.poisson_clock += -std::log1p(-u) * cfg.period;
        }
        task.arrival = cursor.poisson_clock;
        break;
      case ArrivalPattern::BackToBack:
        task.arrival = 0.0;
        break;
    }
    if (cfg.hi_priority_fraction > 0.0) {
        // Per-task class draw: a hash of the task seed rather than the
        // arrival RNG, so the priority stream neither perturbs the
        // existing gap sequence nor needs checkpoint state.
        SplitMix64 h(task.seed ^ 0x7072696f72697479ULL); // "priority"
        const double u =
            static_cast<double>(h.next() >> 11) * 0x1.0p-53;
        task.priority = u < cfg.hi_priority_fraction ? 1 : 0;
    }
    task.deadline =
        task.priority > 0 ? cfg.deadline_hi : cfg.deadline_lo;
    if (cfg.task_tuner)
        cfg.task_tuner(task);
    return task;
}

std::vector<ScenarioTask>
buildArrivals(const ScenarioConfig &cfg)
{
    validateScenarioConfig(cfg);
    std::vector<ScenarioTask> tasks;
    tasks.reserve(static_cast<std::size_t>(cfg.num_tasks));
    ArrivalCursor cursor(cfg);
    for (int i = 0; i < cfg.num_tasks; ++i)
        tasks.push_back(nextArrival(cfg, cursor));
    return tasks;
}

std::function<ParallelProgram(const ScenarioTask &)>
makeWorkloadMixFactory(std::vector<WorkloadMixEntry> mix)
{
    SPRINT_ASSERT(!mix.empty(), "workload mix needs at least one entry");
    double total = 0.0;
    for (const WorkloadMixEntry &entry : mix) {
        SPRINT_ASSERT(entry.weight > 0.0,
                      "workload mix weights must be positive");
        total += entry.weight;
    }
    return [mix = std::move(mix), total](const ScenarioTask &task) {
        // Same idiom as the priority draw: a per-task hash keeps the
        // mix independent of delivery order and checkpoint-free.
        SplitMix64 h(task.seed ^ 0x776f726b6c6f6164ULL); // "workload"
        double u = static_cast<double>(h.next() >> 11) * 0x1.0p-53 *
                   total;
        std::size_t pick = 0;
        for (; pick + 1 < mix.size(); ++pick) {
            u -= mix[pick].weight;
            if (u < 0.0)
                break;
        }
        return buildKernelProgram(mix[pick].kernel, mix[pick].size,
                                  task.seed);
    };
}

void
MeltCycleCounter::add(double melt)
{
    if (!molten_ && melt >= kRise) {
        molten_ = true;
    } else if (molten_ && melt <= kFall) {
        molten_ = false;
        ++cycles_;
    }
}

void
ScenarioTraceSink::configure(TraceMode mode, std::size_t capacity)
{
    channels_.clear();
    if (mode == TraceMode::Off)
        return;
    channels_.assign(kChannels,
                     DecimatingTrace(mode == TraceMode::Full
                                         ? DecimatingTrace::kUnbounded
                                         : capacity));
}

void
ScenarioTraceSink::reserveMore(std::size_t n)
{
    for (DecimatingTrace &channel : channels_)
        channel.reserveMore(n);
}

void
ScenarioTraceSink::add(double t, double junction, double power,
                       double melt)
{
    const double v[kChannels] = {junction, power, melt};
    for (std::size_t c = 0; c < channels_.size(); ++c)
        channels_[c].add(t, v[c]);
}

void
ScenarioTraceSink::exportTo(ScenarioResult &out)
{
    TimeSeries *const traces[kChannels] = {
        &out.junction_trace, &out.power_trace, &out.melt_trace};
    for (std::size_t c = 0; c < channels_.size(); ++c)
        *traces[c] = channels_[c].take();
}

/** The platform with the sprint configuration withheld. */
SprintConfig
consolidatedPlatform(const SprintConfig &platform)
{
    SprintConfig cfg = platform;
    if (cfg.dvfs_boost != 1.0) {
        // Un-wire exactly what the dvfsSprint factory wired (and what
        // samplePump's StopSprint path restores): nominal frequency
        // and the nominal energy model. A non-boost custom energy
        // model is left alone.
        cfg.machine.freq_mult = 1.0;
        cfg.machine.energy = InstructionEnergyModel();
        cfg.dvfs_boost = 1.0;
    }
    cfg.sprint_cores = 1;
    cfg.num_threads = 1;
    cfg.activation_ramp = 0.0;  // nothing to power up
    cfg.machine.num_cores = 1;
    cfg.machine.num_threads = 1;
    return cfg;
}

ParallelProgram
buildTaskProgram(const ScenarioConfig &cfg, const ScenarioTask &task)
{
    return cfg.program_factory
               ? cfg.program_factory(task)
               : buildKernelProgram(task.kernel, task.size, task.seed);
}

namespace {

/** Trace samples recorded per idle gap between tasks. */
constexpr int kIdleTraceSamples = 64;

/** Endpoint tolerance of the quiescent idle path [°C]. */
constexpr Celsius kIdleTolerance = 0.01;

/**
 * Cool the package at zero die power, recording idle trace samples
 * and feeding the streaming aggregates. The idle model selects the
 * exact step() chunks or the quiescent super-stepper.
 */
void
coolPackage(MobilePackageModel &package, ScenarioCheckpoint &ck,
            const ScenarioConfig &cfg, Seconds from, Seconds duration)
{
    package.setDiePower(0.0);
    const int n = kIdleTraceSamples;
    const Seconds h = duration / n;
    const bool quiescent = cfg.idle_model == IdleModel::Quiescent;
    ck.traces.reserveMore(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (quiescent)
            package.stepQuiescent(h, kIdleTolerance);
        else
            package.step(h);
        const Seconds t = from + static_cast<double>(i + 1) * h;
        const double melt = package.meltFraction();
        ck.traces.add(t, package.junctionTemp(), 0.0, melt);
        ck.melt_cycles.add(melt);
        ck.peak_melt = std::max(ck.peak_melt, melt);
    }
}

/** Nearest-rank quantile of a sorted sample set. */
Seconds
sortedQuantile(const std::vector<Seconds> &sorted, double q)
{
    const std::size_t n = sorted.size();
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return sorted[std::min(n - 1, rank > 0 ? rank - 1 : 0)];
}

} // namespace

ScenarioCheckpoint
beginScenario(const ScenarioConfig &cfg)
{
    validateScenarioConfig(cfg);
    ScenarioCheckpoint ck;
    ck.arrivals = ArrivalCursor(cfg);
    ck.surrogate.seed(cfg.seed);
    ck.traces.configure(cfg.trace_mode, cfg.trace_capacity);
    if (cfg.keep_task_results)
        ck.tasks.reserve(static_cast<std::size_t>(cfg.num_tasks));

    MobilePackageModel package(cfg.platform.package);
    package.reset();
    ck.thermal = package.saveState();
    return ck;
}

namespace {

/**
 * The next undelivered arrival, generated lazily into the checkpoint
 * (the one-task lookahead is what lets the engine spot an arrival
 * landing mid-task); null once the timeline is exhausted.
 */
const ScenarioTask *
peekArrival(const ScenarioConfig &cfg, ScenarioCheckpoint &ck)
{
    if (!ck.have_peek) {
        if (ck.arrivals.index >=
            static_cast<std::uint64_t>(cfg.num_tasks))
            return nullptr;
        ck.peek = nextArrival(cfg, ck.arrivals);
        ck.have_peek = true;
    }
    return &ck.peek;
}

/** Consume the peeked arrival. */
ScenarioTask
takePeek(ScenarioCheckpoint &ck)
{
    ck.have_peek = false;
    return ck.peek;
}

/** Policy view of a not-yet-started task. */
TaskSnapshot
snapshotOfTask(const ScenarioTask &task)
{
    TaskSnapshot s;
    s.arrival = task.arrival;
    s.deadline = task.deadline > 0.0 ? task.arrival + task.deadline
                                     : kNoDeadline;
    s.priority = task.priority;
    return s;
}

/** Policy view of a (possibly in-flight) execution. */
TaskSnapshot
snapshotOf(const ScenarioTaskExecution &ex)
{
    TaskSnapshot s = snapshotOfTask(ex.task);
    s.started = ex.started;
    s.sprint_granted = ex.sprint_granted;
    if (ex.machine)
        s.service = ex.pump.ramp_time + ex.machine->simTime();
    return s;
}

std::unique_ptr<ScenarioTaskExecution>
makeExecution(const ScenarioTask &task)
{
    auto ex = std::make_unique<ScenarioTaskExecution>();
    ex->task = task;
    return ex;
}

/**
 * The engine's ready queue. Policies with the declared Urgency order
 * keep their entries in a binary heap over per-task dispatch keys, so
 * a large simultaneous arrival set dispatches in O(log n) instead of
 * materializing a TaskSnapshot per queued task on every dispatch. The
 * heap realizes exactly the generic scan's pick: the key orders by
 * (priority desc, absolute deadline asc, arrival asc) with the
 * insertion sequence as the final tie-break — the stable-first
 * semantics of the preemptive policies' pickUrgent. Fifo and Custom
 * policies keep insertion-ordered slots; a dispatch nulls its slot,
 * Fifo takes the first live one, and Custom keeps the generic
 * pickNext path over the live entries in insertion order.
 *
 * Storage follows the live entries, not the train length: the heap
 * holds exactly the live set, and the slots are compacted in order
 * once dispatched ones outnumber live ones (at most 2 x live +
 * kCompactMin slots, amortized O(1) per dispatch). Neither changes a
 * pick: compaction keeps insertion order, and the heap's sequence
 * numbers are never renumbered.
 */
class ReadyQueue
{
  public:
    ReadyQueue(DispatchOrder order,
               std::vector<std::unique_ptr<ScenarioTaskExecution>> from)
        : order_(order)
    {
        if (order_ == DispatchOrder::Urgency)
            heap_.reserve(from.size());
        else
            slots_.reserve(from.size());
        for (auto &ex : from)
            push(std::move(ex));
    }

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    void
    push(std::unique_ptr<ScenarioTaskExecution> ex)
    {
        if (order_ == DispatchOrder::Urgency) {
            const TaskSnapshot s = snapshotOfTask(ex->task);
            heap_.push_back(HeapEntry{s.deadline, s.arrival, s.priority,
                                      next_seq_++, std::move(ex)});
            std::push_heap(heap_.begin(), heap_.end(), dispatchesAfter);
        } else {
            slots_.push_back(std::move(ex));
        }
        ++live_;
    }

    /** The entry popOrdered() would dispatch (Fifo/Urgency only). */
    const ScenarioTaskExecution *
    peekOrdered() const
    {
        if (live_ == 0 || order_ == DispatchOrder::Custom)
            return nullptr;
        return order_ == DispatchOrder::Urgency
                   ? heap_.front().ex.get()
                   : slots_[firstLive()].get();
    }

    /** Dispatch under the declared static order (Fifo or Urgency). */
    std::unique_ptr<ScenarioTaskExecution>
    popOrdered()
    {
        --live_;
        if (order_ == DispatchOrder::Urgency) {
            std::pop_heap(heap_.begin(), heap_.end(), dispatchesAfter);
            std::unique_ptr<ScenarioTaskExecution> ex =
                std::move(heap_.back().ex);
            heap_.pop_back();
            return ex;
        }
        const std::size_t slot = firstLive();
        head_ = slot + 1;
        return takeSlot(slot);
    }

    /** Live entries, insertion order (the generic pickNext view). */
    template <typename Fn>
    void
    forEachLive(Fn &&fn) const
    {
        for (std::size_t slot = head_; slot < slots_.size(); ++slot) {
            if (slots_[slot])
                fn(*slots_[slot]);
        }
    }

    /** Dispatch the @p index-th live entry in insertion order. */
    std::unique_ptr<ScenarioTaskExecution>
    popAt(std::size_t index)
    {
        SPRINT_ASSERT(index < live_, "pickNext index out of range");
        for (std::size_t slot = head_; slot < slots_.size(); ++slot) {
            if (!slots_[slot])
                continue;
            if (index-- == 0) {
                --live_;
                return takeSlot(slot);
            }
        }
        SPRINT_PANIC("ready queue live count out of sync");
    }

    /** Compact into checkpoint form: live entries, insertion order. */
    std::vector<std::unique_ptr<ScenarioTaskExecution>>
    takeAll()
    {
        std::vector<std::unique_ptr<ScenarioTaskExecution>> out;
        out.reserve(live_);
        std::sort(heap_.begin(), heap_.end(),
                  [](const HeapEntry &a, const HeapEntry &b) {
                      return a.seq < b.seq;
                  });
        for (auto &e : heap_)
            out.push_back(std::move(e.ex));
        for (std::size_t slot = head_; slot < slots_.size(); ++slot) {
            if (slots_[slot])
                out.push_back(std::move(slots_[slot]));
        }
        slots_.clear();
        heap_.clear();
        live_ = 0;
        head_ = 0;
        return out;
    }

  private:
    /** Dispatched slots tolerated before compaction is considered. */
    static constexpr std::size_t kCompactMin = 64;

    struct HeapEntry
    {
        Seconds deadline;
        Seconds arrival;
        int priority;
        std::uint64_t seq; ///< insertion sequence (unique)
        std::unique_ptr<ScenarioTaskExecution> ex;
    };

    /**
     * Strict "a dispatches after b": std::push_heap keeps the
     * maximum at the front, so the front is the earliest dispatch.
     * Sequence numbers are unique, making the order total — the
     * heap's pick is deterministic and equals the stable scan's.
     */
    static bool
    dispatchesAfter(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.priority != b.priority)
            return a.priority < b.priority;
        if (a.deadline != b.deadline)
            return a.deadline > b.deadline;
        if (a.arrival != b.arrival)
            return a.arrival > b.arrival;
        return a.seq > b.seq;
    }

    /** First live slot (Fifo head, skipping dispatched entries). */
    std::size_t
    firstLive() const
    {
        std::size_t slot = head_;
        while (!slots_[slot])
            ++slot;
        return slot;
    }

    /**
     * Empty @p slot (live_ already decremented) and, once dispatched
     * slots outnumber live ones, slide the live entries down in
     * insertion order. Slots below head_ are all dispatched.
     */
    std::unique_ptr<ScenarioTaskExecution>
    takeSlot(std::size_t slot)
    {
        std::unique_ptr<ScenarioTaskExecution> ex =
            std::move(slots_[slot]);
        const std::size_t dispatched = slots_.size() - live_;
        if (dispatched >= kCompactMin && dispatched > live_) {
            std::size_t next = 0;
            for (std::size_t s = head_; s < slots_.size(); ++s) {
                if (slots_[s])
                    slots_[next++] = std::move(slots_[s]);
            }
            slots_.resize(next);
            head_ = 0;
        }
        return ex;
    }

    DispatchOrder order_;
    /// Fifo/Custom only
    std::vector<std::unique_ptr<ScenarioTaskExecution>> slots_;
    std::vector<HeapEntry> heap_; ///< Urgency only
    std::size_t live_ = 0;
    std::uint64_t next_seq_ = 0; ///< Urgency insertion sequence
    std::size_t head_ = 0;       ///< slots below are all dispatched
};

/** Tasks match on every field the program build can observe. */
bool
sameTask(const ScenarioTask &a, const ScenarioTask &b)
{
    return a.arrival == b.arrival && a.kernel == b.kernel &&
           a.size == b.size && a.seed == b.seed &&
           a.priority == b.priority && a.deadline == b.deadline;
}

/**
 * One program build in flight on a helper thread
 * (ScenarioConfig::pipeline_build): the predicted next task plus the
 * future of its build. The factory is pure, so a prebuilt program for
 * a matching task is the serial build; a misprediction is drained and
 * discarded.
 */
class ProgramPrebuilder
{
  public:
    explicit ProgramPrebuilder(const ScenarioConfig &cfg) : cfg(cfg) {}

    /** Drain any in-flight build before the futures dangle. */
    ~ProgramPrebuilder() { cancel(); }

    /** Start building @p task's program unless it is already queued. */
    void
    start(const ScenarioTask &task)
    {
        if (pending && sameTask(task_for, task))
            return;
        cancel();
        task_for = task;
        building = std::async(std::launch::async, [this] {
            return buildTaskProgram(cfg, task_for);
        });
        pending = true;
    }

    /**
     * The prebuilt program when it was built for exactly @p task
     * (blocking on the helper thread if the build is still running);
     * null on a misprediction or when nothing was prebuilt.
     */
    std::unique_ptr<ParallelProgram>
    take(const ScenarioTask &task)
    {
        if (!pending)
            return nullptr;
        pending = false;
        if (!sameTask(task_for, task)) {
            building.get(); // drain the mispredicted build
            return nullptr;
        }
        return std::make_unique<ParallelProgram>(building.get());
    }

  private:
    void
    cancel()
    {
        if (pending) {
            building.get();
            pending = false;
        }
    }

    const ScenarioConfig &cfg;
    ScenarioTask task_for;
    std::future<ParallelProgram> building;
    bool pending = false;
};

/** The scalar outcome of one completed task, pumped or predicted. */
struct TaskOutcome
{
    Seconds task_time = 0.0; ///< activation ramp + service
    Joules energy = 0.0;
    Seconds sprint_time = 0.0;
    Joules sprint_energy = 0.0;
    Celsius peak_junction = 0.0;
    bool sprint_exhausted = false;
    bool hardware_throttled = false;
};

/**
 * Fold one completed task into the streaming aggregates, the deadline
 * accounting and the policy's feedback: the one completion path of
 * the exact pump and the surrogate alike. Under keep_task_results it
 * appends the task's record and returns it for the caller to fill in
 * its RunResult; otherwise it returns null and nothing is allocated.
 */
ScenarioTaskResult *
completeTask(const ScenarioConfig &cfg, ScenarioCheckpoint &ck,
             const MobilePackageModel &package, SprintPolicy &policy,
             const ScenarioTaskExecution &ex, const TaskSnapshot &snap,
             const TaskOutcome &out)
{
    if (ex.sprint_granted && out.sprint_exhausted)
        ++ck.sprints_exhausted;
    if (out.hardware_throttled)
        ++ck.hardware_throttles;
    ck.total_energy += out.energy;
    ck.total_sprint_time += out.sprint_time;
    ck.total_sprint_energy += out.sprint_energy;
    ck.peak_junction = ck.tasks_completed == 0
                           ? out.peak_junction
                           : std::max(ck.peak_junction,
                                      out.peak_junction);
    const Seconds response = ck.now - ex.task.arrival;
    ck.p50.add(response);
    ck.p95.add(response);
    const bool met = ex.task.deadline <= 0.0 ||
                     ck.now <= ex.task.arrival + ex.task.deadline;
    if (ex.task.deadline > 0.0)
        ++(met ? ck.deadlines_met : ck.deadlines_missed);
    policy.onTaskComplete(snap, out.task_time);
    ++ck.tasks_completed;

    if (!cfg.keep_task_results)
        return nullptr;
    ScenarioTaskResult &tr = ck.tasks.emplace_back();
    tr.arrival = ex.task.arrival;
    tr.start = ex.first_start;
    tr.finish = ck.now;
    tr.response = response;
    tr.sprint_granted = ex.sprint_granted;
    tr.melt_at_start = ex.melt_at_start;
    tr.melt_at_end = package.meltFraction();
    tr.priority = ex.task.priority;
    tr.deadline = ex.task.deadline;
    tr.deadline_met = met;
    tr.preemptions = ex.preemptions;
    return &tr;
}

/**
 * Execute one dispatched task from its calibrated class prediction
 * instead of a machine pump (the surrogate fast path): pay the
 * activation ramp exactly as the exact path does, advance the package
 * through the predicted piecewise-constant heat profile — the
 * above-TDP sprint segment first, then the sustainable tail carrying
 * the remaining energy — and fold the predicted service and energy
 * into the same streaming aggregates, deadline accounting, and policy
 * feedback a pumped task feeds. The program and machine are never
 * built.
 */
void
runSurrogateTask(const ScenarioConfig &cfg, ScenarioCheckpoint &ck,
                 MobilePackageModel &package, SprintPolicy &policy,
                 ScenarioTaskExecution &ex,
                 const SurrogatePrediction &pred)
{
    // The (re-)activation ramp heats nothing (cores still gated).
    const Seconds ramp = ex.run_cfg.activation_ramp;
    package.setDiePower(0.0);
    package.step(ramp);
    ck.now += ramp;
    ck.busy += ramp;

    Celsius peak = package.junctionTemp();

    // The pump steps heat into the package in whole sample quanta
    // only: the final partial quantum of a run never fires the
    // machine's sample hook, so its time and energy never touch the
    // thermal model. The profile therefore spans the learned heat
    // envelope (heat_time/heat_energy), not the full service time.
    const Seconds service = pred.service;
    const Seconds heat_t = std::min(pred.heat_time, service);
    const Joules heat_e = std::min(pred.heat_energy, pred.energy);
    const Seconds sprint_t = std::min(pred.sprint_time, heat_t);
    const Seconds tail_t = heat_t - sprint_t;
    const Joules sprint_e = std::min(pred.sprint_energy, heat_e);
    const Joules tail_e = heat_e - sprint_e;

    struct Segment
    {
        Seconds dt;
        Watts power;
    };
    Segment segs[2];
    int nsegs = 0;
    if (sprint_t > 0.0)
        segs[nsegs++] = Segment{sprint_t, sprint_e / sprint_t};
    if (tail_t > 0.0)
        segs[nsegs++] = Segment{tail_t, tail_e / tail_t};

    Seconds t = ck.now;
    for (int s = 0; s < nsegs; ++s) {
        // Chunks split proportionally across the segments, at least
        // one each, so a short sprint still lands a trace sample.
        const int chunks = std::max(
            1, static_cast<int>(std::lround(
                   cfg.surrogate.profile_samples * segs[s].dt /
                   heat_t)));
        const Seconds h = segs[s].dt / chunks;
        ck.traces.reserveMore(static_cast<std::size_t>(chunks));
        for (int i = 0; i < chunks; ++i) {
            // Pre-advance state recorded at the post-increment time:
            // the exact pump's sample convention.
            t += h;
            const double melt = package.meltFraction();
            ck.traces.add(t, package.junctionTemp(), segs[s].power,
                          melt);
            ck.melt_cycles.add(melt);
            ck.peak_melt = std::max(ck.peak_melt, melt);
            package.setDiePower(segs[s].power);
            package.step(h);
            peak = std::max(peak, package.junctionTemp());
        }
    }
    // The unsampled residual advances the clock but — exactly like
    // the exact pump — never steps the package.
    t += service - heat_t;
    ck.busy += t - ck.now;
    ck.now = t;

    TaskOutcome out;
    out.task_time = ramp + service;
    out.energy = pred.energy;
    out.sprint_time = sprint_t;
    out.sprint_energy = sprint_e;
    out.peak_junction = peak;
    out.sprint_exhausted = pred.sprint_exhausted;
    out.hardware_throttled = pred.hardware_throttled;
    ScenarioTaskResult *tr = completeTask(cfg, ck, package, policy, ex,
                                          snapshotOf(ex), out);
    if (tr == nullptr)
        return;
    RunResult &run = tr->run;
    run.program_name = "surrogate";
    run.sprint_cores = ex.run_cfg.sprint_cores;
    run.num_threads = ex.run_cfg.num_threads;
    run.dvfs_boost = ex.run_cfg.dvfs_boost;
    run.task_time = out.task_time;
    run.dynamic_energy = out.energy;
    run.peak_junction = out.peak_junction;
    run.final_melt_fraction = tr->melt_at_end;
    run.sprint_exhausted = out.sprint_exhausted;
    run.hardware_throttled = out.hardware_throttled;
    run.sprint_duration = out.sprint_time;
    run.sprint_energy = out.sprint_energy;
    run.avg_power = service > 0.0 ? out.energy / service : 0.0;
}

} // namespace

bool
advanceScenario(const ScenarioConfig &cfg, ScenarioCheckpoint &ck,
                std::uint64_t max_tasks)
{
    if (ck.done || max_tasks == 0)
        return ck.done;

    const std::unique_ptr<SprintPolicy> policy =
        cfg.policy_factory ? cfg.policy_factory()
                           : makeSprintPolicy(cfg.policy);
    if (!ck.policy_state.empty())
        policy->restoreState(ck.policy_state);
    const SprintConfig denied_cfg = consolidatedPlatform(cfg.platform);
    // Queue-only policies keep the classic lazy flow: one arrival
    // materialized per dispatch, no mid-task delivery — so a
    // saturating back-to-back train holds at most one queued task
    // (see SprintPolicy::preemptive).
    const bool preemptive = policy->preemptive();
    // Admissibility contract (PERF.md, "Surrogate fidelity tier"):
    // preemption cuts tasks at sample boundaries a bypassed pump does
    // not have, and a suspended task's remaining work is not a class
    // property. This also guarantees every dispatched task completes
    // inside this advance call — no checkpoint boundary can cut an
    // audit in half.
    const bool surrogate_on =
        cfg.surrogate.tier != FidelityTier::CycleAccurate;
    SPRINT_ASSERT(!surrogate_on || !preemptive,
                  "surrogate tiers require a non-preemptive policy");

    // The shard's package is rebuilt from the snapshot; step() output
    // depends only on the restored state and the (deterministically
    // rebuilt) topology, so resuming is bit-exact.
    MobilePackageModel package(cfg.platform.package);
    package.restoreState(ck.thermal);

    // Warm-restart chain: the previous task's machine (and the
    // program it references) stay alive until the next machine has
    // adopted their cache state.
    std::unique_ptr<ParallelProgram> prev_program =
        std::move(ck.warm_program);
    std::unique_ptr<Machine> prev_machine = std::move(ck.warm_machine);

    // Scheduler state: arrivals delivered but not finished (value
    // entries or suspended live machines), plus the task on the
    // machine right now. The queue keeps entries in arrival order so
    // the generic pickNext view reproduces the classic engine; a
    // declared Fifo/Urgency order dispatches from the heap instead of
    // materializing a snapshot per entry (bit-identical pick).
    const DispatchOrder order = cfg.debug.generic_dispatch
                                    ? DispatchOrder::Custom
                                    : policy->dispatchOrder();
    ReadyQueue ready(order, std::move(ck.ready));
    std::unique_ptr<ScenarioTaskExecution> current;
    ProgramPrebuilder prebuild(cfg);

    for (std::uint64_t completed = 0; completed < max_tasks;) {
        if (!current) {
            if (ready.empty()) {
                const ScenarioTask *next = peekArrival(cfg, ck);
                if (!next)
                    break;  // timeline exhausted, nothing in flight
                if (next->arrival > ck.now) {
                    coolPackage(package, ck, cfg, ck.now,
                                next->arrival - ck.now);
                    ck.now = next->arrival;
                }
                ready.push(makeExecution(takePeek(ck)));
            }
            // A preemptive policy ranks the whole eligible set:
            // deliver everything due by now, including arrivals that
            // landed in the finished predecessor's final sub-quantum
            // tail (after its last sample, before its completion),
            // which the pump observer never saw.
            while (preemptive) {
                const ScenarioTask *due = peekArrival(cfg, ck);
                if (!due || due->arrival > ck.now)
                    break;
                ready.push(makeExecution(takePeek(ck)));
            }
            if (order != DispatchOrder::Custom || ready.size() == 1) {
                current = ready.popOrdered();
            } else {
                std::vector<TaskSnapshot> snaps;
                snaps.reserve(ready.size());
                ready.forEachLive([&](const ScenarioTaskExecution &ex) {
                    snaps.push_back(snapshotOf(ex));
                });
                current = ready.popAt(
                    policy->pickNext(package, ck.now, snaps));
            }

            if (!current->started) {
                current->first_start = ck.now;
                current->melt_at_start = package.meltFraction();
                current->sprint_granted = policy->wantSprint(package);
                ++(current->sprint_granted ? ck.sprints_granted
                                           : ck.sprints_denied);
                current->run_cfg = current->sprint_granted
                                       ? cfg.platform
                                       : denied_cfg;
                if (surrogate_on) {
                    const std::uint32_t key = TaskSurrogate::classKey(
                        current->task.kernel, current->task.size,
                        current->sprint_granted);
                    switch (ck.surrogate.route(key, cfg.surrogate)) {
                      case TaskSurrogate::Route::Surrogate:
                        // Fast path: no program, no machine, no pump.
                        current->started = true;
                        runSurrogateTask(cfg, ck, package, *policy,
                                         *current,
                                         ck.surrogate.predict(key));
                        ++completed;
                        current.reset();
                        continue;
                      case TaskSurrogate::Route::Audit:
                        // Grade this prediction against the pump's
                        // ground truth at completion.
                        current->audit = true;
                        current->audit_prediction =
                            ck.surrogate.predict(key);
                        break;
                      case TaskSurrogate::Route::Exact:
                        break;
                    }
                }
                current->program = prebuild.take(current->task);
                if (!current->program) {
                    current->program = std::make_unique<ParallelProgram>(
                        buildTaskProgram(cfg, current->task));
                } else if (cfg.debug.verify_pipeline_build) {
                    const ParallelProgram serial =
                        buildTaskProgram(cfg, current->task);
                    SPRINT_ASSERT(
                        programDigest(*current->program) ==
                            programDigest(serial),
                        "prebuilt program diverged from serial build");
                }
                current->machine =
                    prepareMachine(*current->program, current->run_cfg);
                if (cfg.warm_caches && prev_machine) {
                    current->machine->warmStartFrom(*prev_machine);
                    // warmStartFrom moves the predecessor's caches
                    // out, so the chain is consumed: a preemptor
                    // dispatched before the next completion must
                    // start cold, not adopt the gutted remains.
                    prev_machine.reset();
                    prev_program.reset();
                }
                current->started = true;
            }
            // Overlap the predicted next dispatch's program build
            // with this task's pump. Only a fresh task at the front
            // of a declared order (or, with an empty queue, the
            // peeked arrival) is predictable; anything else —
            // including a misprediction caused by a higher-urgency
            // mid-pump arrival — falls back to the serial build.
            if (cfg.pipeline_build &&
                max_tasks - completed >= 2) {
                const ScenarioTaskExecution *up = ready.peekOrdered();
                if (up) {
                    if (!up->started)
                        prebuild.start(up->task);
                } else if (ready.empty()) {
                    if (const ScenarioTask *n = peekArrival(cfg, ck))
                        prebuild.start(*n);
                }
            }
            // The (re-)activation ramp heats nothing (cores are still
            // power-gated), even when no idle gap preceded this
            // dispatch and the package still carries the previous
            // task's die power. A resumed task pays it again: its
            // cores were surrendered to the preemptor.
            package.setDiePower(0.0);
            package.step(current->run_cfg.activation_ramp);
            ck.now += current->run_cfg.activation_ramp;
            ck.busy += current->run_cfg.activation_ramp;
            current->pump.ramp_time += current->run_cfg.activation_ramp;
            current->pump.elapsed = ck.now;
            // A suspended task has taken at least one sample, so zero
            // sampled time marks the first dispatch.
            current->pump.peak_junction =
                current->pump.sampled_time == 0.0
                    ? package.junctionTemp()
                    : std::max(current->pump.peak_junction,
                               package.junctionTemp());
            // A resumed task re-arms the policy like a fresh task:
            // budgets re-anchor to the live thermal state.
            policy->beginTask(package);
        }

        // Pump until the task completes or the policy preempts it at
        // a sample boundary for a mid-task arrival.
        bool preempt_req = false;
        const PumpObserver observer = [&](Seconds t, Celsius junction,
                                          Watts power,
                                          double melt) -> bool {
            ck.traces.add(t, junction, power, melt);
            ck.melt_cycles.add(melt);
            if (melt > ck.peak_melt)
                ck.peak_melt = melt;
            while (preemptive) {
                const ScenarioTask *due = peekArrival(cfg, ck);
                if (!due || due->arrival > t)
                    break;
                const ScenarioTask task = takePeek(ck);
                switch (policy->onArrival(package, t,
                                          snapshotOf(*current),
                                          snapshotOfTask(task))) {
                  case ArrivalDecision::Drop:
                    ++ck.tasks_dropped;
                    if (task.deadline > 0.0)
                        ++ck.deadlines_missed;
                    break;
                  case ArrivalDecision::Preempt:
                    preempt_req = true;
                    ready.push(makeExecution(task));
                    break;
                  case ArrivalDecision::Queue:
                    ready.push(makeExecution(task));
                    break;
                }
            }
            return preempt_req;
        };

        const Seconds sim_mark = current->machine->simTime();
        pumpTaskSlice(*current->machine, current->run_cfg, package,
                      *policy, current->pump, observer);
        const Seconds ran = current->machine->simTime() - sim_mark;
        ck.now += ran;
        ck.busy += ran;

        if (!current->machine->finished()) {
            // Preempted: park the live execution back in the queue.
            ++current->preemptions;
            ++ck.preemptions;
            ready.push(std::move(current));
            continue;
        }

        // Task complete: fold it into the aggregates.
        const TaskSnapshot done_snap = snapshotOf(*current);
        const Seconds ramp_paid = current->pump.ramp_time;
        RunResult run = finalizePump(std::move(current->pump),
                                     *current->machine,
                                     current->run_cfg, package);
        run.program_name = current->program->name();

        if (surrogate_on) {
            // Every exact pump calibrates its class — audits grade
            // the prediction first, then feed the truth like any
            // other observation (demoted classes keep learning too).
            const std::uint32_t key = TaskSurrogate::classKey(
                current->task.kernel, current->task.size,
                current->sprint_granted);
            SurrogateObservation ob;
            ob.service = run.task_time - ramp_paid;
            ob.energy = run.dynamic_energy;
            ob.sprint_time = run.sprint_duration;
            ob.sprint_energy = run.sprint_energy;
            ob.heat_time = run.sampled_time;
            ob.heat_energy = run.sampled_energy;
            ob.sprint_exhausted = run.sprint_exhausted;
            ob.hardware_throttled = run.hardware_throttled;
            if (current->audit)
                ck.surrogate.finishAudit(key, current->audit_prediction,
                                         ob, cfg.surrogate);
            ck.surrogate.observeExact(key, ob);
        }

        TaskOutcome out;
        out.task_time = run.task_time;
        out.energy = run.dynamic_energy;
        out.sprint_time = run.sprint_duration;
        out.sprint_energy = run.sprint_energy;
        out.peak_junction = run.peak_junction;
        out.sprint_exhausted = run.sprint_exhausted;
        out.hardware_throttled = run.hardware_throttled;
        if (ScenarioTaskResult *tr = completeTask(
                cfg, ck, package, *policy, *current, done_snap, out))
            tr->run = std::move(run);
        ++completed;
        if (cfg.warm_caches) {
            prev_machine = std::move(current->machine);
            prev_program = std::move(current->program);
        }
        current.reset();
    }

    SPRINT_ASSERT(!current, "engine left a task on the machine");
    ck.thermal = package.saveState();
    ck.policy_state = policy->saveState();
    ck.ready = ready.takeAll();
    if (cfg.warm_caches) {
        ck.warm_machine = std::move(prev_machine);
        ck.warm_program = std::move(prev_program);
    }
    ck.done = !ck.have_peek && ck.ready.empty() &&
              ck.arrivals.index >=
                  static_cast<std::uint64_t>(cfg.num_tasks);
    return ck.done;
}

ScenarioResult
finishScenario(const ScenarioConfig &cfg, ScenarioCheckpoint &&ck)
{
    SPRINT_ASSERT(ck.done, "finishScenario before the timeline finished");

    ScenarioResult out;
    out.makespan = ck.now;
    out.utilization = ck.now > 0.0 ? ck.busy / ck.now : 0.0;

    if (cfg.tail_rest > 0.0) {
        MobilePackageModel package(cfg.platform.package);
        package.restoreState(ck.thermal);
        coolPackage(package, ck, cfg, ck.now, cfg.tail_rest);
        ck.thermal = package.saveState();
    }

    static_cast<TaskTallies<int> &>(out) = ck;
    out.peak_melt_fraction = ck.peak_melt;
    out.sprint_rest_cycles = ck.melt_cycles.cycles();
    out.surrogate_tasks = ck.surrogate.surrogateTasks();
    out.audit_tasks = ck.surrogate.auditTasks();
    out.surrogate_demotions = ck.surrogate.demotions();

    if (cfg.keep_task_results) {
        // Exact nearest-rank quantiles: one sort serves both ranks.
        std::vector<Seconds> responses;
        responses.reserve(ck.tasks.size());
        for (const ScenarioTaskResult &tr : ck.tasks)
            responses.push_back(tr.response);
        std::sort(responses.begin(), responses.end());
        if (!responses.empty()) {
            out.p50_response = sortedQuantile(responses, 0.50);
            out.p95_response = sortedQuantile(responses, 0.95);
        }
    } else {
        out.p50_response = ck.p50.value();
        out.p95_response = ck.p95.value();
    }

    ck.traces.exportTo(out);
    out.tasks = std::move(ck.tasks);
    return out;
}

ScenarioResult
runScenario(const ScenarioConfig &cfg)
{
    ScenarioCheckpoint ck = beginScenario(cfg);
    // One advance with the full task budget normally finishes the
    // timeline; dropped arrivals can leave the budget unspent, so
    // iterate until the engine reports completion.
    while (!advanceScenario(cfg, ck,
                            static_cast<std::uint64_t>(cfg.num_tasks))) {
    }
    return finishScenario(cfg, std::move(ck));
}

ScenarioResult
runScenarioSharded(const ScenarioConfig &cfg, std::uint64_t shard_tasks)
{
    SPRINT_ASSERT(shard_tasks >= 1, "shards need at least one task");
    ScenarioCheckpoint ck = beginScenario(cfg);
    while (!advanceScenario(cfg, ck, shard_tasks)) {
    }
    return finishScenario(cfg, std::move(ck));
}

std::string
firstDifference(const ScenarioResult &a, const ScenarioResult &b)
{
    FieldDiff d;
    a.compare(d, b);
    d("makespan", a.makespan, b.makespan);
    d("utilization", a.utilization, b.utilization);
    d("p50_response", a.p50_response, b.p50_response);
    d("p95_response", a.p95_response, b.p95_response);
    d("peak_melt_fraction", a.peak_melt_fraction, b.peak_melt_fraction);
    d("sprint_rest_cycles", a.sprint_rest_cycles, b.sprint_rest_cycles);
    d("surrogate_tasks", a.surrogate_tasks, b.surrogate_tasks);
    d("audit_tasks", a.audit_tasks, b.audit_tasks);
    d("surrogate_demotions", a.surrogate_demotions,
      b.surrogate_demotions);
    d("junction_trace", a.junction_trace, b.junction_trace);
    d("power_trace", a.power_trace, b.power_trace);
    d("melt_trace", a.melt_trace, b.melt_trace);
    d("tasks.size", a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; d.first().empty() && i < a.tasks.size();
         ++i) {
        const ScenarioTaskResult &x = a.tasks[i];
        const ScenarioTaskResult &y = b.tasks[i];
        FieldDiff task;
        task("arrival", x.arrival, y.arrival);
        task("start", x.start, y.start);
        task("finish", x.finish, y.finish);
        task("response", x.response, y.response);
        task("sprint_granted", x.sprint_granted, y.sprint_granted);
        task("melt_at_start", x.melt_at_start, y.melt_at_start);
        task("melt_at_end", x.melt_at_end, y.melt_at_end);
        task("priority", x.priority, y.priority);
        task("deadline", x.deadline, y.deadline);
        task("deadline_met", x.deadline_met, y.deadline_met);
        task("preemptions", x.preemptions, y.preemptions);
        const std::string run = firstDifference(x.run, y.run);
        if (!task.first().empty() || !run.empty())
            return "tasks[" + std::to_string(i) + "]." +
                   (task.first().empty() ? "run." + run : task.first());
    }
    return d.first();
}

} // namespace csprint
