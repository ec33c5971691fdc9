/**
 * @file
 * csbench: one repetition of a csprint benchmark workload, printed as
 * one JSON object on stdout. run.py repeats it in fresh processes,
 * takes medians, and checks the outputs (README.md in this directory
 * describes the workloads and metrics).
 *
 *   csbench --workload fleet|sprint-train|surrogate-train --seed N
 *           --mode plain|replay|traced --scratch DIR [--size N]
 *           [--workers W]
 *
 * Modes:
 *  - plain: the workload as a user runs it, with no timing wrappers
 *    (fleet: runFleetMultiProcess; trains: begin/advance/finish).
 *    Reports set-up time, wall time, peak RSS, and a fingerprint of
 *    the simulated results.
 *  - replay (fleet only): the first worker range replayed serially in
 *    this process through the public calls a worker makes, untimed:
 *    the base of the trace overhead.
 *  - traced: the same work with a wrapping program_factory and a
 *    forwarding SprintPolicy installed (fleet: every worker range
 *    replayed in this process); every interval of the traced wall is
 *    charged to exactly one layer.
 *
 * Wrappers only observe: the traced fingerprint must equal the plain
 * one, and the fleet replay must equal the multi-process aggregates.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archsim/opstream.hh"
#include "common/args.hh"
#include "common/stats.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/policy.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- Layer tracing -----------------------------------------------------

/**
 * The layers a traced run charges time to. Pending is the stretch
 * between a dispatch decision (wantSprint) and the next callback: it
 * resolves to Engine when a program build follows (an exact task) and
 * to Surrogate when the task completes without one.
 */
enum class Layer
{
    Harness,
    Build,
    Machine,
    Policy,
    Engine,
    Surrogate,
    Serialize,
    Deserialize,
    Store,
    Fleet,
    Pending,
    Count,
};

/**
 * Self-time accounting: the clock is always charged to exactly one
 * current layer, so the layer times sum to the traced wall and the
 * harness remainder is what no layer claims.
 */
class Tracer
{
  public:
    Tracer() : mark_(Clock::now()) {}

    /** Charge the time since the last switch, then make @p next current. */
    Layer
    enter(Layer next)
    {
        const Clock::time_point now = Clock::now();
        self_[static_cast<int>(cur_)] += secondsBetween(mark_, now);
        mark_ = now;
        const Layer prev = cur_;
        cur_ = next;
        return prev;
    }

    /** Move the pending dispatch interval to @p owner. */
    void
    resolvePending(Layer owner)
    {
        double &pending = self_[static_cast<int>(Layer::Pending)];
        self_[static_cast<int>(owner)] += pending;
        pending = 0.0;
    }

    double self(Layer l) const { return self_[static_cast<int>(l)]; }

    std::uint64_t builds = 0;
    std::uint64_t samples = 0;
    std::uint64_t surrogate_tasks = 0;

  private:
    Layer cur_ = Layer::Harness;
    Clock::time_point mark_;
    std::array<double, static_cast<int>(Layer::Count)> self_{};
};

/**
 * Charge a scope to @p layer, then return to the enclosing layer; a
 * null tracer makes it a no-op (the untraced fleet replay).
 */
class Span
{
  public:
    Span(Tracer *t, Layer layer)
        : t_(t), prev_(t ? t->enter(layer) : Layer::Harness)
    {
    }
    ~Span()
    {
        if (t_)
            t_->enter(prev_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
    Layer prev_;
};

/**
 * A SprintPolicy that forwards every virtual to the policy the config
 * would have built and charges the callbacks to the tracer. Dispatch
 * callbacks also mark the machine/engine/surrogate boundaries the
 * engine does not expose: beginTask starts machine time, wantSprint
 * opens a pending dispatch, onTaskComplete returns to the engine.
 */
class TracedPolicy final : public SprintPolicy
{
  public:
    TracedPolicy(std::unique_ptr<SprintPolicy> inner, Tracer &tracer)
        : inner_(std::move(inner)), t_(tracer)
    {
    }

    const char *name() const override { return inner_->name(); }

    bool
    wantSprint(const MobilePackageModel &package) override
    {
        t_.enter(Layer::Policy);
        const bool grant = inner_->wantSprint(package);
        t_.enter(Layer::Pending);
        return grant;
    }

    void
    beginTask(MobilePackageModel &package) override
    {
        t_.enter(Layer::Policy);
        inner_->beginTask(package);
        t_.enter(Layer::Machine);
    }

    SprintDecision
    onSample(MobilePackageModel &package, Seconds dt,
             Joules energy) override
    {
        ++t_.samples;
        Span span(&t_, Layer::Policy);
        return inner_->onSample(package, dt, energy);
    }

    bool preemptive() const override { return inner_->preemptive(); }

    ArrivalDecision
    onArrival(const MobilePackageModel &package, Seconds now,
              const TaskSnapshot &running,
              const TaskSnapshot &incoming) override
    {
        Span span(&t_, Layer::Policy);
        return inner_->onArrival(package, now, running, incoming);
    }

    std::size_t
    pickNext(const MobilePackageModel &package, Seconds now,
             const std::vector<TaskSnapshot> &ready) override
    {
        Span span(&t_, Layer::Policy);
        return inner_->pickNext(package, now, ready);
    }

    DispatchOrder
    dispatchOrder() const override
    {
        return inner_->dispatchOrder();
    }

    void
    onTaskComplete(const TaskSnapshot &task, Seconds service) override
    {
        if (t_.enter(Layer::Policy) == Layer::Pending) {
            t_.resolvePending(Layer::Surrogate);
            ++t_.surrogate_tasks;
        }
        inner_->onTaskComplete(task, service);
        t_.enter(Layer::Engine);
    }

    std::vector<double>
    saveState() const override
    {
        return inner_->saveState();
    }

    void
    restoreState(const std::vector<double> &state) override
    {
        inner_->restoreState(state);
    }

  private:
    std::unique_ptr<SprintPolicy> inner_;
    Tracer &t_;
};

/** @p cfg with the timing program_factory and policy_factory installed. */
ScenarioConfig
traced(ScenarioConfig cfg, Tracer &tracer)
{
    auto build = std::move(cfg.program_factory);
    cfg.program_factory = [build, &tracer](const ScenarioTask &task) {
        const Layer prev = tracer.enter(Layer::Build);
        ++tracer.builds;
        ParallelProgram prog =
            build ? build(task)
                  : buildKernelProgram(task.kernel, task.size, task.seed);
        if (prev == Layer::Pending) {
            // A dispatch build: the routing before it was engine work
            // and the machine runs from here to the task's end.
            tracer.resolvePending(Layer::Engine);
            tracer.enter(Layer::Machine);
        } else {
            tracer.enter(prev);
        }
        return prog;
    };
    auto policy = std::move(cfg.policy_factory);
    const SprintPolicyParams params = cfg.policy;
    cfg.policy_factory = [policy, params, &tracer] {
        return std::unique_ptr<SprintPolicy>(std::make_unique<TracedPolicy>(
            policy ? policy() : makeSprintPolicy(params), tracer));
    };
    return cfg;
}

// --- Output fingerprint --------------------------------------------------

/** FNV-1a over the bit patterns of simulated results. */
class Fingerprint
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    add(T v)
    {
        static_assert(std::is_arithmetic<T>::value, "scalars only");
        bytes(&v, sizeof(v));
    }

    void
    add(const P2Quantile &q)
    {
        double state[P2Quantile::kStateSize];
        q.save(state);
        bytes(state, sizeof(state));
    }

    void
    add(const TimeSeries &ts)
    {
        add(static_cast<std::uint64_t>(ts.size()));
        for (std::size_t i = 0; i < ts.size(); ++i) {
            add(ts.timeAt(i));
            add(ts.valueAt(i));
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
fingerprintOf(const ScenarioResult &r)
{
    Fingerprint f;
    f.add(r.tasks_completed);
    for (int v : {r.sprints_granted, r.sprints_denied, r.sprints_exhausted,
                  r.hardware_throttles, r.preemptions, r.tasks_dropped,
                  r.deadlines_met, r.deadlines_missed,
                  r.sprint_rest_cycles, r.surrogate_demotions})
        f.add(v);
    for (double v : {r.makespan, r.utilization, r.p50_response,
                     r.p95_response, r.peak_junction, r.total_energy,
                     r.total_sprint_time, r.total_sprint_energy,
                     r.peak_melt_fraction})
        f.add(v);
    f.add(r.surrogate_tasks);
    f.add(r.audit_tasks);
    f.add(r.junction_trace);
    f.add(r.power_trace);
    f.add(r.melt_trace);
    return f.hex();
}

std::string
fingerprintOf(const FleetAggregates &a)
{
    Fingerprint f;
    for (std::uint64_t v :
         {a.devices, a.degraded_devices, a.tasks_completed,
          a.tasks_dropped, a.deadlines_met, a.deadlines_missed,
          a.sprints_granted, a.sprints_denied, a.hardware_throttles,
          a.melt_cycles, a.thermal_violations})
        f.add(v);
    for (double v : {a.peak_junction, a.peak_melt, a.total_energy,
                     a.total_sprint_time, a.total_sprint_energy})
        f.add(v);
    f.add(a.response_p50);
    f.add(a.response_p95);
    return f.hex();
}

// --- Result line ---------------------------------------------------------

/** One flat JSON object, printed on a single line. */
class JsonLine
{
  public:
    void
    num(const std::string &key, double v)
    {
        std::ostringstream s;
        if (std::isfinite(v)) {
            s.precision(17);
            s << v;
        } else {
            s << "null";
        }
        put(key, s.str());
    }

    void
    count(const std::string &key, std::uint64_t v)
    {
        put(key, std::to_string(v));
    }

    void
    str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += (c == '\n') ? ' ' : c;
        }
        put(key, quoted + "\"");
    }

    void flag(const std::string &key, bool v) { put(key, v ? "true" : "false"); }

    std::string line() const { return "{" + body_ + "}"; }

  private:
    void
    put(const std::string &key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + v;
    }

    std::string body_;
};

/** Peak resident set of this process or its reaped children [MB]. */
double
peakRssMb(int who)
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Where the probe's result goes, so the job is not optimized away. */
volatile std::uint64_t probe_sink = 0;

/**
 * How fast the host runs right now: the median seconds of a fixed,
 * benchmark-owned job (random read-modify-write over a 2 MB table with
 * data-dependent branches), independent of the program under test.
 */
double
referenceSeconds()
{
    std::vector<std::uint64_t> table(1u << 18, 1);
    std::vector<double> times;
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t x = 88172645463325252ULL;
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 2000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &slot = table[x & (table.size() - 1)];
            if (slot & 1)
                acc += slot;
            else
                acc ^= x;
            slot = slot * 6364136223846793005ULL + x;
        }
        times.push_back(secondsBetween(t0, Clock::now()));
    }
    probe_sink = acc;
    return median(times);
}

/** Set-up repetitions per process; the median is reported. */
constexpr int kSetupReps = 25;

/** What every mode reports besides its own fields. */
struct Outcome
{
    std::string fingerprint;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string problem; ///< empty when every output check passed
};

void
check(Outcome &out, bool ok, const std::string &what)
{
    if (!ok && out.problem.empty())
        out.problem = what;
}

// --- Workloads -------------------------------------------------------------

/**
 * fleet_report's three-class population: phone-ish, tablet-ish, and a
 * bursty mix, 4/8-core size-A devices with 3-4 tasks each.
 */
FleetSpec
fleetSpec(std::uint64_t seed, int devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = devices;

    FleetDeviceClass phone;
    phone.weight = 3.0;
    phone.cores = 4;
    phone.pcm_mass_lo = kSmallPcm;
    phone.pcm_mass_hi = 2.0 * kSmallPcm;
    phone.ambient_lo = 22.0;
    phone.ambient_hi = 32.0;
    phone.policy = SprintPolicyKind::GreedyActivity;
    phone.num_tasks = 3;
    phone.period = 2.5e-3;
    spec.classes.push_back(phone);

    FleetDeviceClass tablet;
    tablet.weight = 2.0;
    tablet.cores = 8;
    tablet.pcm_mass_lo = 2.0 * kSmallPcm;
    tablet.pcm_mass_hi = 4.0 * kSmallPcm;
    tablet.ambient_lo = 20.0;
    tablet.ambient_hi = 28.0;
    tablet.policy = SprintPolicyKind::DutyCycle;
    tablet.pacing_period = 2.5e-3;
    tablet.num_tasks = 3;
    tablet.period = 2.0e-3;
    spec.classes.push_back(tablet);

    FleetDeviceClass bursty;
    bursty.weight = 1.0;
    bursty.cores = 4;
    bursty.pcm_mass_lo = kSmallPcm;
    bursty.pcm_mass_hi = 3.0 * kSmallPcm;
    bursty.ambient_lo = 24.0;
    bursty.ambient_hi = 30.0;
    bursty.policy = SprintPolicyKind::GreedyActivity;
    bursty.num_tasks = 4;
    bursty.period = 1.5e-3;
    bursty.hi_priority_fraction = 0.5;
    bursty.deadline_hi = 1.0e-3;
    bursty.mix = {{KernelId::Sobel, InputSize::A, 2.0},
                  {KernelId::Kmeans, InputSize::A, 1.0}};
    spec.classes.push_back(bursty);

    return spec;
}

/** Worker processes: one per hardware thread, leaving one for the parent. */
int
fleetWorkers()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(3, hw - 1));
}

constexpr std::uint64_t kCheckpointEvery = 2;

/**
 * The fig07 platform (16 cores, 1.5 mg PCM) serving a Poisson train
 * under qos. Every fourth task is a heavy low-priority sobel-B job;
 * the rest are short high-priority size-A kmeans, disparity and
 * feature tasks with deadlines. The mix is fixed by position, so the
 * seed moves arrival times and inputs but not the amount of work.
 */
ScenarioConfig
sprintTrainConfig(std::uint64_t seed, int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.policy.kind = SprintPolicyKind::Qos;
    cfg.policy.qos_slack = 1.5;
    cfg.policy.service_prior = 5e-4;
    cfg.pattern = ArrivalPattern::Poisson;
    cfg.period = 1.5e-3;
    cfg.num_tasks = tasks;
    cfg.seed = seed;
    cfg.task_tuner = [seed](ScenarioTask &t) {
        static const KernelId kMix[] = {KernelId::Sobel, KernelId::Kmeans,
                                        KernelId::Disparity,
                                        KernelId::Feature};
        const std::uint64_t index = t.seed - seed;
        t.seed = 0x5eed0000ULL + index;
        t.kernel = kMix[index % 4];
        const bool heavy = index % 4 == 0;
        t.size = heavy ? InputSize::B : InputSize::A;
        t.priority = heavy ? 0 : 1;
        t.deadline = heavy ? 0.0 : 1.5e-3;
    };
    cfg.warm_caches = true;
    cfg.trace_mode = TraceMode::DecimatedRing;
    cfg.trace_capacity = 4096;
    cfg.keep_task_results = false;
    cfg.idle_model = IdleModel::Quiescent;
    return cfg;
}

/** surrogate_report's 2-core micro-program (~2k ops per task). */
ParallelProgram
microProgram(const ScenarioTask &task)
{
    ParallelProgram prog("micro");
    Phase phase;
    phase.name = "work";
    phase.kind = PhaseKind::ParallelStatic;
    phase.num_tasks = 2;
    const std::uint64_t seed = task.seed;
    phase.make_task = [seed](std::size_t t) {
        std::vector<MicroOp> ops;
        ops.reserve(1024);
        const std::uint64_t base =
            0x10000000ULL + (seed % 64) * 4096 + t * 8192;
        for (int i = 0; i < 1024; ++i) {
            if (i % 4 == 0)
                ops.push_back(MicroOp::load(base + (i % 32) * 64));
            else
                ops.push_back(MicroOp::intAlu());
        }
        return std::make_unique<VectorOpStream>(std::move(ops));
    };
    prog.addPhase(std::move(phase));
    return prog;
}

/**
 * surrogate_report's back-to-back micro-program train under the Auto
 * tier (K = 32, audit 1/128): nearly every task is predicted.
 */
ScenarioConfig
surrogateTrainConfig(std::uint64_t seed, int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(2, 0.015);
    cfg.platform.machine.l1_bytes = 8 * 1024;
    cfg.platform.machine.l2.size_bytes = 64 * 1024;
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::BackToBack;
    cfg.num_tasks = tasks;
    cfg.seed = seed;
    cfg.program_factory = microProgram;
    cfg.trace_mode = TraceMode::DecimatedRing;
    cfg.trace_capacity = 4096;
    cfg.keep_task_results = false;
    cfg.idle_model = IdleModel::Quiescent;
    cfg.surrogate.tier = FidelityTier::Auto;
    cfg.surrogate.min_calibration = 32;
    cfg.surrogate.audit_period = 128.0;
    cfg.surrogate.tolerance = 0.75;
    cfg.surrogate.profile_samples = 4;
    return cfg;
}

// --- Trains --------------------------------------------------------------

/** Output checks every train run applies to its result. */
void
checkTrain(Outcome &out, const std::string &workload,
           const ScenarioConfig &cfg, const ScenarioResult &r)
{
    out.attempted = static_cast<std::uint64_t>(cfg.num_tasks);
    check(out,
          r.tasks_completed + static_cast<std::uint64_t>(r.tasks_dropped) ==
              out.attempted,
          "tasks completed + dropped != tasks arrived");
    check(out, std::isfinite(r.total_energy) && r.total_energy > 0.0,
          "total energy not finite and positive");
    check(out, std::isfinite(r.peak_junction), "peak junction not finite");
    if (workload == "sprint-train") {
        check(out, r.preemptions > 0, "no preemption happened");
        check(out, r.sprint_rest_cycles > 0, "no melt/refreeze cycle");
    } else {
        check(out,
              static_cast<double>(r.surrogate_tasks) >=
                  0.9 * static_cast<double>(r.tasks_completed),
              "surrogate served under 90% of the tasks");
    }
    if (!out.problem.empty())
        out.failed = out.attempted;
}

ScenarioConfig
trainConfig(const std::string &workload, std::uint64_t seed, int size)
{
    return workload == "sprint-train" ? sprintTrainConfig(seed, size)
                                      : surrogateTrainConfig(seed, size);
}

void
runTrain(const std::string &workload, const std::string &mode,
         std::uint64_t seed, int size, JsonLine &json, Outcome &out)
{
    if (mode == "plain") {
        ScenarioConfig cfg;
        ScenarioCheckpoint ck;
        std::vector<double> setups;
        const double ref_start = referenceSeconds();
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const Clock::time_point t0 = Clock::now();
            cfg = trainConfig(workload, seed, size);
            ck = beginScenario(cfg);
            setups.push_back(secondsBetween(t0, Clock::now()));
        }
        const double ref_before = referenceSeconds();
        const Clock::time_point t0 = Clock::now();
        while (!advanceScenario(cfg, ck,
                                static_cast<std::uint64_t>(cfg.num_tasks))) {
        }
        const ScenarioResult r = finishScenario(cfg, std::move(ck));
        const double wall = secondsBetween(t0, Clock::now());
        json.num("setup_s", median(setups));
        json.num("setup_ref_s", 0.5 * (ref_start + ref_before));
        json.num("wall_s", wall);
        json.num("ref_s", 0.5 * (ref_before + referenceSeconds()));
        json.num("tasks_per_s", static_cast<double>(r.tasks_completed) / wall);
        json.num("peak_rss_mb", peakRssMb(RUSAGE_SELF));
        out.fingerprint = fingerprintOf(r);
        checkTrain(out, workload, cfg, r);
        return;
    }
    if (mode != "traced")
        throw std::invalid_argument("trains run in plain or traced mode");

    Tracer tracer;
    double advance_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    const ScenarioConfig cfg =
        traced(trainConfig(workload, seed, size), tracer);
    ScenarioCheckpoint ck = [&] {
        Span span(&tracer, Layer::Engine);
        return beginScenario(cfg);
    }();
    for (bool done = false; !done;) {
        const Clock::time_point a0 = Clock::now();
        {
            Span span(&tracer, Layer::Engine);
            done = advanceScenario(cfg, ck,
                                   static_cast<std::uint64_t>(cfg.num_tasks));
        }
        tracer.resolvePending(Layer::Engine);
        advance_s += secondsBetween(a0, Clock::now());
    }
    const ScenarioResult r = [&] {
        Span span(&tracer, Layer::Engine);
        return finishScenario(cfg, std::move(ck));
    }();
    tracer.enter(Layer::Harness);
    const double wall = secondsBetween(t0, Clock::now());

    json.num("wall_s", wall);
    json.num("layer.workloads", tracer.self(Layer::Build));
    json.num("layer.archsim", tracer.self(Layer::Machine));
    json.num("layer.policy", tracer.self(Layer::Policy));
    json.num("layer.scenario", tracer.self(Layer::Engine));
    json.num("layer.surrogate", tracer.self(Layer::Surrogate));
    json.count("builds", tracer.builds);
    json.count("samples", tracer.samples);
    json.num("scenario.advance_s", advance_s);
    json.count("tasks", r.tasks_completed);
    json.count("preemptions", static_cast<std::uint64_t>(r.preemptions));
    json.count("melt_cycles",
               static_cast<std::uint64_t>(r.sprint_rest_cycles));
    json.count("sprints_denied",
               static_cast<std::uint64_t>(r.sprints_denied));
    json.count("surrogate_tasks", r.surrogate_tasks);
    json.count("audit_tasks", r.audit_tasks);
    json.count("surrogate_demotions",
               static_cast<std::uint64_t>(r.surrogate_demotions));
    json.count("surrogate_spans", tracer.surrogate_tasks);
    out.fingerprint = fingerprintOf(r);
    checkTrain(out, workload, cfg, r);
}

// --- Fleet ---------------------------------------------------------------

/** Nearest-rank @p q quantile of @p sorted (non-empty). */
double
nearestRank(const std::vector<double> &sorted, double q)
{
    const std::size_t n = sorted.size();
    std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    k = std::min(std::max<std::size_t>(k, 1), n);
    return sorted[k - 1];
}

/** Fleet set-up: the spec, every device's config, a fresh store dir. */
struct FleetSetup
{
    FleetSpec spec;
    std::vector<ScenarioConfig> cfgs;
    std::uint64_t tasks = 0; ///< arrivals across every device
};

FleetSetup
setUpFleet(std::uint64_t seed, int devices, const std::string &store)
{
    FleetSetup s;
    s.spec = fleetSpec(seed, devices);
    validateFleetSpec(s.spec);
    s.cfgs.reserve(static_cast<std::size_t>(devices));
    for (int d = 0; d < devices; ++d) {
        s.cfgs.push_back(fleetDeviceConfig(s.spec, d));
        s.tasks += static_cast<std::uint64_t>(s.cfgs.back().num_tasks);
    }
    std::filesystem::remove_all(store);
    std::filesystem::create_directories(store);
    return s;
}

void
checkFleet(Outcome &out, const FleetSetup &s, const FleetAggregates &agg)
{
    out.attempted = static_cast<std::uint64_t>(s.spec.num_devices);
    check(out, agg.devices == out.attempted, "device count");
    check(out, agg.degraded_devices == 0, "degraded devices");
    check(out, agg.tasks_completed + agg.tasks_dropped == s.tasks,
          "tasks completed + dropped != tasks arrived");
    check(out, std::isfinite(agg.total_energy) && agg.total_energy > 0.0,
          "total energy not finite and positive");
}

/** What a fleet replay observed besides its aggregates. */
struct ReplayStats
{
    std::vector<double> responses; ///< every task's response time
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    double advance_s = 0.0; ///< inclusive time in advanceScenario
    double first_range_s = 0.0;      ///< wall of the first range
    std::string first_range_fingerprint; ///< its aggregates
};

/**
 * Replay the first @p max_ranges worker ranges in this process through
 * the calls a worker makes (sprint/fleet.cc, fleetWorkerMain and
 * runShardToCompletion) plus the parent's decode of each final
 * checkpoint; charge them to @p tracer's layers when given.
 */
FleetAggregates
replayFleet(const FleetSetup &s, const std::string &store_dir, int workers,
            std::size_t max_ranges, Tracer *tracer, ReplayStats &stats)
{
    CheckpointStore store(store_dir);
    FleetAggregates total;
    std::vector<std::pair<int, int>> ranges =
        fleetShardRanges(s.spec.num_devices, workers);
    ranges.resize(std::min(ranges.size(), max_ranges));
    for (const auto &[begin, end] : ranges) {
        const Clock::time_point r0 = Clock::now();
        FleetAggregates range;
        for (int device = begin; device < end; ++device) {
            ScenarioConfig cfg;
            Celsius limit = 0.0;
            {
                Span span(tracer, Layer::Fleet);
                cfg = fleetDeviceConfig(s.spec, device);
                if (tracer)
                    cfg = traced(std::move(cfg), *tracer);
                limit = fleetDeviceThermalLimit(s.spec, cfg);
            }
            ScenarioCheckpoint ck = [&] {
                Span span(tracer, Layer::Engine);
                return beginScenario(cfg);
            }();
            std::vector<std::uint8_t> blob;
            for (std::uint64_t seq = 1;; ++seq) {
                bool done = false;
                const Clock::time_point a0 = Clock::now();
                {
                    Span span(tracer, Layer::Engine);
                    done = advanceScenario(cfg, ck, kCheckpointEvery);
                }
                if (tracer)
                    tracer->resolvePending(Layer::Engine);
                stats.advance_s += secondsBetween(a0, Clock::now());
                {
                    Span span(tracer, Layer::Serialize);
                    blob = serializeCheckpoint(cfg, ck);
                }
                {
                    Span span(tracer, Layer::Store);
                    store.save(device, seq, blob);
                }
                ++stats.checkpoints;
                stats.checkpoint_bytes += blob.size();
                if (done)
                    break;
            }
            ScenarioCheckpoint final_ck = [&] {
                Span span(tracer, Layer::Deserialize);
                return deserializeCheckpoint(cfg, blob);
            }();
            const ScenarioResult r = [&] {
                Span span(tracer, Layer::Engine);
                return finishScenario(cfg, std::move(final_ck));
            }();
            Span span(tracer, Layer::Fleet);
            range.foldDevice(r, limit);
            for (const ScenarioTaskResult &task : r.tasks)
                stats.responses.push_back(task.response);
        }
        Span span(tracer, Layer::Fleet);
        total.merge(range);
        if (begin == 0) {
            stats.first_range_s = secondsBetween(r0, Clock::now());
            stats.first_range_fingerprint = fingerprintOf(range);
        }
    }
    return total;
}

void
runFleet(const std::string &mode, std::uint64_t seed, int devices,
         int workers, const std::string &scratch, JsonLine &json,
         Outcome &out)
{
    const std::string store = scratch + "/store";
    json.count("workers", static_cast<std::uint64_t>(workers));

    if (mode == "plain") {
        FleetSetup s;
        std::vector<double> setups;
        const double ref_start = referenceSeconds();
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const Clock::time_point t0 = Clock::now();
            s = setUpFleet(seed, devices, store);
            setups.push_back(secondsBetween(t0, Clock::now()));
        }
        const double ref_end = referenceSeconds();
        FleetOptions opts;
        opts.num_workers = workers;
        opts.checkpoint_every_tasks = kCheckpointEvery;
        opts.max_retries = 3;
        opts.store_dir = store;
        const Clock::time_point t0 = Clock::now();
        const FleetResult res = runFleetMultiProcess(s.spec, opts);
        const double wall = secondsBetween(t0, Clock::now());

        int respawns = 0;
        for (const FleetWorkerStats &w : res.workers)
            respawns += w.respawns;
        json.num("setup_s", median(setups));
        json.num("setup_ref_s", 0.5 * (ref_start + ref_end));
        json.num("wall_s", wall);
        json.num("tasks_per_s",
                 static_cast<double>(res.aggregates.tasks_completed) / wall);
        json.num("devices_per_s", devices / wall);
        json.num("peak_rss_mb", peakRssMb(RUSAGE_SELF));
        // A respawned worker is forked from the grown parent, so its
        // peak says nothing about a worker's own footprint.
        json.num("worker_peak_rss_mb",
                 respawns == 0 ? peakRssMb(RUSAGE_CHILDREN) : 0.0);
        json.count("respawns", static_cast<std::uint64_t>(respawns));
        json.count("degraded_devices", res.aggregates.degraded_devices);
        out.fingerprint = fingerprintOf(res.aggregates);
        checkFleet(out, s, res.aggregates);
        check(out, respawns == 0, "worker respawned with no fault injected");
        out.failed = res.aggregates.degraded_devices +
                     static_cast<std::uint64_t>(respawns);
        if (!out.problem.empty())
            out.failed = std::max<std::uint64_t>(out.failed, 1);
        std::filesystem::remove_all(store);
        return;
    }
    if (mode != "replay" && mode != "traced")
        throw std::invalid_argument("fleet runs in plain, replay or traced mode");

    // The untraced replay covers the first range only: it is the base
    // of the trace overhead, and the traced replay checks every range
    // against the multi-process aggregates.
    const bool traced_mode = mode == "traced";
    const FleetSetup s = setUpFleet(seed, devices, store);
    Tracer tracer;
    ReplayStats stats;
    const Clock::time_point t0 = Clock::now();
    const FleetAggregates agg =
        replayFleet(s, store, workers, traced_mode ? workers : 1,
                    traced_mode ? &tracer : nullptr, stats);
    tracer.enter(Layer::Harness);
    const double wall = secondsBetween(t0, Clock::now());
    if (!traced_mode) {
        json.num("wall_s", wall);
        out.fingerprint = fingerprintOf(agg);
        out.attempted = agg.devices;
        check(out, agg.degraded_devices == 0, "degraded devices");
        if (!out.problem.empty())
            out.failed = out.attempted;
        std::filesystem::remove_all(store);
        return;
    }

    std::vector<double> &responses = stats.responses;
    std::sort(responses.begin(), responses.end());
    const double p50 = nearestRank(responses, 0.50);
    const double p95 = nearestRank(responses, 0.95);
    const std::uint64_t checkpoints = stats.checkpoints;
    json.num("wall_s", wall);
    json.num("first_range_s", stats.first_range_s);
    json.str("first_range_fingerprint", stats.first_range_fingerprint);
    json.num("exact_p50_s", p50);
    json.num("exact_p95_s", p95);
    json.num("merged_p50_s", agg.response_p50.value());
    json.num("merged_p95_s", agg.response_p95.value());
    json.count("tasks", agg.tasks_completed);
    json.count("melt_cycles", agg.melt_cycles);
    json.count("sprints_denied", agg.sprints_denied);
    json.count("checkpoints", checkpoints);
    json.num("checkpoint_mean_kb",
             checkpoints ? static_cast<double>(stats.checkpoint_bytes) /
                               1024.0 /
                               static_cast<double>(checkpoints)
                         : 0.0);
    json.num("layer.workloads", tracer.self(Layer::Build));
    json.num("layer.archsim", tracer.self(Layer::Machine));
    json.num("layer.policy", tracer.self(Layer::Policy));
    json.num("layer.scenario", tracer.self(Layer::Engine));
    json.num("layer.surrogate", tracer.self(Layer::Surrogate));
    json.num("layer.serialize", tracer.self(Layer::Serialize));
    json.num("layer.deserialize", tracer.self(Layer::Deserialize));
    json.num("layer.store", tracer.self(Layer::Store));
    json.num("layer.fleet", tracer.self(Layer::Fleet));
    json.num("scenario.advance_s", stats.advance_s);
    json.count("builds", tracer.builds);
    json.count("samples", tracer.samples);
    json.count("surrogate_spans", tracer.surrogate_tasks);
    out.fingerprint = fingerprintOf(agg);
    checkFleet(out, s, agg);
    if (!out.problem.empty())
        out.failed = out.attempted;
    std::filesystem::remove_all(store);
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv,
                         {"workload", "seed", "mode", "scratch", "size",
                          "workers"});
    const std::string workload = args.get("workload", "");
    const std::string mode = args.get("mode", "plain");
    const std::string scratch = args.get("scratch", "");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const bool fleet = workload == "fleet";
    if (!fleet && workload != "sprint-train" &&
        workload != "surrogate-train") {
        std::cerr << "csbench: unknown --workload '" << workload << "'\n";
        return 2;
    }
    if (scratch.empty()) {
        std::cerr << "csbench: --scratch DIR is required\n";
        return 2;
    }
    const int default_size =
        fleet ? 1024 : workload == "sprint-train" ? 100 : 4000000;
    const int size = static_cast<int>(args.getInt("size", default_size));

    JsonLine json;
    json.str("workload", workload);
    json.str("mode", mode);
    json.count("seed", seed);
    json.count("size", static_cast<std::uint64_t>(size));
    Outcome out;
    try {
        if (fleet)
            runFleet(mode, seed, size,
                     static_cast<int>(args.getInt("workers", fleetWorkers())),
                     scratch, json, out);
        else
            runTrain(workload, mode, seed, size, json, out);
    } catch (const std::exception &e) {
        std::cerr << "csbench: " << e.what() << "\n";
        return 1;
    }
    json.str("fingerprint", out.fingerprint);
    json.count("attempted", out.attempted);
    json.count("failed", out.failed);
    json.flag("ok", out.problem.empty());
    json.str("problem", out.problem);
    std::cout << json.line() << std::endl;
    return 0;
}
