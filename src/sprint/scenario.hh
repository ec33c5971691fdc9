/**
 * @file
 * The multi-sprint Scenario engine: a timeline of task arrivals run
 * through one persistent MobilePackageModel, so PCM melt and refreeze
 * state carries across sprints and rests — the paper's sprint-and-
 * rest discipline (Section 3) and governor pacing (Section 7) driven
 * by the real machine+thermal loop instead of the analytical pacing
 * module.
 *
 * Tasks are served in arrival order by a single chip: a task starts
 * at max(its arrival, the previous task's finish); between tasks the
 * package cools at zero die power. At each task arrival the
 * SprintPolicy decides whether the sprint configuration is granted
 * (full width / boost) or the task runs consolidated on one core; the
 * machine is re-invoked per task (prepareMachine + samplePump),
 * optionally warm-starting L1/L2 contents from its predecessor
 * (Machine::warmStartFrom).
 *
 * A single back-to-back task under the greedy policy is exactly
 * runSprint(): same package lifecycle, same policy arithmetic, same
 * sample pump — bench/scenario_report.cc gates that equivalence
 * bit-for-bit on the fig07 configurations.
 *
 * Long-horizon fast path (PERF.md, "Long-horizon scenarios"): idle
 * gaps can route through the quiescent thermal super-stepper
 * (IdleModel::Quiescent), traces can record into a bounded
 * decimated ring or be dropped (TraceMode), per-task results can be
 * folded into streaming aggregates instead of being retained
 * (keep_task_results = false), and one very long timeline can be
 * replayed as a chain of resumable shards (ScenarioCheckpoint /
 * runScenarioSharded) with bit parity against the unsharded run. The
 * defaults keep the engine bit-identical to the classic full-trace
 * behaviour.
 */

#ifndef CSPRINT_SPRINT_SCENARIO_HH
#define CSPRINT_SPRINT_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "sprint/policy.hh"
#include "sprint/simulation.hh"
#include "sprint/surrogate.hh"
#include "sprint/tallies.hh"
#include "workloads/workload.hh"

namespace csprint {

/** How task arrivals are laid out on the timeline. */
enum class ArrivalPattern
{
    Periodic,   ///< one task every `period`
    Bursty,     ///< bursts of `burst_size` tasks every `period`
    Poisson,    ///< exponential inter-arrivals with mean `period`
    BackToBack, ///< all tasks queued at t = 0 (saturating train)
};

/** Stable lowercase name for reports and bench JSON keys. */
const char *arrivalPatternName(ArrivalPattern pattern);

/** All arrival patterns, in report order. */
const std::vector<ArrivalPattern> &allArrivalPatterns();

/** How the full-timeline traces are recorded. */
enum class TraceMode
{
    Full,          ///< every sample (bit-identical classic behaviour)
    DecimatedRing, ///< bounded buffer, uniform power-of-two decimation
    Off,           ///< no trace storage (streaming aggregates only)
};

/** How idle gaps between tasks advance the package. */
enum class IdleModel
{
    Exact,     ///< plain step() chunks (bit-identical classic path)
    Quiescent, ///< adaptive super-stepper (stepQuiescent fast path)
};

/** One entry of the arrival timeline. */
struct ScenarioTask
{
    Seconds arrival = 0.0;
    KernelId kernel = KernelId::Sobel;
    InputSize size = InputSize::A;
    std::uint64_t seed = 42;
    int priority = 0;        ///< larger = more important (QoS class)
    Seconds deadline = 0.0;  ///< relative to arrival; 0 = none
};

/**
 * The test and CI knobs of a scenario. None of them alters the
 * trajectory, so scenarioConfigDigest (checkpoint.hh) covers none of
 * them and a checkpoint resumes under any setting.
 */
struct ScenarioDebugKnobs
{
    /**
     * Ignore the policy's declared dispatchOrder() and dispatch
     * through the generic snapshot-materializing pickNext scan.
     * Dispatch decisions are bit-identical either way (the ready-queue
     * heap realizes the same order); the differential harness runs
     * both.
     */
    bool generic_dispatch = false;

    /**
     * Determinism guard for pipeline_build: also build the program
     * serially at dispatch and require the prebuilt one to be
     * byte-identical (programDigest over every materialized op).
     * Costs a second build per task.
     */
    bool verify_pipeline_build = false;
};

/** A complete scenario description. */
struct ScenarioConfig
{
    /**
     * The sprint-mode platform (cores, package, machine template).
     * Its `governor` member is unused here — the policy below carries
     * the governor tuning.
     */
    SprintConfig platform;
    SprintPolicyParams policy;

    ArrivalPattern pattern = ArrivalPattern::Periodic;
    int num_tasks = 4;
    /**
     * Timeline scale, in the same time-scaled seconds as the
     * platform package: the inter-arrival period (Periodic), the
     * burst-to-burst period (Bursty), or the mean inter-arrival
     * (Poisson). Ignored by BackToBack.
     */
    Seconds period = 2.5e-3;
    int burst_size = 2;          ///< Bursty: tasks per burst
    Seconds burst_spacing = 0.0; ///< Bursty: gap inside a burst

    KernelId kernel = KernelId::Sobel;
    InputSize size = InputSize::A;
    std::uint64_t seed = 42;   ///< arrival RNG + per-task input seeds

    /**
     * Custom per-task program builder; null uses
     * buildKernelProgram(task.kernel, task.size, task.seed). Lets a
     * scenario draw per-task workloads from any distribution (and the
     * scale bench run micro-programs far smaller than the Table 1
     * kernels).
     */
    std::function<ParallelProgram(const ScenarioTask &)> program_factory;

    /** Carry L1/L2 contents across tasks (warm re-activation). */
    bool warm_caches = false;

    // --- Mixed-priority / QoS knobs (defaults = classic engine) ----

    /**
     * Fraction of tasks arriving as priority 1 (the rest are priority
     * 0). Each task's class is a deterministic hash of its seed —
     * independent of the arrival RNG stream and of delivery order, so
     * checkpoints need no extra state. 0 keeps every task priority 0.
     */
    double hi_priority_fraction = 0.0;

    /** Relative deadline given to priority-1 tasks (0 = none). */
    Seconds deadline_hi = 0.0;

    /** Relative deadline given to priority-0 tasks (0 = none). */
    Seconds deadline_lo = 0.0;

    /**
     * Final per-task hook applied by nextArrival after every stock
     * field (pattern arrival, seed, priority, deadline) is set. Must
     * be a pure function of the task it receives (it runs inside the
     * streaming arrival generator, so any hidden state would break
     * checkpoint replay). Lets a study pin sizes, priorities, or
     * deadlines per timeline position.
     */
    std::function<void(ScenarioTask &)> task_tuner;

    /**
     * Custom policy builder; null uses makeSprintPolicy(policy).
     * The engine rebuilds the policy per advanceScenario call and
     * re-applies saveState/restoreState around it, so factories must
     * return equivalently-configured instances each time.
     */
    std::function<std::unique_ptr<SprintPolicy>()> policy_factory;

    /** Extra cool-down recorded after the last task finishes. */
    Seconds tail_rest = 0.0;

    // --- Long-horizon fast-path knobs (defaults = classic engine) ---

    /** Trace storage policy for the full-timeline traces. */
    TraceMode trace_mode = TraceMode::Full;

    /** Per-trace sample budget in DecimatedRing mode. */
    std::size_t trace_capacity = 4096;

    /**
     * Retain per-task ScenarioTaskResults (response quantiles are
     * then exact). When false, tasks fold into O(1) streaming
     * aggregates (P² quantiles) and ScenarioResult::tasks stays
     * empty — memory is constant in task count.
     */
    bool keep_task_results = true;

    /** Idle-gap integration path. */
    IdleModel idle_model = IdleModel::Exact;

    // --- Build pipeline knob (default = classic) --------------------

    /**
     * Build the next task's program on a helper thread while the
     * current task pumps, taking the build off the timeline's
     * critical path for build-heavy factories. program_factory must
     * be a pure, thread-safe function of the task it receives (the
     * stock factories are); a prebuilt program is used only when the
     * dispatched task is exactly the one it was built for, so a
     * mispredicted dispatch just falls back to the serial build.
     */
    bool pipeline_build = false;

    // --- Surrogate fidelity tier (default = cycle-accurate) --------

    /**
     * Execution fidelity of the task pumps (PERF.md, "Surrogate
     * fidelity tier"). The CycleAccurate default keeps the engine
     * bit-identical to the classic behaviour; Surrogate/Auto let
     * calibrated per-class task models replace machine pumps on the
     * bulk of a fleet-scale train. Restricted to non-preemptive
     * policies with cold caches (the admissibility contract).
     */
    SurrogateParams surrogate;

    /** Test/CI knobs; outside the config digest. */
    ScenarioDebugKnobs debug;
};

/**
 * Streaming generator of the arrival timeline: produces task i without
 * materializing tasks 0..i-1, and is value-copyable, so a checkpoint
 * can snapshot the RNG cursor mid-timeline. nextArrival(cfg, cursor)
 * yields exactly the sequence buildArrivals(cfg) materializes.
 */
struct ArrivalCursor
{
    ArrivalCursor() : rng(42) {}
    explicit ArrivalCursor(const ScenarioConfig &cfg) : rng(cfg.seed) {}

    Rng rng;                    ///< Poisson gap stream
    Seconds poisson_clock = 0.0;
    std::uint64_t index = 0;    ///< next task index to generate
};

/** Generate the next task of @p cfg's timeline and advance @p cursor. */
ScenarioTask nextArrival(const ScenarioConfig &cfg,
                         ArrivalCursor &cursor);

/** Materialize @p cfg's arrival timeline (sorted by arrival). */
std::vector<ScenarioTask> buildArrivals(const ScenarioConfig &cfg);

/** One entry of a stock workload mix. */
struct WorkloadMixEntry
{
    KernelId kernel = KernelId::Sobel;
    InputSize size = InputSize::A;
    double weight = 1.0;
};

/**
 * Stock program_factory: draw each task's kernel/size from the
 * weighted @p mix, deterministically from the task's seed (which the
 * arrival generator derives from the scenario seed), so mixed
 * workload timelines are a one-liner:
 *
 *   cfg.program_factory = makeWorkloadMixFactory({{KernelId::Sobel,
 *       InputSize::A, 3.0}, {KernelId::Kmeans, InputSize::B, 1.0}});
 */
std::function<ParallelProgram(const ScenarioTask &)>
makeWorkloadMixFactory(std::vector<WorkloadMixEntry> mix);

/**
 * Streaming melt/refreeze hysteresis counter: a cycle completes when
 * the melt fraction rises to >= rise and later falls to <= fall.
 * Value-semantic, so it checkpoints by copy.
 */
class MeltCycleCounter
{
  public:
    explicit MeltCycleCounter(double rise = 0.25, double fall = 0.05);

    /** Fold one melt-fraction sample in. */
    void add(double melt);

    /** Completed cycles so far. */
    int cycles() const { return cycles_; }

  private:
    friend struct CheckpointIO;

    double rise_;
    double fall_;
    bool molten_ = false;
    int cycles_ = 0;
};

/**
 * Count melt/refreeze cycles in @p melt with hysteresis: a cycle
 * completes when the series rises to >= @p rise and later falls to
 * <= @p fall.
 */
int countMeltRefreezeCycles(const TimeSeries &melt, double rise = 0.25,
                            double fall = 0.05);

/** Per-task outcome on the scenario timeline. */
struct ScenarioTaskResult
{
    Seconds arrival = 0.0;
    Seconds start = 0.0;    ///< first dispatch (>= arrival when queued)
    Seconds finish = 0.0;
    Seconds response = 0.0; ///< finish - arrival (queueing included)
    bool sprint_granted = false;
    double melt_at_start = 0.0; ///< PCM melt fraction at dispatch
    double melt_at_end = 0.0;
    int priority = 0;
    Seconds deadline = 0.0;    ///< relative to arrival; 0 = none
    bool deadline_met = true;  ///< vacuously true without a deadline
    int preemptions = 0;       ///< times this task was suspended
    RunResult run;          ///< the coupled-run result, minus traces
};

/** Aggregate outcome of one scenario (the tallies are inherited). */
struct ScenarioResult : TaskTallies<int>
{
    /**
     * Per-task results in completion order (identical to arrival
     * order unless a preemptive policy reordered or suspended work);
     * empty when keep_task_results is false.
     */
    std::vector<ScenarioTaskResult> tasks;

    Seconds makespan = 0.0;    ///< finish time of the last task
    double utilization = 0.0;  ///< machine-busy fraction of makespan
    /**
     * Response-time quantiles: exact (nearest-rank) when per-task
     * results are kept, streaming P² estimates otherwise.
     */
    Seconds p50_response = 0.0;
    Seconds p95_response = 0.0;
    /** Largest PCM melt fraction seen (tracked pre-decimation). */
    double peak_melt_fraction = 0.0;
    /**
     * Distinct sprint/rest cycles: times the PCM melt fraction rose
     * past the melt threshold and then refroze (fell below the
     * refreeze threshold) — the paper's repeated-burst signature.
     * Counted on the undecimated sample stream.
     */
    int sprint_rest_cycles = 0;

    // --- Surrogate fidelity tier tallies (0 under CycleAccurate) ---
    std::uint64_t surrogate_tasks = 0; ///< tasks served by prediction
    std::uint64_t audit_tasks = 0;     ///< exact audits sampled (Auto)
    int surrogate_demotions = 0;       ///< classes demoted by audits

    TimeSeries junction_trace; ///< full-timeline junction temperature
    TimeSeries power_trace;    ///< full-timeline die power
    TimeSeries melt_trace;     ///< full-timeline PCM melt fraction
};

/**
 * The first field in which @p a and @p b differ, bit for bit
 * (FieldDiff): the tallies, every scalar, the traces, then each
 * retained task ("tasks[3].run.machine.cycles"); empty when the two
 * results are identical. The parity check of every bit-exact gate.
 */
std::string firstDifference(const ScenarioResult &a,
                            const ScenarioResult &b);

/**
 * The full-timeline trace recorder behind ScenarioConfig::trace_mode:
 * Full appends every sample the engine's pump observer sees,
 * DecimatedRing records into three bounded DecimatingTrace buffers,
 * Off stores nothing.
 */
class ScenarioTraceSink
{
  public:
    ScenarioTraceSink() = default;

    /** Select the mode; must precede the first sample. */
    void configure(TraceMode mode, std::size_t capacity);

    /** Pre-size for @p n more samples (Full mode; no-op otherwise). */
    void reserveMore(std::size_t n);

    /** Record one (junction, power, melt) sample at time @p t. */
    void add(double t, double junction, double power, double melt);

    /** Move the recorded traces into @p out. */
    void exportTo(ScenarioResult &out);

  private:
    friend struct CheckpointIO;

    TraceMode mode_ = TraceMode::Full;
    TimeSeries junction_, power_, melt_;           ///< Full
    DecimatingTrace junction_ring_, power_ring_, melt_ring_;
};

/**
 * One timeline task in flight: the task's metadata plus, once it has
 * been dispatched, its live machine, program, and accumulated pump
 * state. A preempted task is exactly this struct parked in the ready
 * queue — the machine holds the architectural progress (op cursors,
 * caches, directory), the pump state the energy accumulators —
 * and resuming is another pumpTaskSlice over the same pair. Live
 * machines make a checkpoint carrying executions in-process only
 * (like the warm-restart chain).
 */
struct ScenarioTaskExecution
{
    ScenarioTask task;
    bool started = false;        ///< dispatched at least once
    bool sprint_granted = false; ///< valid once started
    int preemptions = 0;
    Seconds first_start = 0.0;
    double melt_at_start = 0.0;
    SprintConfig run_cfg;        ///< platform actually granted
    std::unique_ptr<ParallelProgram> program;
    std::unique_ptr<Machine> machine;
    PumpState pump;

    /**
     * Auto-tier audit in flight: the class prediction was taken at
     * dispatch and will be graded against the pump's ground truth at
     * completion. Never serialized — non-preemptive tasks (the only
     * ones the surrogate tier admits) complete inside the advance
     * call that dispatched them, so no checkpoint boundary can cut an
     * audit in half.
     */
    bool audit = false;
    SurrogatePrediction audit_prediction;
};

/**
 * A resumable scenario position, taken at a task boundary. Snapshots
 * the package thermal state (ThermalNetworkState: node temperatures,
 * melt fractions, injected powers), the policy's cross-task state,
 * the arrival RNG cursor, the timeline clock, and every streaming
 * aggregate; optionally carries the warm machine's L1/L2 contents
 * (live Machine, in-process only — a checkpoint without a warm chain
 * is plain value state). Obtained from beginScenario(), advanced by
 * advanceScenario(), consumed by finishScenario(); replaying a
 * timeline through any shard sizes reproduces the unsharded run
 * bit-for-bit (gated in bench/scenario_scale_report.cc).
 */
struct ScenarioCheckpoint : TaskTallies<int>
{
    bool done = false;            ///< every task has been dispatched
    ArrivalCursor arrivals;       ///< RNG cursor into the timeline

    ThermalNetworkState thermal;  ///< package snapshot at the boundary
    std::vector<double> policy_state; ///< SprintPolicy::saveState()

    // --- Streaming aggregates beyond the tallies (value-semantic) ---
    Seconds now = 0.0;
    Seconds busy = 0.0;
    double peak_melt = 0.0;
    P2Quantile p50{0.50};
    P2Quantile p95{0.95};
    MeltCycleCounter melt_cycles;
    ScenarioTraceSink traces;
    /**
     * Surrogate calibration state and audit cursor (value-semantic;
     * serialized, so Auto-tier sharded replay is bit-exact even when
     * a shard cut lands mid-calibration).
     */
    TaskSurrogate surrogate;
    std::vector<ScenarioTaskResult> tasks; ///< when keep_task_results

    // --- Preemptive scheduler state at the boundary ----------------
    /**
     * The next generated-but-undelivered arrival (the engine peeks
     * one task ahead to detect mid-task arrivals); value state.
     */
    bool have_peek = false;
    ScenarioTask peek;
    /**
     * Arrivals delivered but not finished, in arrival order: entries
     * that never started are value state, a suspended entry carries
     * its live machine — so a checkpoint cut between a preemption and
     * a resume carries the preempted task's full progress instead of
     * restarting it from scratch (in-process only, like the warm
     * chain below).
     */
    std::vector<std::unique_ptr<ScenarioTaskExecution>> ready;

    // --- Warm re-activation chain (in-process only) ----------------
    std::unique_ptr<ParallelProgram> warm_program;
    std::unique_ptr<Machine> warm_machine;
};

/**
 * The consolidated (sprint-denied) variant of @p platform: one core,
 * one thread, no DVFS boost, no activation ramp. This is the platform
 * a task actually runs under when the policy denies its sprint; the
 * checkpoint serializer stores only the sprint_granted bit and
 * rederives the run configuration through this function.
 */
SprintConfig consolidatedPlatform(const SprintConfig &platform);

/** Validate @p cfg and open a checkpoint at the start of its timeline. */
ScenarioCheckpoint beginScenario(const ScenarioConfig &cfg);

/**
 * Complete up to @p max_tasks further tasks of @p cfg's timeline from
 * @p ck, leaving @p ck at a resumable task boundary (suspended or
 * queued work rides along inside the checkpoint). Returns true once
 * every task has finished or been dropped (tail rest not yet
 * applied).
 */
bool advanceScenario(const ScenarioConfig &cfg, ScenarioCheckpoint &ck,
                     std::uint64_t max_tasks);

/**
 * Apply the tail rest and fold @p ck into the final ScenarioResult.
 * Requires advanceScenario to have returned true.
 */
ScenarioResult finishScenario(const ScenarioConfig &cfg,
                              ScenarioCheckpoint &&ck);

/** Run @p cfg's timeline to completion. */
ScenarioResult runScenario(const ScenarioConfig &cfg);

/**
 * Run @p cfg's timeline as a chain of resumable shards of
 * @p shard_tasks tasks each — the checkpointed equivalent of
 * runScenario(cfg), bit-for-bit.
 */
ScenarioResult runScenarioSharded(const ScenarioConfig &cfg,
                                  std::uint64_t shard_tasks);

} // namespace csprint

#endif // CSPRINT_SPRINT_SCENARIO_HH
