/**
 * @file
 * Pluggable sprint policies: the decision layer of the coupled
 * simulation. A SprintPolicy owns every question the platform asks
 * during a run — "should this task sprint at all?" and, per energy
 * sample, "keep sprinting, stop, or throttle?" — so the engine
 * (simulation.cc's samplePump and the Scenario engine) stays a pure
 * mechanism that executes decisions.
 *
 * Contract: onSample() must advance the package thermal model by
 * exactly @p dt at the sampled power (the governor-backed policies do
 * this through SprintGovernor::onSample; others use the
 * advancePackage() helper). The engine reads the package only after
 * onSample() returns, so the policy is the single writer of thermal
 * state during a task. Between tasks the Scenario engine cools the
 * package itself; beginTask() is the policy's hook to re-anchor any
 * budget snapshot against the live (possibly still-warm) package.
 */

#ifndef CSPRINT_SPRINT_POLICY_HH
#define CSPRINT_SPRINT_POLICY_HH

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hh"
#include "sprint/governor.hh"
#include "thermal/package.hh"

namespace csprint {

/** Absolute-deadline sentinel: the task has no deadline. */
constexpr Seconds kNoDeadline =
    std::numeric_limits<double>::infinity();

/**
 * What a policy sees about a timeline task when making scheduling
 * decisions (mid-task arrivals, ready-queue ordering).
 */
struct TaskSnapshot
{
    Seconds arrival = 0.0;
    Seconds deadline = kNoDeadline; ///< absolute; kNoDeadline when none
    int priority = 0;               ///< larger = more important
    Seconds service = 0.0;          ///< machine time already spent
    bool started = false;           ///< dispatched at least once
    bool sprint_granted = false;    ///< valid once started
};

/**
 * The structure of a policy's pickNext() order, when it has one the
 * engine can exploit. Fifo and Urgency orders depend only on per-task
 * constants (priority, absolute deadline, arrival), so the Scenario
 * engine keeps its ready queue in a priority heap and dispatches in
 * O(log n) instead of materializing a TaskSnapshot per queued task on
 * every dispatch. Custom keeps the generic materialize-and-scan path.
 */
enum class DispatchOrder
{
    Fifo,    ///< always index 0 (the base-class pickNext)
    Urgency, ///< priority desc, deadline asc, arrival asc, stable
    Custom,  ///< opaque: the engine materializes and calls pickNext
};

/** What the engine should do with a task that arrives mid-task. */
enum class ArrivalDecision
{
    Queue,   ///< let the running task continue; newcomer waits
    Preempt, ///< suspend the running task at this sample boundary
    Drop,    ///< reject the newcomer outright (counted, never run)
};

/** The concrete policies shipped with the library. */
enum class SprintPolicyKind
{
    GreedyActivity,   ///< activity-budget governor (seed behaviour)
    Thermometer,      ///< ground-truth junction-temperature governor
    DutyCycle,        ///< sprint-and-rest paced (Section 3 live)
    AdaptiveHeadroom, ///< re-sprint only after budget recovery
    NeverSprint,      ///< non-sprinting baseline
    Qos,              ///< deadline-driven priority preemption
    ModelPredictive,  ///< forecast-based preempt-vs-finish decisions
};

/** Stable lowercase name for reports and bench JSON keys. */
const char *sprintPolicyKindName(SprintPolicyKind kind);

/** Factory knobs; unused fields are ignored by the selected kind. */
struct SprintPolicyParams
{
    SprintPolicyKind kind = SprintPolicyKind::GreedyActivity;
    /** Tuning for the governor behind every thermally-safe policy. */
    GovernorConfig governor;
    /**
     * DutyCycle: the expected task inter-arrival period (in the same
     * time-scaled seconds as the package) the pacing budget is
     * amortized over. Must be positive for that kind.
     */
    Seconds pacing_period = 0.0;
    /**
     * AdaptiveHeadroom: fraction of the cold-start sprint budget that
     * must have recovered (budgetAfterRest-style, read off the live
     * package) before a new task is granted a sprint. ModelPredictive
     * reuses it as the budget-recovery fraction its forecasts treat
     * as "a fresh sprint grant is available again".
     */
    double resume_fraction = 0.5;
    /**
     * Qos: safety factor on the deadline-risk forecast — preempt when
     * now + qos_slack * (runner's remaining work + the newcomer's own
     * work) overshoots the newcomer's deadline.
     */
    double qos_slack = 1.0;
    /**
     * Qos/ModelPredictive: prior service-time estimate used until the
     * policy has observed completed tasks (0 = no prior; the policies
     * then queue conservatively until they have learned one).
     */
    Seconds service_prior = 0.0;
};

/**
 * Streaming service-time statistics the preemptive policies learn
 * from completed tasks, bucketed by (priority class, sprinted) — the
 * class split keeps a burst of short interactive tasks from
 * poisoning the remaining-work estimate of a long batch task. Each
 * cell tracks the running mean. An unobserved cell falls back to the
 * same class's other sprint state, then to the configured prior,
 * then to cross-class data: a prior outranks cross-class
 * observations, so it keeps authority over a class until that class
 * itself has been seen. Value semantics (checkpoints as a flat
 * double vector).
 */
class ServiceEstimator
{
  public:
    /** Number of checkpointed doubles (save()/restore()). */
    static constexpr std::size_t kStateSize = 4 * 2;

    explicit ServiceEstimator(Seconds prior = 0.0) : prior_(prior) {}

    /** Fold one completed task's observed service time in. */
    void
    add(const TaskSnapshot &task, Seconds service)
    {
        Cell &cell = cells[clsOf(task)][task.sprint_granted ? 1 : 0];
        cell.sum += service;
        cell.n += 1.0;
    }

    /** Expected service of @p task's class if (not) sprinted. */
    Seconds
    estimateIf(const TaskSnapshot &task, bool sprinted) const
    {
        const Cell *cell = lookup(task, sprinted);
        return cell ? cell->mean() : prior_ > 0.0 ? prior_ : 0.0;
    }

    /** Expected total service of @p task as it is (or would be) run. */
    Seconds
    estimate(const TaskSnapshot &task) const
    {
        return estimateIf(task, !task.started || task.sprint_granted);
    }

    /** Expected service still owed to @p task (never negative). */
    Seconds
    remaining(const TaskSnapshot &task) const
    {
        const Seconds rem = estimate(task) - task.service;
        return rem > 0.0 ? rem : 0.0;
    }

    /** Flat checkpoint state (restore() accepts exactly this). */
    std::vector<double>
    save() const
    {
        std::vector<double> state;
        state.reserve(kStateSize);
        for (const auto &row : cells) {
            for (const Cell &cell : row) {
                state.push_back(cell.sum);
                state.push_back(cell.n);
            }
        }
        return state;
    }

    /** Restore what save() produced (kStateSize doubles). */
    void
    restore(const double *state)
    {
        for (auto &row : cells) {
            for (Cell &cell : row) {
                cell.sum = *state++;
                cell.n = *state++;
            }
        }
    }

  private:
    struct Cell
    {
        double sum = 0.0;
        double n = 0.0;
        Seconds mean() const { return sum / n; }
    };

    static int clsOf(const TaskSnapshot &task)
    {
        return task.priority > 0 ? 1 : 0;
    }

    /**
     * The cell the estimate chain resolves to: own cell, then the
     * same class's other sprint state; null past that point (the
     * prior / cross-class steps take over).
     */
    const Cell *
    lookup(const TaskSnapshot &task, bool sprinted) const
    {
        const int cls = clsOf(task);
        const int spr = sprinted ? 1 : 0;
        if (cells[cls][spr].n > 0.0)
            return &cells[cls][spr];
        if (cells[cls][1 - spr].n > 0.0)
            return &cells[cls][1 - spr];
        if (prior_ > 0.0)
            return nullptr;
        if (cells[1 - cls][spr].n > 0.0)
            return &cells[1 - cls][spr];
        if (cells[1 - cls][1 - spr].n > 0.0)
            return &cells[1 - cls][1 - spr];
        return nullptr;
    }

    Cell cells[2][2];
    Seconds prior_;
};

/**
 * Decision logic for one platform. Policies are stateful per task;
 * the Scenario engine reuses one policy instance across a whole task
 * timeline (beginTask re-arms it), so cross-task state — duty-cycle
 * pacing debt, headroom thresholds — lives here too.
 */
class SprintPolicy
{
  public:
    virtual ~SprintPolicy() = default;

    /** Stable name for reports. */
    virtual const char *name() const = 0;

    /**
     * Scenario-engine hook, asked once per task arrival before the
     * machine is configured: true grants the sprint configuration,
     * false runs the task consolidated on one core.
     */
    virtual bool wantSprint(const MobilePackageModel &package)
    {
        (void)package;
        return true;
    }

    /**
     * Called once per task, after the activation ramp has been
     * applied to @p package, before the first sample.
     */
    virtual void beginTask(MobilePackageModel &package) { (void)package; }

    /**
     * Fold one sample (energy @p energy over wall time @p dt) into
     * the policy and decide. Must advance @p package by @p dt at the
     * sampled power (see the file comment for the contract).
     */
    virtual SprintDecision onSample(MobilePackageModel &package,
                                    Seconds dt, Joules energy) = 0;

    /**
     * Declares that this policy may preempt, drop, or reorder queued
     * work (onArrival / pickNext are non-default). The engine skips
     * mid-task arrival delivery entirely for non-preemptive policies
     * — observationally identical for Queue-only behaviour, since a
     * queued mid-task arrival and a dispatch-time arrival dispatch at
     * the same instant — which keeps million-task saturating
     * timelines from materializing their whole queue.
     */
    virtual bool preemptive() const { return false; }

    /**
     * Mid-task arrival (Scenario engine, preemptive() policies only):
     * @p incoming arrived at timeline time @p now while @p running is
     * on the machine. Queue keeps the classic run-to-completion
     * behaviour (the default), Preempt suspends the runner at this
     * sample boundary (it resumes later from its live machine state),
     * Drop rejects the newcomer.
     */
    virtual ArrivalDecision
    onArrival(const MobilePackageModel &package, Seconds now,
              const TaskSnapshot &running, const TaskSnapshot &incoming)
    {
        (void)package;
        (void)now;
        (void)running;
        (void)incoming;
        return ArrivalDecision::Queue;
    }

    /**
     * Choose the next ready task to dispatch. @p ready is in stable
     * arrival order (preempted tasks after the queue position they
     * re-entered at); the default is FIFO. Must return an index into
     * @p ready.
     */
    virtual std::size_t
    pickNext(const MobilePackageModel &package, Seconds now,
             const std::vector<TaskSnapshot> &ready)
    {
        (void)package;
        (void)now;
        (void)ready;
        return 0;
    }

    /**
     * Declared structure of pickNext()'s order. Must agree with
     * pickNext(): the generic scan stays the semantic definition and
     * the heap dispatch is differentially gated against it
     * (ScenarioDebugKnobs::generic_dispatch). A subclass that overrides
     * pickNext() with anything but the stock orders must override
     * this too — Custom is always safe.
     */
    virtual DispatchOrder dispatchOrder() const
    {
        return DispatchOrder::Fifo;
    }

    /**
     * A timeline task finished after @p service seconds of machine
     * time (ramps included, suspended waiting excluded); feedback for
     * service-time learners.
     */
    virtual void
    onTaskComplete(const TaskSnapshot &task, Seconds service)
    {
        (void)task;
        (void)service;
    }

    /**
     * Cross-task state for checkpoint/restore (scenario sharding): a
     * flat vector of doubles, empty when the policy carries no state
     * across tasks. restoreState() must accept exactly what
     * saveState() produced; per-task state (the governor, pacing
     * debt) is re-armed by beginTask() and is never snapshotted —
     * checkpoints are taken at task boundaries only.
     */
    virtual std::vector<double> saveState() const { return {}; }

    /** Restore what saveState() produced (see above). */
    virtual void restoreState(const std::vector<double> &state)
    {
        (void)state;
    }

    /**
     * Idle-gap advance: zero die power through the quiescent
     * super-stepper (ThermalNetwork::advanceQuiescent). The Scenario
     * engine's fast idle path (coolPackage under
     * IdleModel::Quiescent) routes through this; tolerance per
     * PERF.md, "Long-horizon scenarios".
     */
    static void
    advanceIdle(MobilePackageModel &package, Seconds dt,
                Celsius tol = 0.01)
    {
        package.setDiePower(0.0);
        package.stepQuiescent(dt, tol);
    }

  protected:
    /** Default thermal advance for policies without a governor. */
    static void
    advancePackage(MobilePackageModel &package, Seconds dt, Joules energy)
    {
        package.setDiePower(energy / dt);
        package.step(dt);
    }
};

/**
 * Shared plumbing for policies that delegate thermal tracking and the
 * grace-window -> hardware-throttle escalation to a SprintGovernor
 * (re-armed against the live package at each beginTask).
 */
class GovernorBackedPolicy : public SprintPolicy
{
  public:
    explicit GovernorBackedPolicy(const GovernorConfig &cfg)
        : gov_cfg(cfg)
    {
    }

    void beginTask(MobilePackageModel &package) override
    {
        governor.emplace(gov_cfg, package);
    }

    SprintDecision onSample(MobilePackageModel &package, Seconds dt,
                            Joules energy) override;

    /** The live governor; valid after beginTask(). */
    const SprintGovernor &currentGovernor() const { return *governor; }

  protected:
    GovernorConfig gov_cfg;
    std::optional<SprintGovernor> governor;
};

/**
 * Today's hard-wired behaviour as a policy: sprint immediately, track
 * the activity-based energy budget, stop at the margin, escalate to
 * the throttle past the grace window. Bit-for-bit identical to the
 * seed runSprint when driven through samplePump.
 */
class GreedyActivityPolicy : public GovernorBackedPolicy
{
  public:
    explicit GreedyActivityPolicy(GovernorConfig cfg = GovernorConfig());

    const char *name() const override { return "greedy"; }
};

/** Ground-truth variant: terminate on measured junction temperature. */
class ThermometerPolicy : public GovernorBackedPolicy
{
  public:
    explicit ThermometerPolicy(GovernorConfig cfg = GovernorConfig());

    const char *name() const override { return "thermometer"; }
};

/**
 * Sprint-and-rest pacing (paper Section 3) as a live policy: each
 * task may spend above the sustainable envelope only the energy the
 * package can shed over one pacing period — the energy-conservation
 * argument behind sustainableDutyCycle() — so a burst train settles
 * onto the analytical duty cycle instead of draining the full budget
 * on the first task. The governor still runs underneath as the
 * thermal-safety net (its stop and throttle take precedence).
 */
class DutyCyclePolicy : public GovernorBackedPolicy
{
  public:
    DutyCyclePolicy(Seconds pacing_period, GovernorConfig cfg);

    const char *name() const override { return "duty-cycle"; }

    void beginTask(MobilePackageModel &package) override;
    SprintDecision onSample(MobilePackageModel &package, Seconds dt,
                            Joules energy) override;

    /** Duty-cycle bound the current task is being paced against. */
    double currentDutyCycle() const { return duty_bound; }

  private:
    Seconds period;
    Joules pacing_allowance = 0.0; ///< above-TDP energy allowed per task
    Joules above_energy = 0.0;     ///< above-TDP energy spent this task
    Seconds above_time = 0.0;      ///< above-TDP time this task
    double duty_bound = 1.0;       ///< sustainableDutyCycle of last sample
    bool paced_out = false;        ///< latched StopSprint
};

/**
 * Budget-recovery gate: a task is granted a sprint only when the live
 * package's sprint budget (the budgetAfterRest() quantity, read off
 * the real thermal state) has recovered past a fraction of the
 * cold-start budget; granted sprints then run greedily.
 */
class AdaptiveHeadroomPolicy : public GovernorBackedPolicy
{
  public:
    AdaptiveHeadroomPolicy(double resume_fraction, GovernorConfig cfg);

    const char *name() const override { return "adaptive-headroom"; }

    bool wantSprint(const MobilePackageModel &package) override;

    std::vector<double> saveState() const override;
    void restoreState(const std::vector<double> &state) override;

  private:
    double resume_fraction;
    Joules cold_budget = -1.0; ///< lazily computed from params
};

/**
 * QoS-aware preemption (the paper's Section 5 responsiveness
 * discussion made operational): deadline-driven grants that preempt
 * low-priority work when a newcomer's deadline is at risk. The risk
 * forecast is the learned service-time estimate — waiting behind the
 * runner's remaining work plus the newcomer's own work must still
 * meet the deadline, or the runner is suspended. Dispatch order is
 * priority-major, earliest-deadline-first within a priority class.
 * Thermal safety still comes from the governor underneath.
 */
class QosPolicy : public GovernorBackedPolicy
{
  public:
    QosPolicy(double slack, Seconds service_prior, GovernorConfig cfg);

    const char *name() const override { return "qos"; }
    bool preemptive() const override { return true; }

    ArrivalDecision onArrival(const MobilePackageModel &package,
                              Seconds now, const TaskSnapshot &running,
                              const TaskSnapshot &incoming) override;
    std::size_t pickNext(const MobilePackageModel &package, Seconds now,
                         const std::vector<TaskSnapshot> &ready) override;
    DispatchOrder dispatchOrder() const override
    {
        return DispatchOrder::Urgency;
    }
    void onTaskComplete(const TaskSnapshot &task,
                        Seconds service) override;

    std::vector<double> saveState() const override;
    void restoreState(const std::vector<double> &state) override;

  private:
    double slack;
    ServiceEstimator est;
};

/**
 * Model-predictive preemption: on each mid-task arrival, forecast the
 * completion times of both serving orders (finish-the-runner-first vs
 * preempt-now) from the learned service estimates and the package's
 * thermal forecasts — approxCooldown() seeds the search horizon and
 * timeToBudgetFraction() (on a scratch copy of the live state) prices
 * whether the second-served task will still get a sprint grant or run
 * at the consolidated estimate — then picks the order that meets more
 * deadlines (summed tardiness breaks ties; a full tie queues).
 */
class ModelPredictivePolicy : public GovernorBackedPolicy
{
  public:
    ModelPredictivePolicy(double grant_fraction, Seconds service_prior,
                          GovernorConfig cfg);

    const char *name() const override { return "model-predictive"; }
    bool preemptive() const override { return true; }

    ArrivalDecision onArrival(const MobilePackageModel &package,
                              Seconds now, const TaskSnapshot &running,
                              const TaskSnapshot &incoming) override;
    std::size_t pickNext(const MobilePackageModel &package, Seconds now,
                         const std::vector<TaskSnapshot> &ready) override;
    DispatchOrder dispatchOrder() const override
    {
        return DispatchOrder::Urgency;
    }
    void onTaskComplete(const TaskSnapshot &task,
                        Seconds service) override;

    std::vector<double> saveState() const override;
    void restoreState(const std::vector<double> &state) override;

  private:
    /** Forecast delay until a fresh sprint grant is possible. */
    Seconds regrantDelay(const MobilePackageModel &package) const;

    double grant_fraction;
    ServiceEstimator est;
    mutable Joules cold_budget = -1.0; ///< lazily computed from params
};

/** Non-sprinting baseline: every task runs consolidated. */
class NeverSprintPolicy : public SprintPolicy
{
  public:
    const char *name() const override { return "never"; }

    bool wantSprint(const MobilePackageModel &package) override
    {
        (void)package;
        return false;
    }

    SprintDecision onSample(MobilePackageModel &package, Seconds dt,
                            Joules energy) override
    {
        advancePackage(package, dt, energy);
        return SprintDecision::Continue;
    }
};

/** Build the policy @p params describes. */
std::unique_ptr<SprintPolicy>
makeSprintPolicy(const SprintPolicyParams &params);

/** All policy kinds, in report order. */
const std::vector<SprintPolicyKind> &allSprintPolicyKinds();

} // namespace csprint

#endif // CSPRINT_SPRINT_POLICY_HH
