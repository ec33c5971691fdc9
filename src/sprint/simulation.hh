/**
 * @file
 * The coupled sprint simulation (paper Section 8): the architectural
 * simulator's per-1000-cycle dynamic-energy samples drive the package
 * thermal model and a SprintPolicy; policy decisions feed back into
 * the machine (thread migration to a single core, or the hardware
 * frequency throttle).
 *
 * The run is decomposed into reusable pieces so the Scenario engine
 * (sprint/scenario.hh) can re-invoke the machine per task against one
 * persistent package: prepareMachine() builds the machine from the
 * validated SprintConfig, samplePump() drives it to completion under a
 * policy, and runSprint() is the classic one-shot composition (cold
 * package, greedy policy, its governor in the GovernorConfig's mode).
 *
 * Sample boundaries are scheduler events of the machine's event-driven
 * loop (see PERF.md, "The machine hot path"): the machine stops at
 * every multiple of the sampling quantum with all energy tallies
 * priced, so the trace a hook observes is identical whichever
 * MachineLoop the SprintConfig's machine template selects.
 */

#ifndef CSPRINT_SPRINT_SIMULATION_HH
#define CSPRINT_SPRINT_SIMULATION_HH

#include <functional>
#include <memory>
#include <string>

#include "archsim/machine.hh"
#include "archsim/program.hh"
#include "common/timeseries.hh"
#include "common/units.hh"
#include "sprint/governor.hh"
#include "sprint/policy.hh"
#include "thermal/package.hh"

namespace csprint {

/**
 * Default capacitance time scaling matching the scaled-down workload
 * inputs (see SprintConfig::scaledPackage and EXPERIMENTS.md,
 * "Time scales").
 */
constexpr double kDefaultTimeScale = 7e-4;

/** A complete sprint-platform configuration. */
struct SprintConfig
{
    int sprint_cores = 16;          ///< cores activated for the sprint
    int num_threads = 16;           ///< software threads
    double dvfs_boost = 1.0;        ///< >1: single-core DVFS sprint
    Seconds activation_ramp = 128e-6; ///< gradual activation (Section 5)
    MobilePackageParams package;    ///< thermal package (time-scaled)
    GovernorConfig governor;
    MachineConfig machine;          ///< cores/caches/memory template
    bool software_migration_fails = false; ///< fault injection: force
                                           ///< the hardware throttle
    /**
     * Scale all thermal capacitances by @p time_scale to match the
     * scaled-down workload inputs (see EXPERIMENTS.md, "Time scales"; the
     * paper itself scales its PCM 100x for the same reason). Thermal
     * resistances are untouched, so TDP and steady state are
     * preserved while transients shrink by the same factor as the
     * simulated work.
     */
    static MobilePackageParams scaledPackage(Grams pcm_mass,
                                             double time_scale);

    /** Parallel sprint with @p cores cores (paper default 16). */
    static SprintConfig parallelSprint(
        int cores, Grams pcm_mass,
        double time_scale = kDefaultTimeScale);

    /** Idealized single-core DVFS sprint with 16x power headroom. */
    static SprintConfig dvfsSprint(
        double power_headroom, Grams pcm_mass,
        double time_scale = kDefaultTimeScale);

    /** Non-sprint single-core baseline (same TDP, LLC, memory). */
    static SprintConfig baseline();

    /**
     * The machine configuration this platform runs: the template with
     * the core/thread counts applied. The factories above are the
     * single source of truth for DVFS boost wiring (freq_mult and the
     * boosted energy model); a boosted config that was not wired that
     * way is an assertion failure, not silently re-derived.
     */
    MachineConfig machineConfig() const;
};

/** Outcome of one coupled run. */
struct RunResult
{
    std::string program_name;
    int sprint_cores = 1;
    int num_threads = 1;
    double dvfs_boost = 1.0;

    Seconds task_time = 0.0;       ///< response time incl. activation
    Joules dynamic_energy = 0.0;   ///< total dynamic energy
    Celsius peak_junction = 0.0;   ///< max junction temperature
    double final_melt_fraction = 0.0;
    bool sprint_exhausted = false; ///< policy ended the sprint early
    bool hardware_throttled = false;
    Seconds sprint_duration = 0.0; ///< time spent above nominal TDP
    Joules sprint_energy = 0.0;    ///< energy spent above nominal TDP
    Seconds cooldown_estimate = 0.0; ///< Section 4.5 approximation
    Watts avg_power = 0.0;

    /**
     * Time/energy the pump actually stepped into the thermal package
     * (whole 1000-cycle sample quanta; the final partial quantum of a
     * run never fires the hook, so its heat stays out of the package
     * — the surrogate tier reproduces exactly that envelope).
     */
    Seconds sampled_time = 0.0;
    Joules sampled_energy = 0.0;

    // Empty in a Scenario task record: the timeline holds its samples.
    TimeSeries junction_trace;     ///< sampled junction temperature
    TimeSeries power_trace;        ///< sampled die power
    TimeSeries melt_trace;         ///< sampled PCM melt fraction
    MachineStats machine;
};

/**
 * The first field in which two coupled-run results differ, bit for
 * bit (FieldDiff, sprint/tallies.hh): "task_time",
 * "machine.l1_misses", ...; empty when identical.
 */
std::string firstDifference(const RunResult &a, const RunResult &b);

/**
 * Build the machine for @p cfg (validated via machineConfig()). The
 * machine starts with cold L1/L2 state; a Scenario-engine caller may
 * warm-start it from a predecessor via Machine::warmStartFrom().
 */
std::unique_ptr<Machine> prepareMachine(const ParallelProgram &program,
                                        const SprintConfig &cfg);

/**
 * Per-sample scenario tap for preemptive timelines: invoked once per
 * energy sample, after the policy has consumed it, with the absolute
 * sample time and the pre-sample thermal state. It is the only way a
 * sample leaves the pump: samplePump records RunResult traces through
 * it, the Scenario engine its timeline. Return true to suspend the
 * machine at this sample boundary (Machine::suspend); the task
 * continues on a later pumpTaskSlice call. A null observer is the
 * classic uninterruptible run.
 */
using PumpObserver = std::function<bool(Seconds t, Celsius junction,
                                        Watts power, double melt)>;

/**
 * Accumulated pump state of one coupled task, possibly spanning
 * several suspend/resume slices. Everything here is value state; the
 * machine itself carries the architectural half of the checkpoint.
 * samplePump() runs slices over a fresh state, then
 * finalizePump(), so the sliced path and the classic path are the
 * same code — a run whose observer never suspends is bit-identical
 * to one with no observer at all.
 */
struct PumpState
{
    Seconds elapsed = 0.0;       ///< absolute trace clock (last sample)
    Seconds ramp_time = 0.0;     ///< activation ramps applied so far
    Seconds above_tdp_time = 0.0;
    Joules above_tdp_energy = 0.0;
    Seconds sampled_time = 0.0;  ///< sample time stepped into the package
    Joules sampled_energy = 0.0; ///< sample energy stepped into the package
    Celsius peak_junction = 0.0;
    bool sprint_exhausted = false;
    bool hardware_throttled = false;
    bool policy_throttled = false;
};

/**
 * Drive @p machine until it completes or @p observe requests a
 * suspension, folding samples into @p st. The caller owns the package
 * lifecycle (activation ramp + policy.beginTask before the first
 * slice); slices share the armed policy, so back-to-back slices with
 * no intervening package/policy activity reproduce the uninterrupted
 * run bit-for-bit. Check machine.finished() afterwards.
 */
void pumpTaskSlice(Machine &machine, const SprintConfig &cfg,
                   MobilePackageModel &package, SprintPolicy &policy,
                   PumpState &st, const PumpObserver &observe = nullptr);

/**
 * Fold @p st and the finished machine into the classic RunResult
 * (task_time spans every ramp and run slice; suspended waiting time
 * is the timeline's business, not the task's).
 */
RunResult finalizePump(PumpState &&st, Machine &machine,
                       const SprintConfig &cfg,
                       MobilePackageModel &package);

/**
 * Drive @p machine to completion against @p package under @p policy:
 * install the per-1000-cycle sample hook, record the RunResult traces
 * through the observer handed to pumpTaskSlice, and apply policy
 * decisions to the machine (migration to core 0, boost drop, or the
 * hardware frequency throttle; a fault-injected config leaves
 * StopSprint unapplied so the throttle path is exercised).
 *
 * @p observe, when set, sees every sample after it is recorded; the
 * run transparently resumes across any suspension it requests (the
 * test/bench harness for forced suspend/resume cadences — the
 * Scenario engine runs its own slice loop so it can reschedule
 * between slices). An observer that never suspends yields the
 * unobserved run bit-for-bit.
 *
 * The caller owns the package lifecycle: apply the activation ramp
 * (package.step(cfg.activation_ramp)) and policy.beginTask() before
 * pumping. result.program_name is left empty for the caller.
 */
RunResult samplePump(Machine &machine, const SprintConfig &cfg,
                     MobilePackageModel &package, SprintPolicy &policy,
                     const PumpObserver &observe = nullptr);

/**
 * Run @p program on the platform described by @p cfg.
 *
 * The machine starts with cold L1s and with cores enabled only after
 * the activation ramp (its duration is added to the task time, per
 * paper Section 5.3). The package starts cold; the policy is the
 * greedy policy, whose governor stops on the activity budget (or on
 * the junction thermometer when cfg.governor.use_activity_estimate is
 * false), reproducing the seed behaviour: on exhaustion all threads
 * migrate to core 0 (or, for a DVFS sprint, the boost is dropped); if
 * configured to model a hung OS, the hardware throttle path is
 * exercised instead.
 */
RunResult runSprint(const ParallelProgram &program,
                    const SprintConfig &cfg);

} // namespace csprint

#endif // CSPRINT_SPRINT_SIMULATION_HH
