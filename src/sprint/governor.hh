/**
 * @file
 * The sprint governor of paper Section 7: an activity-based thermal
 * budget tracker. The hardware monitors dynamic energy dissipation
 * since sprint initiation against the package's thermal budget and
 * signals software when the budget nears exhaustion; software then
 * migrates threads to a single core. If software fails to react
 * within a grace window, the hardware throttles frequency as a last
 * resort. A ground-truth mode (terminate on measured junction
 * temperature) is provided for validating the activity estimate.
 */

#ifndef CSPRINT_SPRINT_GOVERNOR_HH
#define CSPRINT_SPRINT_GOVERNOR_HH

#include "common/units.hh"
#include "thermal/package.hh"

namespace csprint {

/** Governor tuning. */
struct GovernorConfig
{
    /** Guard fraction: signal when this share of budget remains. */
    double margin = 0.05;
    /** Use the activity (energy-count) estimate; false = thermometer. */
    bool use_activity_estimate = true;
    /** Junction guard band for thermometer mode [K]. */
    Kelvin temp_guard = 1.0;
    /** Grace window for software to migrate before hardware throttles. */
    Seconds software_grace = 200e-6;
};

/** What the platform should do after one energy sample. */
enum class SprintDecision
{
    Continue,   ///< keep the current configuration
    StopSprint, ///< software: migrate to one core / drop the boost
    Throttle,   ///< hardware: clamp frequency (software missed)
};

/**
 * Tracks the sprint thermal budget against sampled dynamic energy and
 * the package's thermal state.
 */
class SprintGovernor
{
  public:
    SprintGovernor(const GovernorConfig &cfg, MobilePackageModel &package);

    /**
     * Fold one sample (energy @p energy over wall time @p dt) into the
     * tracker, advance the package thermal model, and decide.
     */
    SprintDecision onSample(Seconds dt, Joules energy);

    /** Budget available at sprint start [J]. */
    Joules initialBudget() const { return budget_total; }

    /** Budget still unspent (activity estimate) [J]. */
    Joules remainingBudget() const { return budget_remaining; }

    /** True once StopSprint has been signalled. */
    bool terminated() const { return signalled; }

    /** True once the hardware throttle fired. */
    bool throttled() const { return throttle_fired; }

    /** Peak junction temperature seen so far. */
    Celsius peakJunction() const { return peak_junction; }

    /** Sustainable power the budget replenishes at. */
    Watts sustainablePower() const { return sustainable; }

  private:
    GovernorConfig cfg;
    MobilePackageModel &package;
    Joules budget_total;
    Joules budget_remaining;
    Watts sustainable;
    bool signalled = false;
    bool throttle_fired = false;
    Seconds time_since_signal = 0.0;
    Celsius peak_junction;
};

} // namespace csprint

#endif // CSPRINT_SPRINT_GOVERNOR_HH
