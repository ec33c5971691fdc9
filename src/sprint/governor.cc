#include "sprint/governor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csprint {

SprintGovernor::SprintGovernor(const GovernorConfig &config,
                               MobilePackageModel &pkg)
    : cfg(config), package(pkg)
{
    budget_total = package.sprintEnergyBudget();
    budget_remaining = budget_total;
    sustainable = package.sustainableTdp();
    peak_junction = package.junctionTemp();
}

SprintDecision
SprintGovernor::onSample(Seconds dt, Joules energy)
{
    SPRINT_ASSERT(dt > 0.0, "sample interval must be positive");

    // Drive the package thermal model with the sampled power.
    package.setDiePower(energy / dt);
    package.step(dt);
    peak_junction = std::max(peak_junction, package.junctionTemp());

    // Activity-based budget: energy above the sustainable envelope
    // drains the budget; running below it replenishes (the package
    // sheds heat), capped at the initial budget.
    const Joules above = energy - sustainable * dt;
    budget_remaining =
        std::clamp(budget_remaining - above, 0.0, budget_total);

    bool exhausted;
    if (cfg.use_activity_estimate) {
        exhausted = budget_remaining <= cfg.margin * budget_total;
    } else {
        exhausted = package.junctionTemp() >=
                    package.params().t_junction_max - cfg.temp_guard;
    }

    if (!signalled) {
        if (exhausted) {
            signalled = true;
            time_since_signal = 0.0;
            return SprintDecision::StopSprint;
        }
        return SprintDecision::Continue;
    }

    // Already signalled: escalate to the hardware throttle if power
    // is still above sustainable after the grace window.
    time_since_signal += dt;
    const Watts power = energy / dt;
    if (!throttle_fired && time_since_signal > cfg.software_grace &&
        power > 1.5 * sustainable) {
        throttle_fired = true;
        return SprintDecision::Throttle;
    }
    return SprintDecision::Continue;
}

} // namespace csprint
