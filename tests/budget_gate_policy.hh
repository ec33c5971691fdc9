/**
 * @file
 * A test-only policy that withholds sprints, to drive the Scenario
 * engine's consolidated-dispatch path (SprintPolicy::wantSprint()
 * false, counted in sprints_denied), which no shipped policy takes. It
 * extends a stock policy: a task is granted a sprint only when the
 * live package's sprint budget has recovered to a fraction of the
 * cold-start budget (above 1, never). The cold budget is cross-task
 * state, appended to the stock policy's so a checkpoint carries it.
 */

#ifndef CSPRINT_TESTS_BUDGET_GATE_POLICY_HH
#define CSPRINT_TESTS_BUDGET_GATE_POLICY_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sprint/policy.hh"

namespace csprint {

template <typename Base = GreedyActivityPolicy>
class BudgetGatePolicy final : public Base
{
  public:
    /** Gate at @p fraction; @p args construct the stock policy. */
    template <typename... Args>
    explicit BudgetGatePolicy(double fraction, Args &&...args)
        : Base(std::forward<Args>(args)...), fraction_(fraction)
    {
    }

    bool wantSprint(const MobilePackageModel &package) override
    {
        if (cold_budget_ < 0.0)
            cold_budget_ =
                MobilePackageModel(package.params()).sprintEnergyBudget();
        return package.sprintEnergyBudget() >= fraction_ * cold_budget_;
    }

    std::vector<double> saveState() const override
    {
        std::vector<double> state = Base::saveState();
        state.push_back(cold_budget_);
        return state;
    }

    void restoreState(const std::vector<double> &state) override
    {
        Base::restoreState({state.begin(), state.end() - 1});
        cold_budget_ = state.back();
    }

  private:
    double fraction_;
    Joules cold_budget_ = -1.0; ///< computed at the first grant decision
};

/** A ScenarioConfig::policy_factory building BudgetGatePolicy<Base>. */
template <typename Base = GreedyActivityPolicy, typename... Args>
std::function<std::unique_ptr<SprintPolicy>()>
budgetGate(double fraction, Args... args)
{
    return [=]() -> std::unique_ptr<SprintPolicy> {
        return std::make_unique<BudgetGatePolicy<Base>>(fraction, args...);
    };
}

} // namespace csprint

#endif // CSPRINT_TESTS_BUDGET_GATE_POLICY_HH
