/**
 * @file
 * Tests for the sprint governor: budget computation, activity-based
 * exhaustion, replenishment below TDP, thermometer mode, and the
 * hardware-throttle escalation.
 */

#include <gtest/gtest.h>

#include "sprint/governor.hh"
#include "thermal/package.hh"

namespace csprint {
namespace {

MobilePackageParams
scaledParams()
{
    // Full-scale package: budgets in joules, seconds-scale sprints.
    return MobilePackageParams::phonePcm();
}

TEST(Governor, BudgetMatchesPackage)
{
    MobilePackageModel pkg(scaledParams());
    SprintGovernor gov(GovernorConfig{}, pkg);
    EXPECT_NEAR(gov.initialBudget(), pkg.sprintEnergyBudget(), 1e-9);
    EXPECT_GT(gov.initialBudget(), 15.0);
}

TEST(Governor, SustainedLoadNeverTriggers)
{
    MobilePackageModel pkg(scaledParams());
    SprintGovernor gov(GovernorConfig{}, pkg);
    const Watts p = 0.9 * gov.sustainablePower();
    for (int i = 0; i < 20000; ++i) {
        const auto action = gov.onSample(1e-3, p * 1e-3);
        ASSERT_EQ(action, SprintDecision::Continue) << "sample " << i;
    }
    EXPECT_FALSE(gov.terminated());
    EXPECT_NEAR(gov.remainingBudget(), gov.initialBudget(), 1e-6);
}

TEST(Governor, SixteenWattSprintTriggersNearOneSecond)
{
    MobilePackageModel pkg(scaledParams());
    SprintGovernor gov(GovernorConfig{}, pkg);
    Seconds t = 0.0;
    SprintDecision action = SprintDecision::Continue;
    while (action == SprintDecision::Continue && t < 5.0) {
        action = gov.onSample(1e-3, 16.0 * 1e-3);
        t += 1e-3;
    }
    EXPECT_EQ(action, SprintDecision::StopSprint);
    // ~17 J of budget at ~15 W above sustainable: about 1.1 s.
    EXPECT_GT(t, 0.6);
    EXPECT_LT(t, 2.0);
}

TEST(Governor, BudgetReplenishesBelowTdp)
{
    MobilePackageModel pkg(scaledParams());
    GovernorConfig cfg;
    cfg.margin = 0.0;
    SprintGovernor gov(cfg, pkg);
    // Spend half the budget sprinting.
    const Joules half = 0.5 * gov.initialBudget();
    Joules spent = 0.0;
    while (spent < half) {
        gov.onSample(1e-3, 16e-3);
        spent += (16.0 - gov.sustainablePower()) * 1e-3;
    }
    const Joules after_sprint = gov.remainingBudget();
    EXPECT_LT(after_sprint, 0.6 * gov.initialBudget());
    // Idle for a while: the budget climbs back (cooling).
    for (int i = 0; i < 5000; ++i)
        gov.onSample(1e-3, 0.0);
    EXPECT_GT(gov.remainingBudget(), after_sprint);
}

TEST(Governor, ThermometerModeTriggersNearLimit)
{
    MobilePackageModel pkg(scaledParams());
    GovernorConfig cfg;
    cfg.use_activity_estimate = false;
    cfg.temp_guard = 1.0;
    SprintGovernor gov(cfg, pkg);
    Seconds t = 0.0;
    SprintDecision action = SprintDecision::Continue;
    while (action == SprintDecision::Continue && t < 5.0) {
        action = gov.onSample(1e-3, 16.0 * 1e-3);
        t += 1e-3;
    }
    EXPECT_EQ(action, SprintDecision::StopSprint);
    EXPECT_GE(pkg.junctionTemp(),
              pkg.params().t_junction_max - 2.0);
    EXPECT_LT(gov.peakJunction(), pkg.params().t_junction_max + 1.0);
}

TEST(Governor, ActivityAndThermometerAgreeRoughly)
{
    // The activity estimate should fire within ~30% of the ground
    // truth thermometer for a constant 16 W sprint.
    auto trigger_time = [](bool activity) {
        MobilePackageModel pkg(scaledParams());
        GovernorConfig cfg;
        cfg.use_activity_estimate = activity;
        cfg.margin = 0.02;
        SprintGovernor gov(cfg, pkg);
        Seconds t = 0.0;
        while (t < 5.0) {
            if (gov.onSample(1e-3, 16e-3) != SprintDecision::Continue)
                break;
            t += 1e-3;
        }
        return t;
    };
    const Seconds act = trigger_time(true);
    const Seconds thermo = trigger_time(false);
    EXPECT_NEAR(act, thermo, 0.35 * thermo);
}

TEST(Governor, EscalatesToThrottleWhenSoftwareHangs)
{
    MobilePackageModel pkg(scaledParams());
    GovernorConfig cfg;
    cfg.software_grace = 10e-3;
    SprintGovernor gov(cfg, pkg);
    // Sprint to exhaustion...
    SprintDecision action = SprintDecision::Continue;
    Seconds t = 0.0;
    while (action == SprintDecision::Continue && t < 5.0) {
        action = gov.onSample(1e-3, 16e-3);
        t += 1e-3;
    }
    ASSERT_EQ(action, SprintDecision::StopSprint);
    // ...and keep burning 16 W as if the OS missed the signal.
    bool throttled = false;
    for (int i = 0; i < 200; ++i) {
        if (gov.onSample(1e-3, 16e-3) == SprintDecision::Throttle) {
            throttled = true;
            break;
        }
    }
    EXPECT_TRUE(throttled);
    EXPECT_TRUE(gov.throttled());
}

TEST(Governor, ThrottleWaitsOutTheFullGraceWindow)
{
    // Boundary behaviour of the grace window: sustained high power
    // after the software signal produces no throttle while
    // time-since-signal <= software_grace, then exactly one Throttle.
    MobilePackageModel pkg(scaledParams());
    GovernorConfig cfg;
    cfg.software_grace = 50e-3;
    SprintGovernor gov(cfg, pkg);
    SprintDecision action = SprintDecision::Continue;
    Seconds t = 0.0;
    while (action == SprintDecision::Continue && t < 5.0) {
        action = gov.onSample(1e-3, 16e-3);
        t += 1e-3;
    }
    ASSERT_EQ(action, SprintDecision::StopSprint);

    Seconds since_signal = 0.0;
    int throttles = 0;
    for (int i = 0; i < 200; ++i) {
        const SprintDecision a = gov.onSample(1e-3, 16e-3);
        since_signal += 1e-3;
        if (a == SprintDecision::Throttle) {
            ++throttles;
            EXPECT_GT(since_signal, cfg.software_grace);
        } else if (throttles == 0) {
            // No premature escalation inside the window.
            EXPECT_LE(since_signal,
                      cfg.software_grace + 1e-3 + 1e-12);
        }
    }
    EXPECT_EQ(throttles, 1);
    EXPECT_TRUE(gov.throttled());
}

TEST(Governor, NoThrottleWhenSoftwareComplies)
{
    MobilePackageModel pkg(scaledParams());
    GovernorConfig cfg;
    cfg.software_grace = 10e-3;
    SprintGovernor gov(cfg, pkg);
    SprintDecision action = SprintDecision::Continue;
    Seconds t = 0.0;
    while (action == SprintDecision::Continue && t < 5.0) {
        action = gov.onSample(1e-3, 16e-3);
        t += 1e-3;
    }
    ASSERT_EQ(action, SprintDecision::StopSprint);
    // Software migrated: power falls to ~1 W.
    for (int i = 0; i < 500; ++i) {
        EXPECT_NE(gov.onSample(1e-3, 1e-3), SprintDecision::Throttle);
    }
    EXPECT_FALSE(gov.throttled());
}

} // namespace
} // namespace csprint
