/**
 * @file
 * Tests for the pluggable sprint policies: factory coverage, parity
 * of the governor-backed policies with the raw SprintGovernor, the
 * grace-window -> hardware-throttle escalation through the policy
 * layer, duty-cycle pacing, and the adaptive-headroom grant gate.
 */

#include <gtest/gtest.h>

#include "sprint/pacing.hh"
#include "sprint/policy.hh"
#include "thermal/package.hh"

namespace csprint {
namespace {

MobilePackageParams
fullScaleParams()
{
    return MobilePackageParams::phonePcm();
}

/** Drive @p policy with constant power until it stops (or 5 s). */
Seconds
sampleUntilStop(SprintPolicy &policy, MobilePackageModel &pkg,
                Watts power, SprintDecision &last)
{
    policy.beginTask(pkg);
    Seconds t = 0.0;
    last = SprintDecision::Continue;
    while (last == SprintDecision::Continue && t < 5.0) {
        last = policy.onSample(pkg, 1e-3, power * 1e-3);
        t += 1e-3;
    }
    return t;
}

TEST(Policy, FactoryBuildsEveryKind)
{
    for (SprintPolicyKind kind : allSprintPolicyKinds()) {
        SprintPolicyParams params;
        params.kind = kind;
        params.pacing_period = 1.0;
        auto policy = makeSprintPolicy(params);
        ASSERT_NE(policy, nullptr);
        EXPECT_STREQ(policy->name(), sprintPolicyKindName(kind));
    }
}

TEST(Policy, GreedyMatchesRawGovernor)
{
    // The greedy policy must make exactly the raw governor's
    // decisions on an identical sample stream.
    MobilePackageModel pkg_policy(fullScaleParams());
    MobilePackageModel pkg_gov(fullScaleParams());
    GovernorConfig gcfg;
    GreedyActivityPolicy policy(gcfg);
    policy.beginTask(pkg_policy);
    SprintGovernor gov(gcfg, pkg_gov);
    for (int i = 0; i < 3000; ++i) {
        const Joules e = (i < 1500 ? 16.0 : 0.5) * 1e-3;
        const SprintDecision d = policy.onSample(pkg_policy, 1e-3, e);
        const SprintDecision a = gov.onSample(1e-3, e);
        ASSERT_EQ(d, a) << "sample " << i;
        ASSERT_EQ(pkg_policy.junctionTemp(), pkg_gov.junctionTemp())
            << "sample " << i;
    }
}

TEST(Policy, GreedyStopsNearOneSecondAtSixteenWatts)
{
    MobilePackageModel pkg(fullScaleParams());
    GreedyActivityPolicy policy;
    SprintDecision last;
    const Seconds t = sampleUntilStop(policy, pkg, 16.0, last);
    EXPECT_EQ(last, SprintDecision::StopSprint);
    EXPECT_GT(t, 0.6);
    EXPECT_LT(t, 2.0);
}

TEST(Policy, ThermometerStopsBelowJunctionLimit)
{
    MobilePackageModel pkg(fullScaleParams());
    ThermometerPolicy policy;
    SprintDecision last;
    sampleUntilStop(policy, pkg, 16.0, last);
    EXPECT_EQ(last, SprintDecision::StopSprint);
    EXPECT_GE(pkg.junctionTemp(), pkg.params().t_junction_max - 2.0);
    EXPECT_LT(pkg.junctionTemp(), pkg.params().t_junction_max);
}

TEST(Policy, GraceWindowEscalatesToThrottle)
{
    // The policy layer must preserve the governor's grace-window
    // escalation: after StopSprint, sustained high power produces
    // exactly one Throttle, and only once the grace window has fully
    // elapsed.
    MobilePackageModel pkg(fullScaleParams());
    GovernorConfig gcfg;
    gcfg.software_grace = 50e-3;
    GreedyActivityPolicy policy(gcfg);
    SprintDecision last;
    sampleUntilStop(policy, pkg, 16.0, last);
    ASSERT_EQ(last, SprintDecision::StopSprint);

    Seconds since_stop = 0.0;
    int throttles = 0;
    for (int i = 0; i < 200; ++i) {
        const SprintDecision d = policy.onSample(pkg, 1e-3, 16e-3);
        since_stop += 1e-3;
        if (d == SprintDecision::Throttle) {
            ++throttles;
            EXPECT_GT(since_stop, gcfg.software_grace);
        } else if (throttles == 0) {
            // No premature throttle inside the window.
            EXPECT_LE(since_stop, gcfg.software_grace + 1e-3 + 1e-12);
        }
    }
    EXPECT_EQ(throttles, 1);
}

TEST(Policy, GraceWindowSparesCompliantSoftware)
{
    MobilePackageModel pkg(fullScaleParams());
    GovernorConfig gcfg;
    gcfg.software_grace = 10e-3;
    GreedyActivityPolicy policy(gcfg);
    SprintDecision last;
    sampleUntilStop(policy, pkg, 16.0, last);
    ASSERT_EQ(last, SprintDecision::StopSprint);
    // Software complied: power falls to ~1 W, no throttle ever.
    for (int i = 0; i < 500; ++i)
        EXPECT_NE(policy.onSample(pkg, 1e-3, 1e-3),
                  SprintDecision::Throttle);
}

TEST(Policy, DutyCyclePacesOutEarly)
{
    // With a pacing period much shorter than the budget-exhaustion
    // time, the duty-cycle policy must stop long before greedy does,
    // after spending about sustainable * period above the envelope.
    MobilePackageModel pkg_greedy(fullScaleParams());
    GreedyActivityPolicy greedy;
    SprintDecision last;
    const Seconds t_greedy =
        sampleUntilStop(greedy, pkg_greedy, 16.0, last);

    MobilePackageModel pkg(fullScaleParams());
    const Seconds period = 2.0;
    DutyCyclePolicy paced(period, GovernorConfig{});
    const Seconds t_paced = sampleUntilStop(paced, pkg, 16.0, last);
    EXPECT_EQ(last, SprintDecision::StopSprint);
    EXPECT_LT(t_paced, 0.5 * t_greedy);

    // The pacing allowance is TDP * period joules of 16 W samples.
    const Watts tdp = pkg.sustainableTdp();
    EXPECT_NEAR(t_paced, tdp * period / 16.0, 0.2 * tdp * period / 16.0);

    // The live duty bound matches the analytical pacing module.
    EXPECT_NEAR(paced.currentDutyCycle(),
                sustainableDutyCycle(pkg, 16.0), 1e-9);
}

TEST(Policy, DutyCycleSafetyNetStillStops)
{
    // A huge pacing period defers pacing entirely; the governor
    // safety net must still end the sprint near budget exhaustion.
    MobilePackageModel pkg(fullScaleParams());
    DutyCyclePolicy paced(1e6, GovernorConfig{});
    SprintDecision last;
    const Seconds t = sampleUntilStop(paced, pkg, 16.0, last);
    EXPECT_EQ(last, SprintDecision::StopSprint);
    EXPECT_GT(t, 0.6);
    EXPECT_LT(t, 2.0);
}

TEST(Policy, AdaptiveHeadroomGateTracksBudgetRecovery)
{
    MobilePackageModel pkg(fullScaleParams());
    AdaptiveHeadroomPolicy policy(0.5, GovernorConfig{});
    // Cold package: granted.
    EXPECT_TRUE(policy.wantSprint(pkg));

    // Drain the budget; immediately afterwards: denied.
    SprintDecision last;
    sampleUntilStop(policy, pkg, 16.0, last);
    ASSERT_EQ(last, SprintDecision::StopSprint);
    EXPECT_FALSE(policy.wantSprint(pkg));

    // Rest until the pacing module says half the budget is back
    // (timeToBudgetFraction advances the package to that point); the
    // gate must agree.
    timeToBudgetFraction(pkg, 0.55, 120.0);
    EXPECT_TRUE(policy.wantSprint(pkg));
}

TEST(Policy, NeverSprintAdvancesThermalState)
{
    MobilePackageModel pkg(fullScaleParams());
    NeverSprintPolicy policy;
    EXPECT_FALSE(policy.wantSprint(pkg));
    policy.beginTask(pkg);
    const Celsius before = pkg.junctionTemp();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(policy.onSample(pkg, 1e-3, 1e-3),
                  SprintDecision::Continue);
    }
    // The package heated under the 1 W samples: the policy honours
    // the advance-the-package contract.
    EXPECT_GT(pkg.junctionTemp(), before + 1.0);
}

} // namespace
} // namespace csprint
