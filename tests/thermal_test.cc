/**
 * @file
 * Tests for the thermal substrate: RC-network physics against closed
 * forms, energy-conserving PCM melt/freeze handling, the mobile
 * package model's derived quantities, and the Figure 4 transients.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "thermal/network.hh"
#include "thermal/package.hh"
#include "thermal/transients.hh"
#include "thermal/validation.hh"

namespace csprint {
namespace {

TEST(ThermalNetwork, SteadyStateMatchesOhmsLaw)
{
    // One node, one resistor to ambient: T_ss = Tamb + P*R.
    ThermalNetwork net(25.0);
    const auto n = net.addNode("die", 0.1, 25.0);
    net.addResistorToAmbient(n, 10.0);
    net.setPower(n, 2.0);
    for (int i = 0; i < 200; ++i)
        net.step(0.1);
    EXPECT_NEAR(net.temperature(n), 25.0 + 2.0 * 10.0, 0.05);
}

TEST(ThermalNetwork, ExponentialRiseTimeConstant)
{
    // First-order RC: T(t) = Tamb + P*R*(1 - exp(-t/RC)).
    ThermalNetwork net(0.0);
    const auto n = net.addNode("die", 2.0, 0.0);
    net.addResistorToAmbient(n, 5.0);
    net.setPower(n, 1.0);
    const double tau = 2.0 * 5.0;
    net.step(tau);
    EXPECT_NEAR(net.temperature(n), 5.0 * (1.0 - std::exp(-1.0)), 0.05);
    net.step(tau);
    EXPECT_NEAR(net.temperature(n), 5.0 * (1.0 - std::exp(-2.0)), 0.05);
}

TEST(ThermalNetwork, CoolingDecay)
{
    ThermalNetwork net(20.0);
    const auto n = net.addNode("die", 1.0, 70.0);
    net.addResistorToAmbient(n, 2.0);
    const double tau = 2.0;
    net.step(tau);
    EXPECT_NEAR(net.temperature(n), 20.0 + 50.0 * std::exp(-1.0), 0.2);
}

TEST(ThermalNetwork, TwoNodeHeatFlowConservesEnergy)
{
    ThermalNetwork net(25.0);
    const auto a = net.addNode("a", 1.0, 80.0);
    const auto b = net.addNode("b", 3.0, 25.0);
    net.addResistor(a, b, 4.0);
    // No path to ambient: total stored energy must be conserved.
    const Joules before = net.storedEnergy();
    net.step(20.0);
    EXPECT_NEAR(net.storedEnergy(), before, 1e-9);
    // And temperatures equilibrate to the weighted mean.
    const double t_eq = (1.0 * 80.0 + 3.0 * 25.0) / 4.0;
    for (int i = 0; i < 50; ++i)
        net.step(10.0);
    EXPECT_NEAR(net.temperature(a), t_eq, 0.05);
    EXPECT_NEAR(net.temperature(b), t_eq, 0.05);
}

TEST(ThermalNetwork, InjectedEnergyAccumulates)
{
    ThermalNetwork net(25.0);
    const auto a = net.addNode("a", 2.0, 25.0);
    const auto b = net.addNode("b", 2.0, 25.0);
    net.addResistor(a, b, 1.0);
    net.setPower(a, 3.0);
    net.step(4.0);
    // 12 J injected, nothing escapes (no ambient path).
    EXPECT_NEAR(net.storedEnergy(), 12.0, 1e-9);
}

TEST(ThermalNetwork, PcmPlateausAtMeltPoint)
{
    ThermalNetwork net(25.0);
    const auto n = net.addPcmNode("pcm", 0.5, 25.0, {10.0, 60.0});
    net.setPower(n, 5.0);
    // Sensible heat to 60 C: 0.5 * 35 = 17.5 J -> 3.5 s at 5 W.
    net.step(3.5);
    EXPECT_NEAR(net.temperature(n), 60.0, 0.01);
    EXPECT_NEAR(net.meltFraction(n), 0.0, 0.01);
    // Latent phase: 10 J -> 2 s at 5 W held at the melt point.
    net.step(1.0);
    EXPECT_NEAR(net.temperature(n), 60.0, 1e-9);
    EXPECT_NEAR(net.meltFraction(n), 0.5, 0.01);
    net.step(1.0);
    EXPECT_NEAR(net.meltFraction(n), 1.0, 0.01);
    // Once molten, temperature rises again.
    net.step(1.0);
    EXPECT_GT(net.temperature(n), 65.0);
}

TEST(ThermalNetwork, PcmRefreezesSymmetrically)
{
    ThermalNetwork net(25.0);
    const auto n = net.addPcmNode("pcm", 0.5, 25.0, {10.0, 60.0});
    net.setPower(n, 5.0);
    net.step(5.5);  // fully molten + a little superheat
    EXPECT_NEAR(net.meltFraction(n), 1.0, 1e-9);
    net.setPower(n, 0.0);
    net.addResistorToAmbient(n, 2.0);
    // Cool for a long time: must end frozen at ambient.
    for (int i = 0; i < 400; ++i)
        net.step(1.0);
    EXPECT_NEAR(net.meltFraction(n), 0.0, 1e-6);
    EXPECT_NEAR(net.temperature(n), 25.0, 0.1);
}

TEST(ThermalNetwork, PcmEnergyConservedThroughTransition)
{
    ThermalNetwork net(25.0);
    const auto n = net.addPcmNode("pcm", 0.5, 25.0, {10.0, 60.0});
    net.setPower(n, 4.0);
    net.step(2.0);
    net.step(3.0);
    net.step(2.0);
    // 28 J in, no losses.
    EXPECT_NEAR(net.storedEnergy(), 28.0, 1e-9);
}

TEST(ThermalNetwork, ResetRestoresAmbient)
{
    ThermalNetwork net(25.0);
    const auto n = net.addPcmNode("pcm", 0.5, 25.0, {10.0, 60.0});
    net.setPower(n, 50.0);
    net.step(2.0);
    net.reset();
    EXPECT_DOUBLE_EQ(net.temperature(n), 25.0);
    EXPECT_DOUBLE_EQ(net.meltFraction(n), 0.0);
    EXPECT_DOUBLE_EQ(net.power(n), 0.0);
}

TEST(ThermalNetwork, StableWithLargeSteps)
{
    // A stiff pair (small cap, small R) must not oscillate even when
    // stepped coarsely: the solver sub-steps internally.
    ThermalNetwork net(25.0);
    const auto a = net.addNode("a", 0.001, 25.0);
    net.addResistorToAmbient(a, 0.1);
    net.setPower(a, 10.0);
    net.step(5.0);
    EXPECT_NEAR(net.temperature(a), 26.0, 0.05);
    net.step(5.0);
    EXPECT_NEAR(net.temperature(a), 26.0, 0.05);
}

TEST(ThermalNetworkDeathTest, SubstepCountBeyondIntRangeIsRejected)
{
    // A tiny junction capacity puts the stable substep near 1e-14 s,
    // so one 1 s step would need ~1e13 substeps: more than an int
    // counts. Each path rejects it before the first substep: the
    // package loop, the CSR loop (the same package pinned there by an
    // isolated node), and the reference Euler loop.
    MobilePackageParams params = MobilePackageParams::phonePcm();
    params.c_junction = 1e-12;
    MobilePackageModel package(params);
    MobilePackageModel csr(params);
    pinToCsrLoop(csr);
    MobilePackageModel euler(params);
    euler.network().setIntegrator(ThermalIntegrator::ReferenceEuler);
    EXPECT_GT(1.0 / (0.1 * package.network().maxStableStep()), 1e13);

    EXPECT_DEATH(package.step(1.0), "INT_MAX");
    EXPECT_DEATH(csr.step(1.0), "INT_MAX");
    EXPECT_DEATH(euler.step(1.0), "INT_MAX");
    // The same networks still take a step the int range can count.
    package.step(1e-9);
    csr.step(1e-9);
    euler.step(1e-9);
    EXPECT_TRUE(samePackageBits(package, csr));
}

// --- Mobile package model ---

TEST(MobilePackage, SustainedOneWattStaysBelowMelt)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.setDiePower(1.0);
    for (int i = 0; i < 3000; ++i)
        pkg.step(1.0);
    EXPECT_LT(pkg.junctionTemp(), pkg.params().pcm_melt_temp);
    EXPECT_DOUBLE_EQ(pkg.meltFraction(), 0.0);
    EXPECT_LT(pkg.junctionTemp(), pkg.params().t_junction_max);
}

TEST(MobilePackage, SustainableTdpAboutOneWatt)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    EXPECT_GT(pkg.sustainableTdp(), 0.8);
    EXPECT_LT(pkg.sustainableTdp(), 1.3);
}

TEST(MobilePackage, MaxSprintPowerCoversSixteenWatts)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    EXPECT_GE(pkg.maxSprintPower(), 16.0);
}

TEST(MobilePackage, SprintBudgetDominatedByLatentHeat)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    const Joules budget = pkg.sprintEnergyBudget();
    // 150 mg at 100 J/g = 15 J of latent heat plus sensible margin.
    EXPECT_GT(budget, 15.0);
    EXPECT_LT(budget, 25.0);
}

TEST(MobilePackage, NoPcmBudgetIsSmall)
{
    MobilePackageModel pkg(MobilePackageParams::phoneNoPcm());
    EXPECT_LT(pkg.sprintEnergyBudget(), 5.0);
    EXPECT_FALSE(pkg.hasPcm());
}

TEST(MobilePackage, CooldownApproximationScalesWithPower)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    const Seconds c16 = pkg.approxCooldown(1.0, 16.0);
    const Seconds c8 = pkg.approxCooldown(1.0, 8.0);
    EXPECT_NEAR(c16 / c8, 2.0, 1e-9);
    // Paper Section 4.5: a ~1 s 16 W sprint needs roughly 16-24 s.
    EXPECT_GT(c16, 10.0);
    EXPECT_LT(c16, 30.0);
}

// --- Figure 4 transients ---

TEST(Transients, SprintPlateauNearOneSecond)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    const auto tr = runSprintTransient(pkg, 16.0, 3.0);
    // Paper: plateau ~0.95 s during phase change; sprint a little
    // over 1 s total before hitting 70 C.
    EXPECT_TRUE(tr.hit_limit);
    EXPECT_GT(tr.plateau_duration, 0.7);
    EXPECT_LT(tr.plateau_duration, 1.4);
    EXPECT_GT(tr.time_to_limit, 0.9);
    EXPECT_LT(tr.time_to_limit, 1.6);
}

TEST(Transients, SprintWithoutPcmIsMuchShorter)
{
    MobilePackageModel with(MobilePackageParams::phonePcm());
    MobilePackageModel without(MobilePackageParams::phoneNoPcm());
    const auto tr_with = runSprintTransient(with, 16.0, 3.0);
    const auto tr_without = runSprintTransient(without, 16.0, 3.0);
    EXPECT_TRUE(tr_without.hit_limit);
    EXPECT_LT(tr_without.time_to_limit, 0.5 * tr_with.time_to_limit);
}

TEST(Transients, CooldownReturnsNearAmbient)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    runSprintTransient(pkg, 16.0, 3.0);
    const TimeSeries cool = runCooldownTransient(pkg, 40.0);
    // Paper Figure 4(b): close to ambient after about 24 s.
    const auto near = cool.firstTimeBelow(pkg.params().ambient + 5.0);
    ASSERT_TRUE(near.has_value());
    EXPECT_GT(*near, 5.0);
    EXPECT_LT(*near, 35.0);
    EXPECT_LT(cool.back(), pkg.params().ambient + 5.0);
}

TEST(Transients, ModeTraceSprintFasterThanSustained)
{
    // Figure 2: with the same work, sprinting completes sooner, and
    // the PCM-augmented sprint completes more work in sprint mode
    // than the plain sprint.
    const double work = 4.0;  // core-seconds
    const auto sustained =
        runModeTrace(MobilePackageParams::phoneNoPcm(), work, 1, 1.0);
    const auto sprint =
        runModeTrace(MobilePackageParams::phoneNoPcm(), work, 16, 1.0);
    const auto augmented =
        runModeTrace(MobilePackageParams::phonePcm(), work, 16, 1.0);
    EXPECT_LT(sprint.completion_time, sustained.completion_time);
    EXPECT_LE(augmented.completion_time, sprint.completion_time);
    // The augmented system must beat the plain sprint distinctly.
    EXPECT_LT(augmented.completion_time,
              0.8 * sprint.completion_time);
}

TEST(Transients, TemperatureNeverExceedsLimitPlusGuard)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    const auto tr = runSprintTransient(pkg, 16.0, 3.0);
    EXPECT_LT(tr.junction_temp.maxValue(),
              pkg.params().t_junction_max + 1.0);
}

} // namespace
} // namespace csprint
