/**
 * @file
 * Shared fixtures for validating and benchmarking the thermal hot
 * path: the PCM-ladder network used by the PCM-heavy benchmarks, the
 * CSR-loop pin that is the package kernel's oracle, and
 * the phonePcm melt/freeze parity trace that compares the optimized
 * Heun integrator against the retained reference Euler. Kept in one
 * place so the microbenchmark, the BENCH_thermal.json report tool,
 * and the parity test all measure the same thing.
 */

#ifndef CSPRINT_THERMAL_VALIDATION_HH
#define CSPRINT_THERMAL_VALIDATION_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "thermal/network.hh"
#include "thermal/package.hh"

namespace csprint {

/**
 * Build a ladder of @p nodes PCM nodes hanging off a driven die node,
 * each starting just below its melt point so every substep walks the
 * enthalpy curve of every node (the PCM-heavy worst case).
 */
inline void
buildPcmLadder(ThermalNetwork &net, int nodes)
{
    ThermalNodeId prev = net.addNode("die", 0.1, 25.0);
    net.setPower(prev, 4.0 * nodes);
    for (int i = 0; i < nodes; ++i) {
        const ThermalNodeId pcm = net.addPcmNode(
            "pcm" + std::to_string(i), 0.05, 59.9, {50.0, 60.0});
        net.addResistor(prev, pcm, 0.5);
        prev = pcm;
    }
    net.addResistorToAmbient(prev, 3.5);
}

/**
 * Pin @p pkg's network to the generic CSR Heun loop by adding one
 * isolated node. The package-shape detector rejects the four-node
 * network, while the three package rows keep their CSR slots and
 * stability bound, so they perform exactly the operations of the
 * package loop: the bit-for-bit oracle for ThermalNetwork's package
 * kernel.
 */
inline void
pinToCsrLoop(MobilePackageModel &pkg)
{
    ThermalNetwork &net = pkg.network();
    net.addNode("csr-pin", 1.0, net.ambient());
}

/**
 * True when the junction, case and PCM nodes of @p a and @p b hold the
 * same bits in every temperature and melt fraction (-0.0 against 0.0
 * and NaN payloads count): the package kernel's parity check.
 */
inline bool
samePackageBits(const MobilePackageModel &a, const MobilePackageModel &b)
{
    const auto bits = [](double x) {
        std::uint64_t u;
        std::memcpy(&u, &x, sizeof u);
        return u;
    };
    const ThermalNetwork &na = a.network();
    const ThermalNetwork &nb = b.network();
    for (const ThermalNodeId n : {a.junction(), a.caseNode(), a.pcm()}) {
        if (bits(na.temperature(n)) != bits(nb.temperature(n)) ||
            bits(na.meltFraction(n)) != bits(nb.meltFraction(n)))
            return false;
    }
    return true;
}

/** Outcome of a melt/freeze parity trace between the two integrators. */
struct MeltFreezeParity
{
    double max_temp_dev = 0.0; ///< max |T_Heun - T_Euler| [C]
    double max_mf_dev = 0.0;   ///< max melt-fraction deviation
    double final_melt_fraction = 0.0; ///< Heun melt fraction at the end
};

/**
 * Drive two phonePcm packages — reference Euler and Heun — through a
 * 16 W sprint of @p sprint_steps ms followed by @p cooldown_steps ms
 * of cooldown refreeze, sampling the junction every 1 ms, and report
 * the worst divergence (the equal-traces acceptance check).
 */
inline MeltFreezeParity
runMeltFreezeParity(int sprint_steps, int cooldown_steps)
{
    MobilePackageModel ref(MobilePackageParams::phonePcm());
    MobilePackageModel opt(MobilePackageParams::phonePcm());
    ref.network().setIntegrator(ThermalIntegrator::ReferenceEuler);
    opt.network().setIntegrator(ThermalIntegrator::Heun);

    MeltFreezeParity out;
    const int steps[] = {sprint_steps, cooldown_steps};
    const double power[] = {16.0, 0.0};
    for (int phase = 0; phase < 2; ++phase) {
        ref.setDiePower(power[phase]);
        opt.setDiePower(power[phase]);
        for (int i = 0; i < steps[phase]; ++i) {
            ref.step(1e-3);
            opt.step(1e-3);
            out.max_temp_dev =
                std::max(out.max_temp_dev,
                         std::fabs(ref.junctionTemp() -
                                   opt.junctionTemp()));
            out.max_mf_dev =
                std::max(out.max_mf_dev,
                         std::fabs(ref.meltFraction() -
                                   opt.meltFraction()));
        }
    }
    out.final_melt_fraction = opt.meltFraction();
    return out;
}

/**
 * The canonical quiescent-idle cooldown scenario: melt the PCM at
 * @p heat_power, cut the power, and cool through refreeze to ambient
 * over @p gap in @p samples sampled chunks. One definition shared by
 * gate 2 of BENCH_scale.json (bench/scenario_scale_report.cc),
 * BM_IdleCooling (bench/microbench.cc), and the quiescent parity test
 * (tests/thermal_quiescent_test.cc), so all three measure the same
 * thing.
 */
struct QuiescentCooldownSpec
{
    Watts heat_power = 14.0;   ///< melts the scaled 150 mg PCM fully
    Seconds heat_time = 2e-3;
    Seconds gap = 1.0;         ///< long idle rest (time-scaled seconds)
    int samples = 64;          ///< sampled chunks across the gap
    Celsius tol = 0.01;        ///< quiescent-stepper local tolerance
};

/** Heat @p pkg per @p spec, then cut the die power for the cooldown. */
inline void
meltThenIdle(MobilePackageModel &pkg,
             const QuiescentCooldownSpec &spec = {})
{
    pkg.reset();
    pkg.setDiePower(spec.heat_power);
    pkg.step(spec.heat_time);
    pkg.setDiePower(0.0);
}

/** Worst per-sample divergence, quiescent path vs exact step(). */
struct QuiescentCooldownParity
{
    double max_temp_dev = 0.0; ///< max |T_exact - T_quiescent| [C]
    double max_mf_dev = 0.0;   ///< max melt-fraction deviation
    Celsius final_junction = 0.0; ///< quiescent endpoint
    double final_melt = 0.0;      ///< quiescent endpoint
};

/**
 * Run the canonical cooldown on @p params through both idle paths,
 * comparing at every sampled chunk boundary.
 */
inline QuiescentCooldownParity
runQuiescentCooldownParity(const MobilePackageParams &params,
                           const QuiescentCooldownSpec &spec = {})
{
    MobilePackageModel exact(params), fast(params);
    meltThenIdle(exact, spec);
    meltThenIdle(fast, spec);

    QuiescentCooldownParity out;
    const Seconds h = spec.gap / spec.samples;
    for (int i = 0; i < spec.samples; ++i) {
        exact.step(h);
        fast.stepQuiescent(h, spec.tol);
        out.max_temp_dev =
            std::max(out.max_temp_dev,
                     std::fabs(exact.junctionTemp() -
                               fast.junctionTemp()));
        out.max_mf_dev = std::max(out.max_mf_dev,
                                  std::fabs(exact.meltFraction() -
                                            fast.meltFraction()));
    }
    out.final_junction = fast.junctionTemp();
    out.final_melt = fast.meltFraction();
    return out;
}

} // namespace csprint

#endif // CSPRINT_THERMAL_VALIDATION_HH
