/**
 * @file
 * Machine-readable before/after report for the thermal hot path,
 * written to BENCH_thermal.json (schema documented in PERF.md).
 *
 * "Before" is the retained first-order reference integrator
 * (ThermalIntegrator::ReferenceEuler) — the seed's integration scheme
 * running on the optimized CSR kernel; the seed's original
 * implementation additionally heap-allocated per substep and
 * recomputed the stability bound per step, and is recorded under
 * seed_baseline when a measurement is supplied. "After" is the Heun
 * hot path. Every speedup is reported together with the maximum
 * junction-temperature deviation between the two integrators over a
 * full melt/freeze transient, so the acceptance criterion (>= 5x at
 * equal traces within 0.1 C) is checked by the tool itself.
 *
 * The Heun step on the package runs ThermalNetwork's straight-line
 * package loop; package_kernel times it against the generic CSR loop
 * on the same package and fails the run unless the two agree bit for
 * bit at every step of a melt/refreeze trace.
 *
 *   ./thermal_report [--out BENCH_thermal.json]
 *                    [--seed-thermal-step-ns N]
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "sprint/runner.hh"
#include "thermal/package.hh"
#include "thermal/transients.hh"
#include "thermal/validation.hh"

using namespace csprint;

namespace {

/** Nanoseconds per call of @p fn, after a warmup pass. */
template <typename F>
double
nsPerCall(F fn, int iters)
{
    for (int i = 0; i < iters / 10 + 1; ++i)
        fn();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           iters;
}

/**
 * ns per step(@p dt) on the phonePcm package at 16 W sprint power;
 * @p csr pins the Heun step to the generic CSR loop (pinToCsrLoop)
 * instead of the package loop.
 */
double
timePackageStep(ThermalIntegrator scheme, int iters, Seconds dt = 1e-3,
                bool csr = false)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    if (csr)
        pinToCsrLoop(pkg);
    pkg.network().setIntegrator(scheme);
    pkg.setDiePower(16.0);
    volatile double sink = 0.0;
    const double ns = nsPerCall(
        [&] {
            pkg.step(dt);
            sink = pkg.junctionTemp();
        },
        iters);
    (void)sink;
    return ns;
}

/**
 * Steps at which the package loop and the CSR loop disagree in any
 * bit of any node's temperature or melt fraction, over a phonePcm
 * 16 W melt of @p sprint_steps ms and a refreeze of @p cooldown_steps
 * ms (1 ms steps, the second half of the cooldown through the
 * quiescent stepper).
 */
long
packageKernelMismatches(int sprint_steps, int cooldown_steps)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    MobilePackageModel csr(MobilePackageParams::phonePcm());
    pinToCsrLoop(csr);
    long mismatches = 0;
    for (int i = 0; i < sprint_steps + cooldown_steps; ++i) {
        const Watts power = i < sprint_steps ? 16.0 : 0.0;
        pkg.setDiePower(power);
        csr.setDiePower(power);
        if (i < sprint_steps + cooldown_steps / 2) {
            pkg.step(1e-3);
            csr.step(1e-3);
        } else {
            pkg.stepQuiescent(1e-3);
            csr.stepQuiescent(1e-3);
        }
        mismatches += samePackageBits(pkg, csr) ? 0 : 1;
    }
    return mismatches;
}

/** ns per step(1e-3) on a ladder of PCM nodes on the latent plateau. */
double
timePcmHeavyStep(ThermalIntegrator scheme, int nodes, int iters)
{
    ThermalNetwork net(25.0);
    buildPcmLadder(net, nodes);
    net.setIntegrator(scheme);
    volatile double sink = 0.0;
    const double ns = nsPerCall(
        [&] {
            net.step(1e-3);
            sink = net.temperature(0);
        },
        iters);
    (void)sink;
    return ns;
}


/**
 * Seconds to run a batch of sprint transients; serial when @p runner
 * is null (pool construction is excluded from the timed region).
 */
double
timeBatch(ExperimentRunner *runner, int batch)
{
    const auto one = [] {
        MobilePackageModel pkg(MobilePackageParams::phonePcm());
        // Sprint, then cooldown: the full Figure 4 shape.
        const auto tr = runSprintTransient(pkg, 16.0, 3.0, 2.5e-4);
        runCooldownTransient(pkg, 40.0, 1e-2);
        return tr.time_to_limit;
    };
    const auto t0 = std::chrono::steady_clock::now();
    if (runner == nullptr) {
        volatile double sum = 0.0;
        for (int i = 0; i < batch; ++i)
            sum = sum + one();
        (void)sum;
    } else {
        std::vector<std::function<double()>> jobs(
            static_cast<std::size_t>(batch), one);
        runner->map(jobs);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "seed-thermal-step-ns", "iters"});
    const std::string out_path = args.get("out", "BENCH_thermal.json");
    // Optional: the measured ns/step of the pre-refactor seed
    // implementation on this host (it cannot be re-measured from this
    // tree; pass it through when known).
    const double seed_ns = args.getDouble("seed-thermal-step-ns", 0.0);
    const int iters = static_cast<int>(args.getDouble("iters", 2000000));

    std::cout << "measuring thermal hot path (this takes ~a minute)...\n";

    const double euler_ns =
        timePackageStep(ThermalIntegrator::ReferenceEuler, iters);
    const double heun_ns =
        timePackageStep(ThermalIntegrator::Heun, iters);
    // The package kernel against the CSR loop it replaces, at one
    // substep per step (1 ms) and at ten (40 ms).
    const double csr_ns = timePackageStep(ThermalIntegrator::Heun, iters,
                                          1e-3, true);
    const double csr10_ns = timePackageStep(ThermalIntegrator::Heun,
                                            iters / 10, 4e-2, true);
    const double pkg10_ns =
        timePackageStep(ThermalIntegrator::Heun, iters / 10, 4e-2);
    const long kernel_mismatches = packageKernelMismatches(1500, 30000);
    const double pcm_euler_ns =
        timePcmHeavyStep(ThermalIntegrator::ReferenceEuler, 32,
                         iters / 50);
    const double pcm_heun_ns =
        timePcmHeavyStep(ThermalIntegrator::Heun, 32, iters / 50);
    // The equal-traces check of the acceptance criterion: a 16 W melt
    // transient plus cooldown refreeze, both integrators, 1 ms samples.
    const double deviation =
        runMeltFreezeParity(1500, 30000).max_temp_dev;
    const int batch = 32;
    const double batch_serial_s = timeBatch(nullptr, batch);
    ExperimentRunner runner;
    const int workers = runner.workerCount();
    const double batch_pool_s = timeBatch(&runner, batch);

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(4);
    out << "{\n"
        << "  \"schema\": \"csprint-thermal-bench-v1\",\n"
        << "  \"units\": {\"time\": \"ns/step unless noted\"},\n"
        << "  \"parity\": {\n"
        << "    \"max_junction_deviation_c\": " << deviation << ",\n"
        << "    \"budget_c\": 0.1,\n"
        << "    \"trace\": \"phonePcm 16 W melt transient + cooldown "
           "refreeze, 1 ms sampling\"\n"
        << "  },\n"
        << "  \"phone_pcm_step_1ms\": {\n"
        << "    \"before_reference_euler_ns\": " << euler_ns << ",\n"
        << "    \"after_heun_ns\": " << heun_ns << ",\n"
        << "    \"speedup\": " << euler_ns / heun_ns;
    if (seed_ns > 0.0) {
        out << ",\n    \"seed_baseline\": {\n"
            << "      \"note\": \"pre-refactor seed implementation "
               "(allocating Euler, uncached stability bound) measured "
               "on this host\",\n"
            << "      \"ns\": " << seed_ns << ",\n"
            << "      \"speedup_vs_seed\": " << seed_ns / heun_ns
            << "\n    }";
    }
    out << "\n  },\n"
        << "  \"package_kernel\": {\n"
        << "    \"bit_exact\": "
        << (kernel_mismatches == 0 ? "true" : "false") << ",\n"
        << "    \"mismatched_steps\": " << kernel_mismatches << ",\n"
        << "    \"trace\": \"phonePcm 16 W melt + cooldown refreeze, 1 ms "
           "steps, every node's temperature and melt fraction\",\n"
        << "    \"step_1ms\": {\"csr_loop_ns\": " << csr_ns
        << ", \"package_loop_ns\": " << heun_ns
        << ", \"speedup\": " << csr_ns / heun_ns << "},\n"
        << "    \"step_40ms_10_substeps\": {\"csr_loop_ns\": " << csr10_ns
        << ", \"package_loop_ns\": " << pkg10_ns
        << ", \"speedup\": " << csr10_ns / pkg10_ns << "}\n"
        << "  },\n"
        << "  \"pcm_heavy_step_1ms_32_nodes\": {\n"
        << "    \"before_reference_euler_ns\": " << pcm_euler_ns << ",\n"
        << "    \"after_heun_ns\": " << pcm_heun_ns << ",\n"
        << "    \"speedup\": " << pcm_euler_ns / pcm_heun_ns << "\n"
        << "  },\n"
        << "  \"batched_sprint_transients\": {\n"
        << "    \"batch_size\": " << batch << ",\n"
        << "    \"serial_s\": " << batch_serial_s << ",\n"
        << "    \"pool_workers\": " << workers << ",\n"
        << "    \"pool_s\": " << batch_pool_s << ",\n"
        << "    \"throughput_gain\": " << batch_serial_s / batch_pool_s
        << "\n  }\n"
        << "}\n";

    std::cout << "phonePcm step(1e-3): reference Euler " << euler_ns
              << " ns -> Heun " << heun_ns << " ns ("
              << euler_ns / heun_ns << "x)\n"
              << "PCM-heavy (32 nodes): " << pcm_euler_ns << " -> "
              << pcm_heun_ns << " ns (" << pcm_euler_ns / pcm_heun_ns
              << "x)\n"
              << "package kernel vs CSR loop: 1 ms " << csr_ns << " -> "
              << heun_ns << " ns, 40 ms " << csr10_ns << " -> " << pkg10_ns
              << " ns, " << kernel_mismatches << " mismatched steps\n"
              << "max trace deviation: " << deviation << " C (budget 0.1)\n"
              << "batch of " << batch << ": serial " << batch_serial_s
              << " s, pool(" << workers << ") " << batch_pool_s << " s\n"
              << "wrote " << out_path << "\n";

    const bool parity_ok = deviation <= 0.1;
    if (!parity_ok)
        std::cerr << "FAIL: trace deviation exceeds 0.1 C budget\n";
    if (kernel_mismatches != 0)
        std::cerr << "FAIL: package loop differs from the CSR loop at "
                  << kernel_mismatches << " steps\n";
    return parity_ok && kernel_mismatches == 0 ? 0 : 1;
}
