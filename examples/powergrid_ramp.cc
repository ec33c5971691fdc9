/**
 * @file
 * Power-grid ramp explorer: find the shortest core-activation ramp
 * that keeps the supply within tolerance on the Figure 5 network —
 * the engineering question behind paper Section 5's 128 us answer.
 *
 *   ./powergrid_ramp --cores 16 --tolerance 0.02
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/args.hh"
#include "powergrid/pdn.hh"

using namespace csprint;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"cores", "tolerance"});
    const int cores = static_cast<int>(args.getInt("cores", 16));
    const double tol = args.getDouble("tolerance", 0.02);

    PdnParams params = PdnParams::paper16();
    params.num_cores = cores;

    std::cout << "activation-ramp exploration: " << cores
              << " cores, +/-" << tol * 100.0 << "% tolerance on "
              << params.vdd << " V\n\n";

    const char *header =
        "ramp (us)  min V   undershoot (mV)  within tolerance?";
    std::printf("== ramp sweep ==\n%s\n%s\n", header,
                std::string(std::strlen(header), '-').c_str());

    const Seconds t0 = 5e-6;
    Seconds best_ramp = -1.0;
    for (double ramp_us :
         {0.0, 1.28, 5.0, 16.0, 48.0, 128.0, 256.0}) {
        const ActivationSchedule sched =
            ramp_us == 0.0
                ? ActivationSchedule::abrupt(t0)
                : ActivationSchedule::linearRamp(ramp_us * 1e-6, t0);
        PowerDeliveryNetwork pdn(params, sched);
        const Seconds window = std::max(120e-6, ramp_us * 1e-6 * 2.5);
        const SupplyTrace trace =
            pdn.simulate(window, 2e-9, window / 300.0);
        const SupplyMetrics m =
            computeSupplyMetrics(trace, params.vdd, tol, t0);
        std::printf("%-9.2f  %-6.4f  %-15.1f  %s\n", ramp_us,
                    m.min_voltage, (params.vdd - m.min_voltage) * 1e3,
                    m.within_tolerance ? "yes" : "NO");
        if (m.within_tolerance && best_ramp < 0.0)
            best_ramp = ramp_us * 1e-6;
    }

    if (best_ramp >= 0.0) {
        std::cout << "\nshortest in-tolerance ramp in this sweep: "
                  << best_ramp * 1e6 << " us";
        std::cout << "  (paper: 128 us is safe; the delay is "
                     "negligible against sub-second sprints)\n";
    } else {
        std::cout << "\nno ramp in this sweep met the tolerance\n";
    }
    return 0;
}
