/**
 * @file
 * Thermal design-space explorer: sweep PCM mass and melting point and
 * report sustainable TDP, maximum sprint power, sprint duration at
 * 16 W, and cooldown — the trade-offs of paper Section 4.
 *
 * Every sweep point owns its package model, so both sweeps fan out
 * across an ExperimentRunner.
 *
 *   ./thermal_explorer --power 16
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "sprint/runner.hh"
#include "thermal/package.hh"
#include "thermal/transients.hh"

using namespace csprint;

namespace {

/** One row of the PCM-mass sweep. */
struct MassRow
{
    Joules budget = 0.0;
    Seconds time_to_limit = 0.0;
    Seconds plateau = 0.0;
    Seconds cooldown = 0.0;
};

/** One row of the melt-point sweep. */
struct MeltRow
{
    Watts sustainable_tdp = 0.0;
    Watts max_sprint_power = 0.0;
    Seconds time_to_limit = 0.0;
};

/** Print a table's title, its column @p header and an underline. */
void
printHeader(const char *title, const char *header)
{
    std::printf("== %s ==\n%s\n%s\n", title, header,
                std::string(std::strlen(header), '-').c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"power"});
    const double sprint_power = args.getDouble("power", 16.0);

    std::cout << "thermal design-space exploration at "
              << sprint_power << " W sprint power\n\n";

    ExperimentRunner runner;

    const std::vector<double> masses_mg = {0.0,   15.0,  75.0,
                                           150.0, 300.0, 600.0};
    std::vector<std::function<MassRow()>> mass_jobs;
    for (const double mg : masses_mg) {
        mass_jobs.emplace_back([mg, sprint_power] {
            MobilePackageModel pkg(
                MobilePackageParams::phonePcm(mg * 1e-3));
            MassRow row;
            const auto tr =
                runSprintTransient(pkg, sprint_power, 20.0, 1e-3);
            row.time_to_limit = tr.time_to_limit;
            row.plateau = tr.plateau_duration;
            const TimeSeries cool = runCooldownTransient(pkg, 120.0, 0.1);
            const auto near =
                cool.firstTimeBelow(pkg.params().ambient + 5.0);
            row.cooldown = near ? *near : 120.0;
            // As in the original driver: the budget column reports the
            // recovered budget after the sprint plus 120 s cooldown.
            row.budget = pkg.sprintEnergyBudget();
            return row;
        });
    }
    const std::vector<MassRow> mass_rows = runner.map(mass_jobs);

    printHeader("PCM mass sweep (melt point 60 C)",
                "PCM mass (mg)  budget (J)  sprint duration (s)  "
                "plateau (s)  cooldown to +5C (s)");
    for (std::size_t i = 0; i < masses_mg.size(); ++i) {
        const MassRow &row = mass_rows[i];
        std::printf("%-13.0f  %-10.1f  %-19.2f  %-11.2f  %.1f\n",
                    masses_mg[i], row.budget, row.time_to_limit,
                    row.plateau, row.cooldown);
    }

    std::cout << "\n";
    const std::vector<double> melts = {40.0, 50.0, 60.0, 65.0};
    std::vector<std::function<MeltRow()>> melt_jobs;
    for (const double melt : melts) {
        melt_jobs.emplace_back([melt, sprint_power] {
            MobilePackageParams params = MobilePackageParams::phonePcm();
            params.pcm_melt_temp = melt;
            MobilePackageModel pkg(params);
            MeltRow row;
            row.sustainable_tdp = pkg.sustainableTdp();
            row.max_sprint_power = pkg.maxSprintPower();
            row.time_to_limit =
                runSprintTransient(pkg, sprint_power, 20.0, 1e-3)
                    .time_to_limit;
            return row;
        });
    }
    const std::vector<MeltRow> melt_rows = runner.map(melt_jobs);

    printHeader("melt-point sweep (150 mg PCM)",
                "melt point (C)  sustainable TDP (W)  "
                "max sprint power (W)  sprint duration (s)");
    for (std::size_t i = 0; i < melts.size(); ++i) {
        const MeltRow &row = melt_rows[i];
        std::printf("%-14.0f  %-19.2f  %-20.1f  %.2f\n", melts[i],
                    row.sustainable_tdp, row.max_sprint_power,
                    row.time_to_limit);
    }

    std::cout << "\nHigher melt points raise the sustainable budget "
                 "and accelerate cooling (larger\ngradient to "
                 "ambient) but cut the margin to the junction limit, "
                 "reducing the\nmaximum sprint intensity (paper "
                 "Sections 4.4-4.5).\n";
    return 0;
}
