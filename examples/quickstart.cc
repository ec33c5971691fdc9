/**
 * @file
 * Quickstart: build a sprint-enabled platform, run one kernel under
 * the three execution modes of the paper, and print the comparison.
 *
 *   ./quickstart --kernel sobel --size B --cores 16
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/args.hh"
#include "common/logging.hh"
#include "sprint/experiment.hh"
#include "sprint/simulation.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

KernelId
kernelFromName(const std::string &name)
{
    for (KernelId id : allKernels()) {
        if (kernelName(id) == name)
            return id;
    }
    SPRINT_FATAL("unknown kernel '", name,
                 "' (try sobel, feature, kmeans, disparity, texture, "
                 "segment)");
}

InputSize
sizeFromName(const std::string &name)
{
    if (name == "A")
        return InputSize::A;
    if (name == "B")
        return InputSize::B;
    if (name == "C")
        return InputSize::C;
    if (name == "D")
        return InputSize::D;
    SPRINT_FATAL("unknown input size '", name, "' (A-D)");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"kernel", "size", "cores", "seed"});
    const KernelId kernel =
        kernelFromName(args.get("kernel", "sobel"));
    const InputSize size = sizeFromName(args.get("size", "B"));
    const int cores = static_cast<int>(args.getInt("cores", 16));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));

    std::cout << "computational sprinting quickstart: "
              << kernelName(kernel) << ", input size "
              << inputSizeName(size) << ", " << cores
              << " sprint cores\n\n";

    const ParallelProgram program =
        buildKernelProgram(kernel, size, seed);

    const RunResult base =
        runSprint(program, SprintConfig::baseline());
    const RunResult par = runSprint(
        program, SprintConfig::parallelSprint(cores, kFullPcm));
    const RunResult dvfs = runSprint(
        program, SprintConfig::dvfsSprint(kPowerHeadroom, kFullPcm));

    const char *header = "mode                response time (ms)  speedup  "
                         "energy (mJ)  peak Tj (C)  exhausted?";
    std::printf("== execution modes ==\n%s\n%s\n", header,
                std::string(std::strlen(header), '-').c_str());
    auto row = [&](const char *mode, const RunResult &r) {
        std::printf("%-18s  %-18.3f  %-7.2f  %-11.3f  %-11.1f  %s\n",
                    mode, r.task_time * 1e3, base.task_time / r.task_time,
                    r.dynamic_energy * 1e3, r.peak_junction,
                    r.sprint_exhausted ? "yes" : "no");
    };
    row("sustained (1 core)", base);
    row("parallel sprint", par);
    row("DVFS sprint", dvfs);

    std::printf("\nsprint duration %.3f ms; estimated cooldown before the "
                "next sprint %.1f ms\n",
                par.sprint_duration * 1e3, par.cooldown_estimate * 1e3);
    return 0;
}
