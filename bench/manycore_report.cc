/**
 * @file
 * Machine-readable report for the many-core machine work, written to
 * BENCH_manycore.json (schema documented in PERF.md, "Many-core
 * machine").
 *
 * Two sections, each an acceptance gate the tool enforces itself
 * (non-zero exit on failure):
 *
 *  1. fig10_manycore — the Figure 10 core-count sweep extended past
 *     the old 64-core directory cap: parallel-sprint speedup over the
 *     single-core baseline at 16/64/256/1024 cores. Gate: every width
 *     completes with retired ops and the 256-core sprint beats the
 *     baseline.
 *
 *  2. sparse_parity — a 256-core coupled sprint under the sparse
 *     (limited-pointer + overflow) directory against DirectoryKind::
 *     FullMap, bit-for-bit on every RunResult field (stats, energy,
 *     every trace sample; firstDifference).
 *
 *   ./manycore_report [--out BENCH_manycore.json]
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "report.hh"
#include "sprint/experiment.hh"
#include "sprint/simulation.hh"
#include "workloads/workload.hh"

using namespace csprint;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out"});
    Report report(args.get("out", "BENCH_manycore.json"),
                  "csprint-manycore-bench-v2");
    JsonWriter &json = report.json();

    // --- Gate 1: Figure 10 sweep past the 64-core cap. --------------
    ExperimentSpec base_spec;
    base_spec.kernel = KernelId::Sobel;
    base_spec.size = InputSize::B;
    base_spec.time_scale = 1e-2;
    const RunResult base = runBaselineExperiment(base_spec);

    const std::vector<int> widths = {16, 64, 256, 1024};
    std::vector<double> sweep_speedup;
    std::vector<std::uint64_t> sweep_ops;
    bool every_width_ran = true;
    for (int cores : widths) {
        ExperimentSpec spec = base_spec;
        spec.cores = cores;
        const RunResult run = runParallelSprintExperiment(spec);
        const double sp = speedupOver(base, run);
        sweep_speedup.push_back(sp);
        sweep_ops.push_back(run.machine.ops_retired);
        every_width_ran = every_width_ran && run.machine.ops_retired > 0;
        std::cout << "fig10 manycore: " << cores << " cores, speedup "
                  << sp << "x, " << run.machine.ops_retired
                  << " ops\n";
    }
    json.object("fig10_manycore", [&] {
        json.field("config", "sobel-B, time scale 1e-2, parallel sprint "
                             "vs 1-core baseline")
            .field("cores", widths)
            .field("speedup", sweep_speedup)
            .field("ops_retired", sweep_ops);
        // 256 cores must beat the baseline.
        report.flag("pass", "fig10 manycore sweep",
                    every_width_ran && sweep_speedup[2] > 1.0);
    });

    // --- Gate 2: sparse directory == full map at 256 cores. ---------
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
    SprintConfig cfg = SprintConfig::parallelSprint(256, kFullPcm, 1e-2);
    const RunResult sparse = runSprint(prog, cfg);
    cfg.machine.l2.directory = DirectoryKind::FullMap;
    const RunResult fullmap = runSprint(prog, cfg);
    json.object("sparse_parity", [&] {
        json.field("config", "256-core sobel-B coupled sprint, sparse vs "
                             "full-map directory");
        report.parity("sparse directory parity (256 cores)",
                      firstDifference(sparse, fullmap));
    });
    return report.finish();
}
