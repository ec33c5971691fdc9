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
 *     FullMap, bit-for-bit across stats, energy, and the junction
 *     trace.
 *
 *   ./manycore_report [--out BENCH_manycore.json]
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "sprint/experiment.hh"
#include "sprint/simulation.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/** Bit-for-bit equality of two coupled runs, traces included. */
bool
exactSameRun(const RunResult &a, const RunResult &b, std::string &why)
{
    auto fail = [&why](const char *what) {
        why = what;
        return false;
    };
    if (a.machine.cycles != b.machine.cycles)
        return fail("cycles");
    if (a.machine.ops_retired != b.machine.ops_retired)
        return fail("ops_retired");
    if (a.machine.ops_by_kind != b.machine.ops_by_kind)
        return fail("ops_by_kind");
    if (a.machine.idle_cycles != b.machine.idle_cycles)
        return fail("idle_cycles");
    if (a.machine.l1_hits != b.machine.l1_hits)
        return fail("l1_hits");
    if (a.machine.l1_misses != b.machine.l1_misses)
        return fail("l1_misses");
    if (a.machine.dynamic_energy != b.machine.dynamic_energy)
        return fail("dynamic_energy");
    if (a.task_time != b.task_time)
        return fail("task_time");
    if (a.dynamic_energy != b.dynamic_energy)
        return fail("run dynamic_energy");
    if (a.peak_junction != b.peak_junction)
        return fail("peak_junction");
    if (a.sprint_exhausted != b.sprint_exhausted)
        return fail("sprint_exhausted");
    if (a.hardware_throttled != b.hardware_throttled)
        return fail("hardware_throttled");
    if (a.junction_trace.size() != b.junction_trace.size())
        return fail("junction_trace size");
    for (std::size_t i = 0; i < a.junction_trace.size(); ++i) {
        if (a.junction_trace.timeAt(i) != b.junction_trace.timeAt(i) ||
            a.junction_trace.valueAt(i) != b.junction_trace.valueAt(i))
            return fail("junction_trace");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out"});
    const std::string out_path = args.get("out", "BENCH_manycore.json");

    // --- Gate 1: Figure 10 sweep past the 64-core cap. --------------
    ExperimentSpec base_spec;
    base_spec.kernel = KernelId::Sobel;
    base_spec.size = InputSize::B;
    base_spec.time_scale = 1e-2;
    const RunResult base = runBaselineExperiment(base_spec);

    const std::vector<int> widths = {16, 64, 256, 1024};
    std::vector<double> sweep_speedup;
    std::vector<std::uint64_t> sweep_ops;
    bool sweep_ok = true;
    for (int cores : widths) {
        ExperimentSpec spec = base_spec;
        spec.cores = cores;
        const RunResult run = runParallelSprintExperiment(spec);
        const double sp = speedupOver(base, run);
        sweep_speedup.push_back(sp);
        sweep_ops.push_back(run.machine.ops_retired);
        if (run.machine.ops_retired == 0)
            sweep_ok = false;
        std::cout << "fig10 manycore: " << cores << " cores, speedup "
                  << sp << "x, " << run.machine.ops_retired
                  << " ops\n";
    }
    if (sweep_speedup[2] <= 1.0)  // 256 cores must beat the baseline
        sweep_ok = false;
    if (!sweep_ok)
        std::cerr << "fig10 manycore sweep FAIL\n";

    // --- Gate 2: sparse directory == full map at 256 cores. ---------
    bool sparse_ok = true;
    std::string sparse_why;
    {
        const ParallelProgram prog =
            buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
        SprintConfig cfg =
            SprintConfig::parallelSprint(256, kFullPcm, 1e-2);
        const RunResult sparse = runSprint(prog, cfg);
        cfg.machine.l2.directory = DirectoryKind::FullMap;
        const RunResult fullmap = runSprint(prog, cfg);
        sparse_ok = exactSameRun(sparse, fullmap, sparse_why);
        std::cout << "sparse directory parity (256 cores): "
                  << (sparse_ok ? "exact" : "MISMATCH: " + sparse_why)
                  << "\n";
    }

    // --- Emit the report. -------------------------------------------
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"csprint-manycore-bench-v2\",\n"
        << "  \"fig10_manycore\": {\n"
        << "    \"config\": \"sobel-B, time scale 1e-2, parallel "
           "sprint vs 1-core baseline\",\n"
        << "    \"cores\": [16, 64, 256, 1024],\n"
        << "    \"speedup\": [" << sweep_speedup[0] << ", "
        << sweep_speedup[1] << ", " << sweep_speedup[2] << ", "
        << sweep_speedup[3] << "],\n"
        << "    \"ops_retired\": [" << sweep_ops[0] << ", "
        << sweep_ops[1] << ", " << sweep_ops[2] << ", " << sweep_ops[3]
        << "],\n"
        << "    \"pass\": " << (sweep_ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"sparse_parity\": {\n"
        << "    \"config\": \"256-core sobel-B coupled sprint, sparse "
           "vs full-map directory\",\n"
        << "    \"exact\": " << (sparse_ok ? "true" : "false");
    if (!sparse_ok)
        out << ",\n    \"first_mismatch\": \"" << sparse_why << "\"";
    out << "\n  }\n"
        << "}\n";
    std::cout << "wrote " << out_path << "\n";

    if (!sweep_ok) {
        std::cerr << "FAIL: many-core fig10 sweep\n";
        return 1;
    }
    if (!sparse_ok) {
        std::cerr << "FAIL: sparse directory diverged from full map\n";
        return 1;
    }
    return 0;
}
