/**
 * @file
 * Machine-readable before/after report for the architectural-simulator
 * hot path, written to BENCH_archsim.json (schema documented in
 * PERF.md).
 *
 * "Before" is the retained cycle-by-cycle loop
 * (MachineLoop::Reference) — the seed's scheduling semantics running
 * on the shared op/cache substrate; the seed's original implementation
 * additionally fetched every op through a virtual call, charged energy
 * per op, and kept the L2 directory in a hashed map, and is recorded
 * under seed_baseline when measurements are supplied. "After" is the
 * event-driven skip-ahead scheduler with batched op streams. Every
 * speedup is reported together with an exactness check — the two loops
 * must agree bit for bit on every RunResult field (firstDifference:
 * MachineStats, scalars, every trace sample) on the 16-core coupled
 * fig07 runs (both thermal design points) — so the acceptance
 * criterion is verified by the tool itself.
 *
 *   ./archsim_report [--out BENCH_archsim.json] [--reps N]
 *                    [--seed-coupled-small-ms N] [--seed-coupled-full-ms N]
 *                    [--seed-serial-ms N] [--seed-par16-ms N]
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "report.hh"
#include "sprint/experiment.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/** Median wall milliseconds per call, after one warmup call. */
template <typename F>
double
medianMs(F fn, int reps)
{
    std::vector<double> t;
    fn();
    for (int i = 0; i < reps; ++i) {
        Stopwatch sw;
        fn();
        t.push_back(1e3 * sw.seconds());
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

ExperimentSpec
fig07Spec(Grams pcm, MachineLoop loop)
{
    ExperimentSpec spec;
    spec.kernel = KernelId::Sobel;
    spec.size = InputSize::B;
    spec.cores = 16;
    spec.pcm_mass = pcm;
    spec.loop = loop;
    return spec;
}

/** The 16-core coupled fig07 run (one kernel, one design point). */
double
timeCoupled(Grams pcm, MachineLoop loop, int reps)
{
    return medianMs(
        [&] {
            const RunResult r =
                runParallelSprintExperiment(fig07Spec(pcm, loop));
            volatile double sink = r.task_time;
            (void)sink;
        },
        reps);
}

/** Machine-only run (no thermal coupling, no sample hook). */
double
timeMachine(int cores, InputSize size, MachineLoop loop, int reps)
{
    return medianMs(
        [&] {
            const ParallelProgram prog =
                buildKernelProgram(KernelId::Sobel, size);
            MachineConfig cfg;
            cfg.num_cores = cores;
            cfg.num_threads = cores;
            cfg.loop = loop;
            Machine m(cfg, prog);
            m.run();
            volatile Cycles sink = m.stats().cycles;
            (void)sink;
        },
        reps);
}

struct ParityResult
{
    std::string why; ///< first differing field, or empty
    double max_junction_dev = 0.0;
    double energy_rel_dev = 0.0;
};

/** Exactness of the event loop vs the reference loop, both points. */
ParityResult
checkParity()
{
    ParityResult result;
    for (Grams pcm : {kSmallPcm, kFullPcm}) {
        const RunResult ref = runParallelSprintExperiment(
            fig07Spec(pcm, MachineLoop::Reference));
        const RunResult ev = runParallelSprintExperiment(
            fig07Spec(pcm, MachineLoop::EventDriven));
        if (result.why.empty())
            result.why = firstDifference(ref, ev);
        if (ref.machine.dynamic_energy != 0.0) {
            result.energy_rel_dev = std::max(
                result.energy_rel_dev,
                std::abs(ev.machine.dynamic_energy -
                         ref.machine.dynamic_energy) /
                    ref.machine.dynamic_energy);
        }
        const std::size_t n = std::min(ref.junction_trace.size(),
                                       ev.junction_trace.size());
        for (std::size_t i = 0; i < n; ++i)
            result.max_junction_dev = std::max(
                result.max_junction_dev,
                std::abs(ref.junction_trace.valueAt(i) -
                         ev.junction_trace.valueAt(i)));
    }
    return result;
}

/** One before/after timing section, with the seed baseline if given. */
void
timingSection(JsonWriter &json, const char *key, double before_ms,
              double after_ms, double seed_ms)
{
    json.object(key, [&] {
        json.field("before_reference_ms", before_ms)
            .field("after_event_ms", after_ms)
            .field("speedup", before_ms / after_ms);
        if (seed_ms > 0.0) {
            json.object("seed_baseline", [&] {
                json.field("note",
                           "pre-refactor seed machine (per-cycle 16-core "
                           "scan, virtual per-op fetch, per-op energy, "
                           "hashed L2 directory) measured on this host")
                    .field("ms", seed_ms)
                    .field("speedup_vs_seed", seed_ms / after_ms);
            });
        }
    });
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv,
                   {"out", "reps", "seed-coupled-small-ms",
                    "seed-coupled-full-ms", "seed-serial-ms",
                    "seed-par16-ms"});
    Report report(args.get("out", "BENCH_archsim.json"),
                  "csprint-archsim-bench-v1", 4);
    JsonWriter &json = report.json();
    const int reps = static_cast<int>(args.getDouble("reps", 5));
    const double seed_small = args.getDouble("seed-coupled-small-ms", 0);
    const double seed_full = args.getDouble("seed-coupled-full-ms", 0);
    const double seed_serial = args.getDouble("seed-serial-ms", 0);
    const double seed_par16 = args.getDouble("seed-par16-ms", 0);

    std::cout << "measuring the archsim hot path (reps=" << reps
              << ")...\n";

    const ParityResult parity = checkParity();

    const double c_small_ref =
        timeCoupled(kSmallPcm, MachineLoop::Reference, reps);
    const double c_small_ev =
        timeCoupled(kSmallPcm, MachineLoop::EventDriven, reps);
    const double c_full_ref =
        timeCoupled(kFullPcm, MachineLoop::Reference, reps);
    const double c_full_ev =
        timeCoupled(kFullPcm, MachineLoop::EventDriven, reps);
    const double m1_ref =
        timeMachine(1, InputSize::A, MachineLoop::Reference, reps);
    const double m1_ev =
        timeMachine(1, InputSize::A, MachineLoop::EventDriven, reps);
    const double m16_ref =
        timeMachine(16, InputSize::B, MachineLoop::Reference, reps);
    const double m16_ev =
        timeMachine(16, InputSize::B, MachineLoop::EventDriven, reps);

    std::cout << "fig07 coupled 16-core 1.5 mg: ref " << c_small_ref
              << " ms -> event " << c_small_ev << " ms ("
              << c_small_ref / c_small_ev << "x)";
    if (seed_small > 0)
        std::cout << ", vs seed " << seed_small << " ms ("
                  << seed_small / c_small_ev << "x)";
    std::cout << "\nfig07 coupled 16-core 150 mg: ref " << c_full_ref
              << " ms -> event " << c_full_ev << " ms ("
              << c_full_ref / c_full_ev << "x)";
    if (seed_full > 0)
        std::cout << ", vs seed " << seed_full << " ms ("
                  << seed_full / c_full_ev << "x)";
    std::cout << "\nmachine serial sobel-A: " << m1_ref << " -> "
              << m1_ev << " ms; parallel16 sobel-B: " << m16_ref
              << " -> " << m16_ev << " ms\n"
              << "max junction deviation " << parity.max_junction_dev
              << " C\n";

    json.object("units", [&] {
        json.field("time",
                   "wall ms per run, median of " + std::to_string(reps));
    });
    json.object("parity", [&] {
        json.field("runs", "fig07 sobel-B 16-core parallel sprint, 1.5 mg "
                           "and 150 mg design points");
        report.flag("exact_machine_totals",
                    "event-driven loop vs reference loop parity",
                    parity.why.empty(), parity.why);
        json.field("max_junction_deviation_c", parity.max_junction_dev)
            .field("dynamic_energy_rel_deviation", parity.energy_rel_dev);
    });
    timingSection(json, "fig07_coupled_16core_1p5mg", c_small_ref,
                  c_small_ev, seed_small);
    timingSection(json, "fig07_coupled_16core_150mg", c_full_ref,
                  c_full_ev, seed_full);
    timingSection(json, "machine_run_serial_sobelA", m1_ref, m1_ev,
                  seed_serial);
    timingSection(json, "machine_run_parallel16_sobelB", m16_ref, m16_ev,
                  seed_par16);
    return report.finish();
}
