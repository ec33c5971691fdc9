/**
 * @file
 * Machine-readable report for the fleet serving driver, written to
 * BENCH_fleet.json (schema documented in PERF.md, "Fleet serving").
 *
 * Gates the tool enforces itself (non-zero exit on failure):
 *
 *  1. scale — the benchmark fleet is representative: >= 64 devices
 *     sampled from >= 3 distinct device classes, served by >= 2
 *     worker processes.
 *
 *  2. transport_parity — the multi-process run equals the in-process
 *     run bit-for-bit on every shared aggregate field and on every
 *     per-device checkpoint digest.
 *
 *  3. kill_recovery_parity — a CSPRINT_DIFF_SEED-derived KillWorker
 *     plan (the seed rotates in CI, so every run kills a different
 *     shard at a different checkpoint) recovers bit-identical to the
 *     uninterrupted multi-process run.
 *
 *  4. throughput — the process transport sustains at least 0.9x the
 *     in-process per-shard device throughput (fork/exec, the pipe
 *     protocol, and checkpoint reaping are bounded overheads), read
 *     as the median of three alternating timed pairs after one
 *     untimed warm-up run; the speedup field itself is advisory.
 *
 *  5. parent_memory — the multi-process parent's peak RSS is flat in
 *     the device count: fleets of 64 and 512 devices each run in a
 *     fresh re-exec of this binary (--probe-devices N), which reports
 *     its own VmHWM peak (peakRssKb in bench/report.hh: unlike
 *     RUSAGE_SELF, it does not inherit this launcher's RSS across
 *     exec), and the
 *     growth between them stays within 8 KB per device.
 *
 *   ./fleet_report [--out BENCH_fleet.json] [--devices N]
 *                  [--workers W] [--seed S]
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/args.hh"
#include "common/stats.hh"
#include "report.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/supervisor.hh"

using namespace csprint;

namespace {

/** Three-class population: phone-ish, tablet-ish, and a bursty mix. */
FleetSpec
benchFleet(std::uint64_t seed, int devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = devices;

    FleetDeviceClass phone;
    phone.weight = 3.0;
    phone.cores = 4;
    phone.pcm_mass_lo = kSmallPcm;
    phone.pcm_mass_hi = 2.0 * kSmallPcm;
    phone.ambient_lo = 22.0;
    phone.ambient_hi = 32.0;
    phone.policy = SprintPolicyKind::GreedyActivity;
    phone.num_tasks = 3;
    phone.period = 2.5e-3;
    spec.classes.push_back(phone);

    FleetDeviceClass tablet;
    tablet.weight = 2.0;
    tablet.cores = 8;
    tablet.pcm_mass_lo = 2.0 * kSmallPcm;
    tablet.pcm_mass_hi = 4.0 * kSmallPcm;
    tablet.ambient_lo = 20.0;
    tablet.ambient_hi = 28.0;
    tablet.policy = SprintPolicyKind::DutyCycle;
    tablet.pacing_period = 2.5e-3;
    tablet.num_tasks = 3;
    tablet.period = 2.0e-3;
    spec.classes.push_back(tablet);

    FleetDeviceClass bursty;
    bursty.weight = 1.0;
    bursty.cores = 4;
    bursty.pcm_mass_lo = kSmallPcm;
    bursty.pcm_mass_hi = 3.0 * kSmallPcm;
    bursty.ambient_lo = 24.0;
    bursty.ambient_hi = 30.0;
    bursty.policy = SprintPolicyKind::GreedyActivity;
    bursty.num_tasks = 4;
    bursty.period = 1.5e-3;
    bursty.hi_priority_fraction = 0.5;
    bursty.deadline_hi = 1.0e-3;
    bursty.mix = {{KernelId::Sobel, InputSize::A, 2.0},
                  {KernelId::Kmeans, InputSize::A, 1.0}};
    spec.classes.push_back(bursty);

    return spec;
}

FleetOptions
fleetOptions(const char *tag, int workers)
{
    FleetOptions opts;
    opts.num_workers = workers;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;
    opts.store_dir = freshDir(tag);
    return opts;
}

/** Fleet sizes of the parent-memory probe, and its growth bound. */
constexpr int kProbeSmall = 64;
constexpr int kProbeLarge = 512;
constexpr double kProbeBoundKbPerDevice = 8.0;

/**
 * Probe child: run one multi-process fleet of @p devices and print
 * this process's peak RSS in KB (the workers are other processes and
 * do not count).
 */
int
probeParentMemory(std::uint64_t seed, int devices, int workers)
{
    const FleetOptions opts = fleetOptions("probe", workers);
    const FleetResult res =
        runFleetMultiProcess(benchFleet(seed, devices), opts);
    std::cout << "peak_rss_kb " << peakRssKb() << "\n";
    return res.allOk() ? 0 : 1;
}

/** Re-exec this binary as a probe child; its peak RSS in KB, or -1. */
long
probeChildPeakKb(std::uint64_t seed, int devices, int workers)
{
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0)
        return -1;
    exe[n] = '\0';
    const std::string cmd = "'" + std::string(exe) + "' --probe-devices " +
                            std::to_string(devices) + " --workers " +
                            std::to_string(workers) + " --seed " +
                            std::to_string(seed);
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    long kb = -1;
    char line[256];
    while (std::fgets(line, sizeof(line), pipe))
        std::sscanf(line, "peak_rss_kb %ld", &kb);
    return ::pclose(pipe) == 0 ? kb : -1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv,
                   {"out", "devices", "workers", "seed", "probe-devices"});
    const int devices = static_cast<int>(args.getInt("devices", 64));
    const int workers = static_cast<int>(args.getInt("workers", 4));
    const std::uint64_t seed = diffSeed(args, 1u);
    if (args.has("probe-devices"))
        return probeParentMemory(
            seed, static_cast<int>(args.getInt("probe-devices", 0)),
            workers);
    Report report(args.get("out", "BENCH_fleet.json"),
                  "csprint-fleet-bench-v2");
    JsonWriter &json = report.json();
    json.field("diff_seed", seed);

    // --- Gate 1: fleet scale. --------------------------------------
    const FleetSpec spec = benchFleet(seed, devices);
    std::cout << "fleet scale: " << spec.num_devices << " devices, "
              << spec.classes.size() << " classes, " << workers
              << " workers\n";
    json.object("fleet", [&] {
        json.field("devices", spec.num_devices)
            .field("classes", spec.classes.size())
            .field("workers", workers);
        report.flag("scale_ok",
                    "fleet scale (>= 64 devices, 3 classes, 2 workers)",
                    spec.num_devices >= 64 && spec.classes.size() >= 3 &&
                        workers >= 2);
    });

    // --- Gate 2: transport parity (and the throughput numbers). ----
    // One untimed warm-up pass, then three alternating in-process /
    // multi-process pairs (seconds each): parity reads the first pair,
    // the throughput gate the pair of median ratio.
    runFleetMultiProcess(spec, fleetOptions("warm", workers));
    std::vector<FleetResult> ips, mps;
    std::vector<std::pair<double, double>> pairs;
    for (Stopwatch sw; pairs.size() < 3;) {
        ips.push_back(runFleetInProcess(spec, fleetOptions("ip", workers)));
        const double lap = sw.lap();
        mps.push_back(runFleetMultiProcess(spec, fleetOptions("mp", workers)));
        pairs.emplace_back(lap, sw.lap());
    }
    const FleetResult &ip = ips[0], &mp = mps[0];
    const std::string parity_why = ip.allOk() && mp.allOk()
                                       ? firstDifference(ip, mp)
                                       : "degraded range";
    json.object("transport_parity", [&] {
        report.flag("exact", "transport parity", parity_why.empty(),
                    parity_why);
    });

    // --- Gate 3: seed-rotated kill-recovery parity. ----------------
    // Kill one worker mid-range at a seed-chosen device/checkpoint;
    // the respawned worker must resume from persisted state and land
    // bit-identical to the uninterrupted run.
    FaultPlan plan;
    const int victim = static_cast<int>(seed % devices);
    const std::uint64_t at_seq = 1 + seed % 2;
    plan.faults.push_back({victim, FaultKind::KillWorker, at_seq});
    const FleetResult killed = runFleetMultiProcess(
        spec, fleetOptions("kill", workers), plan);
    int respawns = 0;
    for (const FleetWorkerStats &w : killed.workers)
        respawns += w.respawns;
    const std::string kill_why =
        !killed.allOk() ? "degraded range"
        : respawns < 1  ? "fault never fired"
                        : firstDifference(mp, killed);
    json.object("kill_recovery_parity", [&] {
        report.flag("exact",
                    "kill-recovery parity (device " +
                        std::to_string(victim) + " seq " +
                        std::to_string(at_seq) + ")",
                    kill_why.empty(), kill_why);
        json.field("victim_device", victim).field("respawns", respawns);
    });

    // --- Gate 4: per-shard throughput (the median pair). -----------
    std::sort(pairs.begin(), pairs.end(), [](const auto &a, const auto &b) {
        return a.first / a.second < b.first / b.second;
    });
    const double ip_rate = devices / pairs[1].first;
    const double mp_rate = devices / pairs[1].second;
    const double ratio = mp_rate / ip_rate;
    std::cout << "throughput: in-process " << ip_rate
              << " devices/s, multi-process " << mp_rate
              << " devices/s (" << ratio << "x)\n";
    json.object("throughput", [&] {
        json.field("inproc_devices_per_s", ip_rate)
            .field("mp_devices_per_s", mp_rate)
            .field("mp_speedup_vs_inproc", ratio);
        report.flag("pass", "throughput >= 0.9x in-process", ratio >= 0.9);
    });

    // --- Gate 5: parent memory flat in the device count. -----------
    const long small_kb = probeChildPeakKb(seed, kProbeSmall, workers);
    const long large_kb = probeChildPeakKb(seed, kProbeLarge, workers);
    const double kb_per_device =
        static_cast<double>(large_kb - small_kb) /
        (kProbeLarge - kProbeSmall);
    std::cout << "parent memory: peak RSS " << small_kb / 1024.0
              << " MB at " << kProbeSmall << " devices, "
              << large_kb / 1024.0 << " MB at " << kProbeLarge
              << " devices (" << kb_per_device << " KB/device)\n";
    json.object("parent_memory", [&] {
        json.field("devices", std::vector<int>{kProbeSmall, kProbeLarge})
            .field("peak_rss_mb", std::vector<double>{small_kb / 1024.0,
                                                      large_kb / 1024.0})
            .field("kb_per_device", kb_per_device)
            .field("bound_kb_per_device", kProbeBoundKbPerDevice);
        report.flag("pass", "parent memory <= 8 KB/device",
                    small_kb > 0 && large_kb > 0 &&
                        kb_per_device <= kProbeBoundKbPerDevice,
                    "over bound or probe failed");
    });

    const FleetAggregates &agg = mp.aggregates;
    json.object("aggregates", [&] {
        json.field("tasks_completed", agg.tasks_completed)
            .field("deadline_slo", agg.deadlineSlo())
            .field("thermal_violation_rate", agg.thermalViolationRate())
            .field("melt_cycles", agg.melt_cycles)
            .field("p50_response", agg.response_p50.value())
            .field("p95_response", agg.response_p95.value());
    });
    json.field("all_gates_pass", report.allPass());
    return report.finish();
}
