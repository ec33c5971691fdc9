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
 *     protocol, and checkpoint reaping are bounded overheads); the
 *     speedup field itself is advisory.
 *
 *  5. parent_memory — the multi-process parent's peak RSS is flat in
 *     the device count: fleets of 64 and 512 devices each run in a
 *     fresh re-exec of this binary (--probe-devices N), which reports
 *     its own VmHWM peak (bench/peak_rss.hh: unlike RUSAGE_SELF, it
 *     does not inherit this launcher's RSS across exec), and the
 *     growth between them stays within 8 KB per device.
 *
 *   ./fleet_report [--out BENCH_fleet.json] [--devices N]
 *                  [--workers W] [--seed S]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/args.hh"
#include "common/stats.hh"
#include "peak_rss.hh"
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

std::string
freshDir(const char *tag)
{
    std::string tmpl = std::string("/tmp/csprint-bench-") + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    return std::string(dir ? dir : "/tmp");
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

/** First difference of two fleet runs (aggregates, then digests). */
std::string
firstFleetDifference(const FleetResult &a, const FleetResult &b)
{
    std::string why = firstDifference(a.aggregates, b.aggregates);
    if (!why.empty())
        return why;
    if (a.devices.size() != b.devices.size())
        return "device count";
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
        if (a.devices[d].completed != b.devices[d].completed ||
            a.devices[d].checkpoint_digest !=
                b.devices[d].checkpoint_digest)
            return "device " + std::to_string(d) + " digest";
    }
    return "";
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
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
    std::error_code ec;
    std::filesystem::remove_all(opts.store_dir, ec);
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
    if (std::fscanf(pipe, "peak_rss_kb %ld", &kb) != 1)
        kb = -1;
    return ::pclose(pipe) == 0 ? kb : -1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv,
                   {"out", "devices", "workers", "seed", "probe-devices"});
    const std::string out_path = args.get("out", "BENCH_fleet.json");
    const int devices = static_cast<int>(args.getInt("devices", 64));
    const int workers = static_cast<int>(args.getInt("workers", 4));

    // The rotating differential seed: CLI flag beats the env, the
    // env beats the fixed default. Logged so a CI failure can be
    // replayed locally with --seed.
    const std::uint64_t seed = static_cast<std::uint64_t>(args.getInt(
        "seed",
        static_cast<long long>(envSeed("CSPRINT_DIFF_SEED", 1u))));
    if (args.has("probe-devices"))
        return probeParentMemory(
            seed, static_cast<int>(args.getInt("probe-devices", 0)),
            workers);
    std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED=" << seed << "\n";

    const FleetSpec spec = benchFleet(seed, devices);
    bool all_ok = true;

    // --- Gate 1: fleet scale. --------------------------------------
    const bool scale_ok = spec.num_devices >= 64 &&
                          spec.classes.size() >= 3 && workers >= 2;
    std::cout << "fleet scale: " << spec.num_devices << " devices, "
              << spec.classes.size() << " classes, " << workers
              << " workers" << (scale_ok ? "" : " — BELOW FLOOR")
              << "\n";
    all_ok = all_ok && scale_ok;

    // --- Gate 2: transport parity (and the throughput numbers). ----
    const auto t_ip = std::chrono::steady_clock::now();
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions("ip", workers));
    const double ip_s = secondsSince(t_ip);

    const auto t_mp = std::chrono::steady_clock::now();
    const FleetResult mp =
        runFleetMultiProcess(spec, fleetOptions("mp", workers));
    const double mp_s = secondsSince(t_mp);

    const std::string parity_why = ip.allOk() && mp.allOk()
                                       ? firstFleetDifference(ip, mp)
                                       : "degraded range";
    const bool parity_ok = parity_why.empty();
    std::cout << "transport parity: "
              << (parity_ok ? "exact" : "MISMATCH");
    if (!parity_ok)
        std::cout << " (" << parity_why << ")";
    std::cout << "\n";
    all_ok = all_ok && parity_ok;

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
    std::string kill_why;
    if (!killed.allOk())
        kill_why = "degraded range";
    else if (respawns < 1)
        kill_why = "fault never fired";
    else
        kill_why = firstFleetDifference(mp, killed);
    const bool kill_ok = kill_why.empty();
    std::cout << "kill-recovery parity (device " << victim << " seq "
              << at_seq << "): " << (kill_ok ? "exact" : "MISMATCH");
    if (!kill_ok)
        std::cout << " (" << kill_why << ")";
    std::cout << "\n";
    all_ok = all_ok && kill_ok;

    // --- Gate 4: per-shard throughput. -----------------------------
    const double ip_rate = devices / ip_s;
    const double mp_rate = devices / mp_s;
    const double ratio = mp_rate / ip_rate;
    const bool tput_ok = ratio >= 0.9;
    std::cout << "throughput: in-process " << ip_rate
              << " devices/s, multi-process " << mp_rate
              << " devices/s (" << ratio << "x"
              << (tput_ok ? "" : " — BELOW 0.9x") << ")\n";
    all_ok = all_ok && tput_ok;

    // --- Gate 5: parent memory flat in the device count. -----------
    const long small_kb = probeChildPeakKb(seed, kProbeSmall, workers);
    const long large_kb = probeChildPeakKb(seed, kProbeLarge, workers);
    const double kb_per_device =
        static_cast<double>(large_kb - small_kb) /
        (kProbeLarge - kProbeSmall);
    const bool mem_ok = small_kb > 0 && large_kb > 0 &&
                        kb_per_device <= kProbeBoundKbPerDevice;
    std::cout << "parent memory: peak RSS " << small_kb / 1024.0
              << " MB at " << kProbeSmall << " devices, "
              << large_kb / 1024.0 << " MB at " << kProbeLarge
              << " devices (" << kb_per_device << " KB/device"
              << (mem_ok ? "" : " — OVER BOUND OR PROBE FAILED")
              << ")\n";
    all_ok = all_ok && mem_ok;

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"csprint-fleet-bench-v2\",\n"
        << "  \"diff_seed\": " << seed << ",\n"
        << "  \"fleet\": {\"devices\": " << spec.num_devices
        << ", \"classes\": " << spec.classes.size()
        << ", \"workers\": " << workers
        << ", \"scale_ok\": " << (scale_ok ? "true" : "false")
        << "},\n"
        << "  \"transport_parity\": {\"exact\": "
        << (parity_ok ? "true" : "false") << "},\n"
        << "  \"kill_recovery_parity\": {\"exact\": "
        << (kill_ok ? "true" : "false")
        << ", \"victim_device\": " << victim
        << ", \"respawns\": " << respawns << "},\n"
        << "  \"throughput\": {\"inproc_devices_per_s\": " << ip_rate
        << ", \"mp_devices_per_s\": " << mp_rate
        << ", \"mp_speedup_vs_inproc\": " << ratio
        << ", \"pass\": " << (tput_ok ? "true" : "false") << "},\n"
        << "  \"parent_memory\": {\"devices\": [" << kProbeSmall << ", "
        << kProbeLarge << "], \"peak_rss_mb\": [" << small_kb / 1024.0
        << ", " << large_kb / 1024.0
        << "], \"kb_per_device\": " << kb_per_device
        << ", \"bound_kb_per_device\": " << kProbeBoundKbPerDevice
        << ", \"pass\": " << (mem_ok ? "true" : "false") << "},\n"
        << "  \"aggregates\": {\"tasks_completed\": "
        << mp.aggregates.tasks_completed
        << ", \"deadline_slo\": " << mp.aggregates.deadlineSlo()
        << ", \"thermal_violation_rate\": "
        << mp.aggregates.thermalViolationRate()
        << ", \"melt_cycles\": " << mp.aggregates.melt_cycles
        << ", \"p50_response\": " << mp.aggregates.response_p50.value()
        << ", \"p95_response\": " << mp.aggregates.response_p95.value()
        << "},\n"
        << "  \"all_gates_pass\": " << (all_ok ? "true" : "false")
        << "\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";
    return all_ok ? 0 : 1;
}
