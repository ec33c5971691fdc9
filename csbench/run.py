#!/usr/bin/env python3
"""csprint benchmark harness.

Builds csbench and the csprint libraries from the checkout's sources,
runs one workload for a fixed time in fresh csbench processes, checks
the simulated outputs, and prints one JSON result as the last line of
stdout:

    python3 csbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (no timing wrappers), --trace 1
the per-layer split of a separately traced run. README.md in this
directory describes the workloads, the metrics and the output checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "sprint-train", "surrogate-train")
GOLDEN = os.path.join(HERE, "golden.json")

# The output check's fixed canary: each workload at a small size and a
# fixed seed (and, since the merged quantiles depend on the range split,
# a fixed fleet worker count), whose fingerprint must equal the record.
CANARY_SEED = 1
CANARY_SIZE = {"fleet": 16, "sprint-train": 20, "surrogate-train": 100000}
CANARY_WORKERS = 2

MIN_REPS = 3

# Seconds csbench's host-speed probe (referenceSeconds) takes on an
# unloaded host; single-thread timings are reported at this speed.
REFERENCE_S = 0.008
SPLIT_BAR = 0.95  # layer split must cover this share of the traced wall


def log(*parts):
    print("[csbench]", *parts, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build csbench; return the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("csbench: no csprint sources next to the benchmark "
                 "(CMakeLists.txt and src/ must be in %s)" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "bin", "csbench")


def csbench(binary, scratch, workload, seed, mode, canary=False):
    """One fresh csbench process; its JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scratch", scratch]
    if canary:
        cmd += ["--size", str(CANARY_SIZE[workload]),
                "--workers", str(CANARY_WORKERS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("csbench: %s failed with exit code %d"
                 % (" ".join(cmd[1:]), proc.returncode))
    return json.loads(lines[-1])


def canary(binary, scratch, workload):
    """The canary's problem, or None when it matches the record."""
    r = csbench(binary, scratch, workload, CANARY_SEED, "plain", True)
    with open(GOLDEN) as f:
        want = json.load(f).get(workload)
    if not r["ok"]:
        return "canary: " + r["problem"]
    if r["fingerprint"] != want:
        return "canary fingerprint %s != recorded %s" % (r["fingerprint"],
                                                          want)
    return None


def measure(binary, scratch, workload, seed, seconds):
    """Plain repetitions for `seconds`; the end-to-end metrics."""
    start = time.monotonic()
    reps = []
    while True:
        reps.append(csbench(binary, scratch, workload, seed, "plain"))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            break
    problems = [r["problem"] for r in reps if not r["ok"]]
    if len({r["fingerprint"] for r in reps}) != 1:
        problems.append("repetitions of one seed disagree")
    # The host's speed drifts by tens of percent on a shared machine.
    # Single-thread timings (set-up, and a train's run) are scaled to
    # the speed at which csbench's single-thread probe takes
    # REFERENCE_S, probed around each, and their median is reported.
    # A fleet's critical path spans several cores that one probe does
    # not model, so its throughput stays as measured; interference only
    # ever slows a raw timing, so its fastest repetition is reported.
    for r in reps:
        r["setup_s"] *= REFERENCE_S / r["setup_ref_s"]
    scaled = all("ref_s" in r for r in reps)
    rates = [r["tasks_per_s"] * r["ref_s"] / REFERENCE_S if scaled
             else r["tasks_per_s"] for r in reps]
    log("%s seed %d: %d reps, tasks/s on the host %s, reported from %s"
        % (workload, seed, len(reps),
           " ".join("%.4g" % r["tasks_per_s"] for r in reps),
           " ".join("%.4g" % x for x in rates)))

    def med(key):
        return statistics.median(r[key] for r in reps)

    metrics = {
        "setup_s": (med("setup_s"), "s"),
        "tasks_per_s": (statistics.median(rates) if scaled else max(rates),
                        "1/s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return metrics, attempted, failed, problems


def trace(binary, scratch, workload, seed):
    """Untraced and traced runs of one seed; the per-layer metrics."""
    fleet = workload == "fleet"
    plain = csbench(binary, scratch, workload, seed, "plain")
    t = csbench(binary, scratch, workload, seed, "traced")
    runs = [plain, t]
    wall = t["wall_s"]
    problems = []
    if fleet:
        # The traced replay covers every range and must equal the
        # multi-process aggregates; an untraced replay of the first
        # range is the base of the trace overhead.
        base = csbench(binary, scratch, workload, seed, "replay")
        runs.append(base)
        overhead = t["first_range_s"] / base["wall_s"] - 1.0
        if base["fingerprint"] != t["first_range_fingerprint"]:
            problems.append("traced replay differs from untraced replay")
    else:
        overhead = wall / plain["wall_s"] - 1.0
    if t["fingerprint"] != plain["fingerprint"]:
        problems.append("fleet replay differs from multi-process aggregates"
                        if fleet else
                        "traced results differ from untraced results")
    problems += [r["problem"] for r in runs if not r["ok"]]

    layers = {k: v for k, v in t.items() if k.startswith("layer.")}
    coverage = sum(layers.values()) / wall

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    tasks = t["tasks"]
    builds, samples = t["builds"], t["samples"]
    checkpoints = t.get("checkpoints", 0)
    surrogate_tasks = t.get("surrogate_tasks", 0)
    m = {
        "workloads.build_s": (t["layer.workloads"], "s"),
        "workloads.builds": (builds, "count"),
        "workloads.us_per_build": (per(t["layer.workloads"], builds, 1e6),
                                   "us"),
        "archsim.run_s": (t["layer.archsim"], "s"),
        "archsim.samples": (samples, "count"),
        "archsim.ns_per_sample": (per(t["layer.archsim"], samples, 1e9),
                                  "ns"),
        "policy.on_sample_s": (t["layer.policy"], "s"),
        "policy.ns_per_sample": (per(t["layer.policy"], samples, 1e9), "ns"),
        "scenario.advance_s": (t["scenario.advance_s"], "s"),
        "scenario.self_s": (t["layer.scenario"], "s"),
        "scenario.us_per_task": (per(t["scenario.advance_s"], tasks, 1e6),
                                 "us"),
        "scenario.preemptions": (t.get("preemptions", 0), "count"),
        "scenario.melt_cycles": (t["melt_cycles"], "count"),
        "scenario.sprints_denied": (t["sprints_denied"], "count"),
        "surrogate.run_s": (t["layer.surrogate"], "s"),
        "surrogate.tasks": (surrogate_tasks, "count"),
        "surrogate.audits": (t.get("audit_tasks", 0), "count"),
        "surrogate.demotions": (t.get("surrogate_demotions", 0), "count"),
        "surrogate.fraction": (per(surrogate_tasks, tasks), "ratio"),
        "checkpoint.serialize_s": (t.get("layer.serialize", 0.0), "s"),
        "checkpoint.deserialize_s": (t.get("layer.deserialize", 0.0), "s"),
        "checkpoint.count": (checkpoints, "count"),
        "checkpoint.mean_kb": (t.get("checkpoint_mean_kb", 0.0), "KB"),
        "store.save_s": (t.get("layer.store", 0.0), "s"),
        "store.saves": (checkpoints, "count"),
        "store.ms_per_save": (per(t.get("layer.store", 0.0), checkpoints,
                                  1e3), "ms"),
        "fleet.host_s": (t.get("layer.fleet", 0.0), "s"),
        "fleet.devices_per_s": (plain.get("devices_per_s", 0.0), "1/s"),
        "fleet.parallel_efficiency": (
            per(sum(layers.values()),
                plain.get("workers", 0) * plain["wall_s"]), "ratio"),
        "fleet.respawns": (plain.get("respawns", 0), "count"),
        "fleet.degraded_devices": (plain.get("degraded_devices", 0),
                                   "count"),
        "fleet.worker_peak_rss_mb": (plain.get("worker_peak_rss_mb", 0.0),
                                     "MB"),
        "fleet.p50_rel_err": (
            per(abs(t["merged_p50_s"] - t["exact_p50_s"]), t["exact_p50_s"])
            if fleet else 0.0, "ratio"),
        "fleet.p95_rel_err": (
            per(abs(t["merged_p95_s"] - t["exact_p95_s"]), t["exact_p95_s"])
            if fleet else 0.0, "ratio"),
        "split_coverage": (coverage, "ratio"),
        "split_flagged": (1 if coverage < SPLIT_BAR else 0, "count"),
        "trace_overhead_frac": (overhead, "ratio"),
    }
    if coverage < SPLIT_BAR:
        log("WARNING: layer split covers %.1f%% of the traced wall "
            "(bar %.0f%%)" % (100 * coverage, 100 * SPLIT_BAR))
    log("%s seed %d traced: wall %.3f s, overhead %.4f, coverage %.4f"
        % (workload, seed, wall, overhead, coverage))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if problems:
        failed = max(failed, t["attempted"])
    return m, attempted, failed, problems


def record_golden(binary, scratch):
    """Re-record every canary fingerprint (after an intended change)."""
    golden = {}
    for w in WORKLOADS:
        r = csbench(binary, scratch, w, CANARY_SEED, "plain", True)
        if not r["ok"]:
            sys.exit("csbench: canary %s fails its checks: %s"
                     % (w, r["problem"]))
        golden[w] = r["fingerprint"]
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded", golden)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="re-record the canary fingerprints and exit")
    args = ap.parse_args()
    if not args.record_golden and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    scratch = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.record_golden:
            record_golden(binary, scratch)
            return
        problems = []
        bad = canary(binary, scratch, args.workload)
        if bad:
            problems.append(bad)
        if args.trace:
            metrics, attempted, failed, more = trace(
                binary, scratch, args.workload, args.seed)
        else:
            metrics, attempted, failed, more = measure(
                binary, scratch, args.workload, args.seed, args.seconds)
        problems += more
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        log("CHECK FAILED:", p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed if not problems else max(failed, 1),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
