#!/usr/bin/env python3
"""Time two csbench binaries side by side on one csbench workload.

    tools/paired_replay.py BASE_CSBENCH NEW_CSBENCH [--pairs N] [--seed S]
        [--workload {fleet,sprint-train,surrogate-train}] [--size N] [--aa]

Each pair starts one single-process run of both binaries at the same
moment, each in its own scratch directory, and waits for both: for
`fleet` (the default) `csbench --mode replay`, which runs the first
worker range serially; for `sprint-train` `csbench --mode plain`, one
train on one 16-core device, most of whose ops retire after the sprint
in the single-core phase; for `surrogate-train` `csbench --mode
plain`, the micro-program train under the surrogate tier. `--size N`
is passed on to csbench (devices, or tasks of a train). Host-speed
drift then slows both sides of a pair alike, where runs taken one
after the other spread by 10-15% on a shared 4-vCPU host.

When the process may run on two or more CPUs, each side of a pair is
pinned to its own CPU (os.sched_setaffinity), and the two sides swap
CPUs from one pair to the next so neither binary keeps the faster one.
Which side is started first alternates every two pairs: on a shared
host the second-started run of an A/A pair read faster in 9 of 12
fixed-order pairs.

`--aa` adds an A/A arm: after each A/B pair, BASE runs against itself
the same way. Its ratios show the spread two identical binaries read
on this host during the same run; an A/B median inside the A/A
interquartile range is not a resolved difference.

Prints each pair's wall times and the ratio NEW / BASE (below 1: NEW
is faster), then the median, interquartile range and min/max of the
ratios of each arm. Exits non-zero when a run fails or when the two
sides' fingerprints differ: a timing comparison is only meaningful
between identical results.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# The single-process csbench mode each workload is timed in.
MODES = {"fleet": "replay", "sprint-train": "plain",
         "surrogate-train": "plain"}


def pinning_cpus():
    """Two CPUs to pin the sides of a pair to, or None."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None
    return cpus[:2] if len(cpus) >= 2 else None


def start(binary, args, scratch, cpu):
    """Start one run, pinned to `cpu` unless it is None; its process."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", MODES[args.workload], "--scratch", scratch]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin)


def finish(proc, binary):
    """Wait for one run; its JSON result."""
    out, _ = proc.communicate(timeout=600)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("paired_replay: %s exited with %d"
                 % (binary, proc.returncode))
    r = json.loads(lines[-1])
    if not r["ok"]:
        sys.exit("paired_replay: %s: %s" % (binary, r["problem"]))
    return r


def run_pair(first, second, args, cpus, second_starts):
    """Run `first` and `second` at once; their JSON results."""
    dirs = [tempfile.mkdtemp(prefix="paired-replay-") for _ in range(2)]
    try:
        pins = cpus if cpus else [None, None]
        sides = [(first, dirs[0], pins[0]), (second, dirs[1], pins[1])]
        order = [1, 0] if second_starts else [0, 1]
        procs = {}
        for k in order:
            binary, scratch, cpu = sides[k]
            procs[k] = start(binary, args, scratch, cpu)
        return finish(procs[0], first), finish(procs[1], second)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def summary(ratios):
    """Median, IQR and min/max of `ratios`, as one phrase."""
    if len(ratios) >= 2:
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        q1 = q3 = ratios[0]
    return ("median %.3f, IQR [%.3f, %.3f], min %.3f, max %.3f over %d "
            "pairs" % (statistics.median(ratios), q1, q3, min(ratios),
                       max(ratios), len(ratios)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="csbench binary of the baseline")
    ap.add_argument("new", help="csbench binary of the change")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(MODES), default="fleet")
    ap.add_argument("--size", type=int,
                    help="csbench --size (default: csbench's own)")
    ap.add_argument("--aa", action="store_true",
                    help="also time BASE against itself after each pair")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.size is not None and args.size < 1:
        ap.error("--size must be at least 1")

    cpus = pinning_cpus()
    print("pinning: %s" % ("CPUs %d and %d, swapped every pair" % tuple(cpus)
                           if cpus else "off (fewer than two CPUs)"),
          flush=True)
    arms = [("A/B", args.new)] + ([("A/A", args.base)] if args.aa else [])
    ratios = {name: [] for name, _ in arms}
    fingerprint = None
    for i in range(args.pairs):
        pins = cpus[::-1] if cpus and i % 2 else cpus
        for name, other in arms:
            base, new = run_pair(args.base, other, args, pins,
                                 (i // 2) % 2 == 1)
            for r in (base, new):
                if fingerprint is None:
                    fingerprint = r["fingerprint"]
                if r["fingerprint"] != fingerprint:
                    sys.exit("paired_replay: fingerprints differ (%s vs %s)"
                             % (fingerprint, r["fingerprint"]))
            ratio = new["wall_s"] / base["wall_s"]
            ratios[name].append(ratio)
            print("pair %d %s: base %.3f s, %s %.3f s, ratio %.3f"
                  % (i + 1, name, base["wall_s"],
                     "new" if name == "A/B" else "base",
                     new["wall_s"], ratio), flush=True)
    for name, _ in arms:
        print("%s ratio %s" % (name, summary(ratios[name])))
    print("fingerprint %s" % fingerprint)


if __name__ == "__main__":
    main()
