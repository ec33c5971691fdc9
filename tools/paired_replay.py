#!/usr/bin/env python3
"""Time two csbench binaries side by side on one machine-bound workload.

    tools/paired_replay.py BASE_CSBENCH NEW_CSBENCH [--pairs N] [--seed S]
                           [--workload {fleet,sprint-train}]

Each pair starts one single-process run of both binaries at the same
moment, each in its own scratch directory, and waits for both: for
`fleet` (the default) `csbench --mode replay`, which runs the first
worker range serially; for `sprint-train` `csbench --mode plain`, one
train on one 16-core device, most of whose ops retire after the sprint
in the single-core phase. A pair needs two idle cores. Host-speed drift
then slows both sides of a pair alike, where runs taken one after the
other spread by 10-15% on a shared 4-vCPU host.

Prints each pair's wall times and the ratio NEW / BASE (below 1: NEW
is faster), then the median and the min/max of the ratios. Exits
non-zero when a run fails or when the two sides' fingerprints differ:
a timing comparison is only meaningful between identical results.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile

# The single-process csbench mode each workload is timed in.
MODES = {"fleet": "replay", "sprint-train": "plain"}


def start(binary, workload, seed, scratch):
    """Start one run; its process."""
    return subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed),
         "--mode", MODES[workload], "--scratch", scratch],
        stdout=subprocess.PIPE, text=True)


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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="csbench binary of the baseline")
    ap.add_argument("new", help="csbench binary of the change")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(MODES), default="fleet")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    ratios = []
    for i in range(args.pairs):
        dirs = [tempfile.mkdtemp(prefix="paired-replay-") for _ in range(2)]
        try:
            procs = [start(args.base, args.workload, args.seed, dirs[0]),
                     start(args.new, args.workload, args.seed, dirs[1])]
            base = finish(procs[0], args.base)
            new = finish(procs[1], args.new)
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
        if base["fingerprint"] != new["fingerprint"]:
            sys.exit("paired_replay: fingerprints differ (%s vs %s)"
                     % (base["fingerprint"], new["fingerprint"]))
        ratio = new["wall_s"] / base["wall_s"]
        ratios.append(ratio)
        print("pair %d: base %.3f s, new %.3f s, ratio %.3f"
              % (i + 1, base["wall_s"], new["wall_s"], ratio), flush=True)
    print("ratio median %.3f, min %.3f, max %.3f over %d pairs "
          "(fingerprint %s)" % (statistics.median(ratios), min(ratios),
                                max(ratios), len(ratios),
                                base["fingerprint"]))


if __name__ == "__main__":
    main()
