#!/usr/bin/env python3
"""Time two csbench binaries side by side on the fleet replay.

    tools/paired_replay.py BASE_CSBENCH NEW_CSBENCH [--pairs N] [--seed S]

Each pair starts `csbench --workload fleet --mode replay` of both
binaries at the same moment, each in its own scratch directory, and
waits for both. The replay runs the first worker range serially in one
process, so a pair needs two idle cores. Host-speed drift then slows
both sides of a pair alike, where runs taken one after the other spread
by 10-15% on a shared 4-vCPU host.

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


def start(binary, seed, scratch):
    """Start one replay; its process."""
    return subprocess.Popen(
        [binary, "--workload", "fleet", "--seed", str(seed),
         "--mode", "replay", "--scratch", scratch],
        stdout=subprocess.PIPE, text=True)


def finish(proc, binary):
    """Wait for one replay; its JSON result."""
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
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    ratios = []
    for i in range(args.pairs):
        dirs = [tempfile.mkdtemp(prefix="paired-replay-") for _ in range(2)]
        try:
            procs = [start(args.base, args.seed, dirs[0]),
                     start(args.new, args.seed, dirs[1])]
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
