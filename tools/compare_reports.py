#!/usr/bin/env python3
"""Compare the bench reports of two runs, e.g. a parent commit and a change.

    tools/compare_reports.py BEFORE_DIR AFTER_DIR [BENCH_x.json ...]

Each report (default: every BENCH_*.json in BEFORE_DIR) must have the
same key paths in the same order in both directories, and equal values
except at the paths below, which hold wall-clock timings and RSS
readings. Both files are parsed strictly: NaN and Infinity are errors.
Exits non-zero on any difference.
"""
import glob
import json
import os
import re
import sys

# Per schema: the paths (dotted, [i] for array elements) whose values
# are timings or RSS readings, so they differ from run to run.
TIMING = {
    "csprint-thermal-bench-v1": [
        r"(phone_pcm_step_1ms|pcm_heavy_step_1ms_32_nodes)\..*",
        r"package_kernel\.step_.*",
        r"batched_sprint_transients\.(serial_s|pool_s|throughput_gain)"],
    "csprint-archsim-bench-v1": [r"(fig07|machine_run)_.*"],
    "csprint-scale-bench-v1": [
        r"sparse_idle\.(reference_ms|fast_ms|speedup)",
        r"million_task\.(wall_s|setup_ms|steady_wall_s|tasks_per_sec"
        r"|rss_before_mb|peak_rss_mb|rss_growth_mb)"],
    "csprint-surrogate-bench-v1": [
        r"fleet_train\.(exact|auto)_(steady_s|tasks_per_sec)",
        r"fleet_train\.speedup"],
    "csprint-faultinject-bench-v2": [
        r"checkpoint_perf\.(serialize|deserialize)_mb_per_s"],
    "csprint-fleet-bench-v2": [
        r"throughput\.(inproc_devices_per_s|mp_devices_per_s"
        r"|mp_speedup_vs_inproc)",
        r"parent_memory\.(peak_rss_mb|kb_per_device)"],
}


def reject(constant):
    raise ValueError(f"non-finite number {constant}")


def flatten(value, path, out):
    if isinstance(value, dict):
        for key, v in value.items():
            flatten(v, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and any(
            isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            flatten(v, f"{path}[{i}]", out)
    else:
        out.append((path, value))
    return out


def load(path):
    with open(path) as f:
        doc = json.load(f, parse_constant=reject)
    return doc.get("schema"), flatten(doc, "", [])


def compare(before_path, after_path):
    schema, before = load(before_path)
    _, after = load(after_path)
    name = os.path.basename(before_path)
    if [k for k, _ in before] != [k for k, _ in after]:
        print(f"{name}: key paths differ")
        return False
    timing = TIMING.get(schema, [])
    equal = skipped = 0
    for (key, a), (_, b) in zip(before, after):
        if any(re.fullmatch(p, key) for p in timing):
            skipped += 1
        elif a == b:
            equal += 1
        else:
            print(f"{name}: {key}: {a!r} != {b!r}")
    print(f"{name}: {len(before)} keys, {equal} equal, {skipped} "
          f"timing/RSS keys skipped")
    return equal + skipped == len(before)


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    names = argv[3:] or sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(argv[1], "BENCH_*.json")))
    results = [compare(os.path.join(argv[1], n), os.path.join(argv[2], n))
               for n in names]
    sys.exit(0 if results and all(results) else 1)


if __name__ == "__main__":
    main(sys.argv)
