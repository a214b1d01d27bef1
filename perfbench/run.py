#!/usr/bin/env python3
"""The simulator's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  It builds a Release tree of ../src
plus the per-layer driver into .bench_build/, writes the workload's
inputs from the seed into .bench_run/, runs whole rounds of the
workload's operations until S seconds have passed, checks every output,
and prints one JSON object as its last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 runs the same rounds plus a traced copy of each operation,
records a span around every layer call, writes the Chrome trace and the
per-layer table next to the run's inputs, and reports the per-layer
metrics.  Exit code 0 means every check passed; 1 means a check failed
or nothing could be measured; 2 means the tree or the arguments are
unusable.  See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import spans
import workloads

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
TARGETS = ["sstsim", "sstdse", "sstsimd", "perfbench_layers"]


def build(root):
    """Configures (once) and brings the Release tree up to date; returns
    the binaries' paths.  Compiler output goes to .bench_build/build.log."""
    bdir = os.path.join(root, BUILD_DIR)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=log, stderr=log, check=True)
        subprocess.run(
            ["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1)),
             "--target"] + TARGETS,
            stdout=log, stderr=log, check=True)
    return {
        "sstsim": os.path.join(bdir, "src", "tools", "sstsim"),
        "sstdse": os.path.join(bdir, "src", "tools", "sstdse"),
        "sstsimd": os.path.join(bdir, "src", "tools", "sstsimd"),
        "layers": os.path.join(bdir, "perfbench_layers"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print(f"{root}: no simulator sources under src/; run from the root "
              "of a source tree", file=sys.stderr)
        return 2
    try:
        bins = build(root)
    except subprocess.CalledProcessError:
        print(f"build failed; see {BUILD_DIR}/build.log", file=sys.stderr)
        return 2

    wdir = os.path.join(root, RUN_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    tracer = spans.Tracer(f"{args.workload}/{args.seed}") if args.trace \
        else None
    wl = workloads.WORKLOADS[args.workload](bins, wdir, args.seed, tracer)
    try:
        wl.generate()
        wl.measure(args.seconds)
        if wl.attempted == wl.failed:
            print("every operation failed", file=sys.stderr)
            return 1
        wl.final_checks()
    except workloads.CheckFailed as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": wl.attempted,
                          "failed": wl.failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics = wl.layer_metrics()
        tracer.write_chrome(os.path.join(wdir, "trace.json"))
        write_table(os.path.join(wdir, "layers.txt"), tracer, metrics)
    else:
        metrics = wl.end_to_end()
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": True, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def write_table(path, tracer, metrics):
    with open(path, "w") as f:
        f.write(f"{'span':32s} {'calls':>6s} {'total_s':>12s} "
                f"{'self_s':>12s}\n")
        for name, (calls, total, self_s) in sorted(tracer.table().items()):
            f.write(f"{name:32s} {calls:6d} {total:12.6f} {self_s:12.6f}\n")
        f.write("\n")
        for name, (value, unit) in metrics.items():
            f.write(f"{name:32s} {value:16.6g} {unit}\n")


if __name__ == "__main__":
    sys.exit(main())
