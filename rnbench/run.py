#!/usr/bin/env python3
"""Builds rnbench from source and runs one workload of BENCHMARK.json.

    python3 rnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file. The first run
configures and builds `.bench_build/rnbench` at the repository root (about
20 s on four cores); later runs only check that the build is current. The
human-readable report goes to stdout, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics holds
every `end_to_end` metric of BENCHMARK.json with --trace 0 and every
`per_layer` metric with --trace 1. Exits non-zero, without that line, when
the build or the run cannot produce a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rnbench")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds the rnbench target."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "rnbench",
           "--parallel", BUILD_JOBS]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    if not build():
        log("build failed")
        return 1

    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work_dir = os.path.join(BUILD, "work", tag)
    out_path = os.path.join(BUILD, "runs", tag + ".json")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    cmd = [os.path.join(BUILD, "rnbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", work_dir, "--out", out_path]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "runs", tag + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("rnbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not os.path.exists(out_path):
        log("rnbench exited %d without a result" % proc.returncode)
        return 1
    with open(out_path) as f:
        result = json.load(f)
    os.remove(out_path)

    # Everything rnbench printed except its own JSON line.
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            print(line)

    group, source = ("per_layer", result["layers"]) if args.trace else \
        ("end_to_end", result["metrics"])
    metrics = {}
    missing = []
    for m in spec[group]:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if missing:
        log("rnbench did not report: " + ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": proc.returncode == 0 and result["ops_failed"] == 0,
        "attempted": result["ops"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
