#!/usr/bin/env python3
"""Writes a baseline: median and quartiles of repeated rnbench runs.

    python3 rnbench/baseline.py [--runs 5] [--seed 1] [--seconds S] \\
        [--out rnbench/baselines/rnbench.json]

Builds rnbench like run.py, then makes --runs untraced runs of every workload
(the workloads interleaved, so a slow period of the host spreads over all of
them) and one traced run each. The output keeps rnbench's metric names, so
`routenet obs diff OLD.json NEW.json` infers their direction: names with
`latency` or ending in `_s` are lower-better, `per_s` higher-better, and
`peak_rss_mb` is neutral there (BENCHMARK.json states its direction).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep rnbench/ free of __pycache__
import run  # noqa: E402


def rnbench(workload, seed, seconds, traced):
    out_path = os.path.join(run.BUILD, "runs", "baseline-%s.json" % workload)
    work_dir = os.path.join(run.BUILD, "work", "baseline")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(run.BUILD, "rnbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--work-dir", work_dir, "--out", out_path]
    if traced:
        cmd += ["--trace-out", out_path + ".trace.json"]
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    with open(out_path) as f:
        result = json.load(f)
    if rc != 0 or result["ops_failed"] != 0:
        sys.exit("baseline: %s run failed (rc %d)" % (workload, rc))
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out",
                        default=os.path.join(run.HERE, "baselines", "rnbench.json"))
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("baseline: --runs must be at least 2 for quartiles")
    if not run.build():
        sys.exit("baseline: build failed")

    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            results[w].append(rnbench(w, args.seed, args.seconds, False))
            print("baseline: %s run %d/%d" % (w, i + 1, args.runs),
                  file=sys.stderr)

    report = {"bench": "rnbench", "seed": args.seed, "runs": args.runs,
              "seconds": args.seconds, "host": results[workloads[0]][0]["host"],
              "workloads": {}}
    for w in workloads:
        runs = results[w]
        entry = {}
        for group in ("metrics", "diagnostics"):
            entry[group] = {name: summary([r[group][name] for r in runs])
                            for name in runs[0][group]}
        entry["ops"] = runs[0]["ops"]
        entry["ops_failed"] = sum(r["ops_failed"] for r in runs)
        entry["layers"] = rnbench(w, args.seed, args.seconds, True)["layers"]
        report["workloads"][w] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print("baseline -> " + args.out, file=sys.stderr)


if __name__ == "__main__":
    main()
