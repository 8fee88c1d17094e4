#!/usr/bin/env python3
"""Runs one bench_pipeline workload and prints its result as one JSON line.

Run from the repository root:

    python3 bench/pipeline/run.py --workload loo-train --seed 1 \
        --seconds 22 --trace 0

The first call builds bench_pipeline (and the library and campaign tools
it drives) from the checkout's sources into .bench_build/. The last line
of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json for --trace 0 and every
per_layer metric for --trace 1. Everything else (the build log, the
bench_pipeline binary's own table) goes to standard error. Exits nonzero without a result line
when the build or the run produces none.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (until it succeeds once) and builds bench_pipeline;
    returns its path."""
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "bench_pipeline"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench_pipeline")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    out = os.path.join(BUILD, f"result-{args.workload}-{os.getpid()}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out,
           "--work-dir", os.path.join(BUILD, "work")]
    if args.trace:
        cmd.append("--traced")
    rc = subprocess.run(cmd, stdout=sys.stderr).returncode
    if not os.path.exists(out):
        return rc or 1
    with open(out) as f:
        result = json.load(f)["workloads"][0]
    os.remove(out)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"metric {m['name']} [{m['unit']}] missing from the result",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
