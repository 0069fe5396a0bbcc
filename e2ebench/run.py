#!/usr/bin/env python3
"""Build and run the rdse end-to-end benchmark (workloads: see METRICS.md).

usage, from the repository root:
  python3 e2ebench/run.py --workload fig3_sweep|serve_mixed \
      --seed N --seconds S --trace 0|1

Builds e2ebench/ (which compiles the rdse sources under src/) with CMake in
Release mode into $CARGO_TARGET_DIR/e2ebench (default .bench_build), runs the
benchmark's self-test, then the workload. Build output goes to stderr; the
last line of stdout is the result JSON. Scratch files (socket, databases,
spans) go to <build root>/run.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fig3_sweep", "serve_mixed")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"e2ebench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "e2ebench",
         "e2ebench_selftest"],
        [os.path.join(build_dir, "e2ebench_selftest")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "e2ebench")
    # Relative where possible: the serve socket path must stay short.
    run_dir = os.path.relpath(os.path.join(build_root, "run"))
    build(bench_dir, build_dir)

    cmd = [os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--workdir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {proc.returncode}: {lines[-1]}")
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace == "1")
    if names is not None and list(result["metrics"]) != names:
        fail("printed metrics do not match BENCHMARK.json")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
