#!/usr/bin/env python3
"""Repository benchmark: builds the simulator in Release and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: e1-16k, figures, fabric-k8, incast-telemetry (see BENCHMARK.json
for why each exists). The build goes to $CARGO_TARGET_DIR (default
.bench_build); the full report of every run (manifest, samples, metrics,
profile rows and spans) goes to .bench_out/, as do the figure CSVs the
figures workload regenerates and checks. The last stdout line is one
JSON object {correct, attempted, failed, metrics}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The exit code is non-zero when
the build fails, an output check fails, or the metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench")


def git_describe():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results-dir", default="results",
                        help="committed figure CSVs the figures workload must reproduce")
    parser.add_argument("--reference-dir", default="perfbench/reference",
                        help="recorded output digests")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", report,
           "--results-dir", args.results_dir, "--reference-dir", args.reference_dir,
           "--scratch-dir", out_dir, "--git-describe", git_describe()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"driver exited {done.returncode} without a result line")
        return done.returncode or 1

    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(expected_metrics(args.trace)):
        log(f"metrics {sorted(got)} do not match BENCHMARK.json")
        return 1
    print("\n".join(lines), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
