#!/usr/bin/env python3
"""Builds and runs the WAN-day pipeline benchmark.

Run from the root of a checkout:

    python3 wanday/run.py --workload regime_day --seed 1 --seconds 20 --trace 0

The first run configures and builds the libraries under src/ together with
the benchmark (CMake, RelWithDebInfo) into .bench_build/wanday; later runs
rebuild only what changed. Build output goes to standard error. The last
line of standard output is the benchmark's JSON result; the full record
(machine block, every metric, each replay) and, for --trace 1, the span
file are written to .bench_build/wanday/results. See wanday/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest_day", "regime_day", "federated_day")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "wanday_bench")


def commit_id(root):
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                             capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the self-test size")
    parser.add_argument("--plant", default="",
                        choices=("", "drop_record", "mutate_summary"),
                        help="plant a wrong answer the checks must reject")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "wanday")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"wanday: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size, "--out", os.path.join(build_dir, "results"),
               "--commit", commit_id(root)]
    if args.plant:
        command += ["--plant", args.plant]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
