#!/usr/bin/env python3
"""Builds perfbench from the repository sources and runs one workload.

    python3 perfbench/run.py --workload offload_mix --seed 1 --seconds 12 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (if
set) or .bench_build; a traced run also writes its span file there.
Build output goes to stderr, so the last line of stdout is the run's
JSON result. Exits non-zero, printing no result, when the sources are
missing, the build fails, or the run fails or overruns.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offload_mix", "wire_rw", "scan_query")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pim_system.h")):
        sys.exit("perfbench: pimlib sources (src/) not found beside perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: run failed with code {run.returncode}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
