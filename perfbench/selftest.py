#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, including
offload_mix, which BENCHMARK.json leaves out, it runs two seeds, each
twice, untraced: every run must pass its output checks, fail no op,
report exactly BENCHMARK.json's end-to-end metrics with their units,
and repeat its exact simulated metrics bit for bit at a seed. It then
runs each workload traced once and checks the per-layer metric names
and units. Last, it checks that the benchmark refuses to run, printing
no result, in a copy holding only BENCHMARK.json and the benchmark's
own directories.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)
SECONDS = 3  # measured seconds per run
# Metrics that are pure functions of the seed, per workload; every
# workload run.py runs.
EXACT = {
    "offload_mix": ("energy_pj_per_op", "offchip_bytes_per_op", "sim_gbps"),
    "wire_rw": ("energy_pj_per_op", "offchip_bytes_per_op"),
    "scan_query": ("energy_pj_per_op", "offchip_bytes_per_op"),
}


def run(bench, workload, seed, seconds, trace, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result(bench, workload, seed, seconds, trace):
    proc = run(bench, workload, seed, seconds, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_metrics(res, spec, what, failures):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json",
           failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    listed = {x["name"] for x in bench["workloads"]}
    expect(listed <= EXACT.keys(), "BENCHMARK.json lists only known workloads",
           failures)
    for w in EXACT:
        for seed in SEEDS:
            first = result(bench, w, seed, SECONDS, 0)
            second = result(bench, w, seed, SECONDS, 0)
            tag = f"{w} seed {seed}"
            for res in (first, second):
                expect(res["correct"], f"{tag}: output checks pass", failures)
                expect(res["failed"] == 0 and res["attempted"] > 0,
                       f"{tag}: {res['attempted']} ops attempted, none failed",
                       failures)
                check_metrics(res, bench["end_to_end"], tag, failures)
                expect(all(v["value"] != 0 for v in res["metrics"].values()),
                       f"{tag}: no end-to-end metric reads 0", failures)
            for name in EXACT[w]:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                expect(a == b, f"{tag}: {name} repeats exactly ({a} vs {b})",
                       failures)
        traced = result(bench, w, SEEDS[0], SECONDS, 1)
        expect(traced["correct"], f"{w} traced: output checks pass", failures)
        check_metrics(traced, bench["per_layer"], f"{w} traced", failures)

    scratch = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        proc = run(bench, bench["workloads"][0]["name"], 1, 1, 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources the benchmark exits non-zero, no result",
               failures)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
