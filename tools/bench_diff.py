#!/usr/bin/env python3
"""Compare BENCH_*.json emitted by two runs and flag perf regressions.

Usage: bench_diff.py PREV_DIR CURR_DIR [--threshold PCT]
       bench_diff.py --exact BASELINE_DIR CURR_DIR

--exact checks benches whose every leaf is simulated or analytic (no
wall clock) against a committed baseline: each BENCH_*.json in
BASELINE_DIR must reappear in CURR_DIR with the same leaves, integers,
booleans and strings equal and floats within 1e-9 relative (so a
last-ulp libm difference between toolchains passes). Exit code 1 on
any missing file, missing or extra leaf, or differing value.

Walks every BENCH_*.json present in both directories, pairs numeric
leaves by their JSON path, and reports the classified performance
metrics side by side. A metric is flagged as a regression when it moves
against its good direction by more than the threshold (default 10%).

Two classes of metric, two severities:

- Wall-clock metrics (throughput, speedup, latency) are ADVISORY:
  machine variance makes a hard gate on them counterproductive, so
  they are reported in the summary but never affect the exit code.
- Simulated-clock metrics (total_ticks, busy_bank_ticks, and the
  energy meter's energy_pj / moved_bytes_*) are a HARD GATE: they are
  machine-independent, so drift beyond the per-metric tolerance means
  the simulated behavior itself changed (pricing, scheduling,
  batching) and the diff exits nonzero. The tolerances absorb the
  scheduling jitter of the threaded service benches (request arrival
  timing shifts task overlap, which moves total_ticks a few percent
  run to run while busy_bank_ticks stays within a fraction of a
  percent); a pricing-model regression moves both by integer factors
  and cannot hide inside them.

When PROFILE_query.json is present in both directories, its per-op
attributed-tick and energy trajectories are compared too — advisory
only (tick splits shift with scheduling overlap), but they localize a
pricing or lowering change to the plan op that moved.

When CRITPATH_query.json is present in both directories, each scaling
point's dominant wait state and per-state critical-path shares are
compared — advisory, like the tick splits — while the exactness
booleans (segment partition, identity projection, in-process wire
identity) are hard-gated: a true -> false flip fails the diff.

Rebaselining: a change that intentionally alters simulated behavior
(e.g. the lowering emitting fewer ops) trips the hard gate against the
previous run's artifacts exactly once. --accept-sim-changes REASON
downgrades sim failures to accepted-and-reported for that run; CI
passes it only when BENCH_REBASELINE.md exists at the repo root, and
the file is expected to be deleted by the next change so the gate
re-arms.

Output is GitHub-flavored markdown meant for $GITHUB_STEP_SUMMARY.
Exit code: 1 when a simulated-clock metric drifted beyond tolerance
(and the drift was not accepted), 0 otherwise.

Stdlib only: runs on a bare CI image.
"""

import argparse
import json
import os
import sys

# Good-direction classification by the leaf key name. Keys not listed
# are ignored (counters, configuration echoes, wall-clock noise).
HIGHER_BETTER_SUFFIXES = (
    "gbps",
    "speedup",
    "gain",
    "throughput",
    "avg_busy_banks",
)
LOWER_BETTER_SUFFIXES = (
    "makespan_us",
    "latency_us",
    "latency_ns",
)
# Simulated-clock metrics are machine-independent: drift beyond the
# per-metric tolerance (percent) means the simulated behavior changed
# and hard-fails the diff. total_ticks measures the busy-time union,
# which shifts with task overlap (thread arrival timing) in the
# threaded service benches; busy_bank_ticks is work-proportional and
# much tighter. Single-threaded benches (bench_runtime) reproduce both
# exactly, so any within-tolerance drift there is still worth a look
# in the summary.
#
# The energy meter's metrics (energy_pj and the moved-bytes ledger)
# are per-task deterministic — no overlap accounting at all — so they
# reproduce bit-identically run to run at a fixed workload; the small
# tolerance only covers scenarios whose task mix itself is timing-
# dependent (migration counts in the skew drain). A pricing change
# moves them by integer factors and cannot hide inside it.
SIM_SUFFIXES = (
    "total_ticks",
    "busy_bank_ticks",
    "energy_pj",
    "moved_bytes_insitu",
    "moved_bytes_offchip",
    "moved_bytes_wire",
)
SIM_TOLERANCE_PCT = {
    "total_ticks": 25.0,
    "busy_bank_ticks": 5.0,
    "energy_pj": 5.0,
    "moved_bytes_insitu": 5.0,
    "moved_bytes_offchip": 5.0,
    "moved_bytes_wire": 5.0,
}


def classify(key: str):
    k = key.lower()
    for s in SIM_SUFFIXES:
        if k.endswith(s):
            return "sim"
    for s in HIGHER_BETTER_SUFFIXES:
        if k.endswith(s):
            return "higher"
    for s in LOWER_BETTER_SUFFIXES:
        if k.endswith(s):
            return "lower"
    return None


def numeric_leaves(node, path=""):
    """Yields (path, value) for every classified numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        key = path.rsplit(".", 1)[-1].split("[", 1)[0]
        if classify(key) is not None:
            yield path, float(node)


def diff_file(name, prev, curr, threshold):
    """Returns (advisory_regressions, sim_failures) for one file."""
    prev_leaves = dict(numeric_leaves(prev))
    curr_leaves = dict(numeric_leaves(curr))
    rows = []
    regressions = 0
    sim_failures = 0
    for path in sorted(set(prev_leaves) & set(curr_leaves)):
        key = path.rsplit(".", 1)[-1].split("[", 1)[0]
        direction = classify(key)
        p, c = prev_leaves[path], curr_leaves[path]
        if p == 0 and c == 0:
            continue
        delta = (c - p) / abs(p) * 100.0 if p != 0 else float("inf")
        if direction == "sim":
            tolerance = next(SIM_TOLERANCE_PCT[s] for s in SIM_SUFFIXES
                             if key.lower().endswith(s))
            if abs(delta) > tolerance:
                status = "**SIM-CHANGED (gate)**"
                sim_failures += 1
            elif p != c:
                status = "sim-drift (in tolerance)"
            else:
                status = "ok"
            rows.append((path, p, c, delta, status))
            continue
        bad = delta < -threshold if direction == "higher" else delta > threshold
        good = delta > threshold if direction == "higher" else delta < -threshold
        status = "ok"
        if bad:
            status = "**REGRESSION**"
            regressions += 1
        elif good:
            status = "improved"
        rows.append((path, p, c, delta, status))
    if not rows:
        return regressions, sim_failures
    print(f"\n### {name}\n")
    print("| metric | previous | current | delta | status |")
    print("|--------|----------|---------|-------|--------|")
    for path, p, c, delta, status in rows:
        print(f"| `{path}` | {p:.4g} | {c:.4g} | {delta:+.1f}% | {status} |")
    return regressions, sim_failures


def leaves(node, path=""):
    """Yields (path, value) for every leaf, numeric or not."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def same_leaf(want, got):
    """Integers, booleans and strings exactly; floats to 1e-9 relative."""
    kinds = {type(want), type(got)}
    if float in kinds and kinds <= {int, float}:
        return abs(want - got) <= 1e-9 * max(abs(want), abs(got))
    return type(want) is type(got) and want == got


def check_exact(base_dir, curr_dir):
    """Returns the number of baseline mismatches, printing each."""
    print("## Simulated baseline check")
    failures = 0
    names = sorted(f for f in os.listdir(base_dir)
                   if f.startswith("BENCH_") and f.endswith(".json"))
    for name in names:
        with open(os.path.join(base_dir, name)) as f:
            base = dict(leaves(json.load(f)))
        try:
            with open(os.path.join(curr_dir, name)) as f:
                curr = dict(leaves(json.load(f)))
        except (OSError, json.JSONDecodeError) as e:
            print(f"- `{name}`: no fresh file to check ({e})")
            failures += 1
            continue
        for path in sorted(set(base) | set(curr)):
            if path not in curr:
                print(f"- `{name}` `{path}`: missing (baseline {base[path]!r})")
            elif path not in base:
                print(f"- `{name}` `{path}`: not in the baseline "
                      f"({curr[path]!r})")
            elif not same_leaf(base[path], curr[path]):
                print(f"- `{name}` `{path}`: {curr[path]!r}, baseline "
                      f"{base[path]!r}")
            else:
                continue
            failures += 1
        print(f"- `{name}`: {len(base)} leaves checked")
    if failures:
        print(f"\n**{failures} leaf mismatch(es) against {base_dir}: the "
              f"simulated behaviour changed. A change that means to move "
              f"it updates the baseline in the same diff.**")
    return failures


PROFILE_FILE = "PROFILE_query.json"


def diff_profile(prev, curr):
    """Advisory per-op comparison of the explain_analyze profile.

    Pairs plan ops by (config, step, label) and reports attributed
    ticks and energy that moved. Never gates: tick splits legitimately
    shift with scheduling overlap across runs; the value is seeing
    WHICH op a pricing or lowering change landed on.
    """
    def op_map(doc):
        out = {}
        for cfg in doc.get("configs", []):
            cid = f"shards={cfg.get('shards')},remote={cfg.get('remote')}"
            for op in cfg.get("ops", []):
                out[(cid, op.get("step"), op.get("label"))] = op
        return out

    prev_ops = op_map(prev)
    curr_ops = op_map(curr)
    rows = []
    for key in sorted(set(prev_ops) & set(curr_ops),
                      key=lambda k: (k[0], k[1] if k[1] is not None else 0)):
        p, c = prev_ops[key], curr_ops[key]
        for metric in ("attributed_ticks", "energy_pj"):
            pv, cv = p.get(metric), c.get(metric)
            if not isinstance(pv, (int, float)) or isinstance(pv, bool):
                continue
            if not isinstance(cv, (int, float)) or isinstance(cv, bool):
                continue
            if pv == cv:
                continue
            delta = (cv - pv) / abs(pv) * 100.0 if pv else float("inf")
            rows.append((key[0], key[1], key[2], metric, pv, cv, delta))
    print(f"\n### {PROFILE_FILE} (advisory: per-op attribution)\n")
    if not rows:
        print("Per-op attributed ticks and energy unchanged.")
        return
    print("| config | op | metric | previous | current | delta |")
    print("|--------|----|--------|----------|---------|-------|")
    for cid, step, label, metric, pv, cv, delta in rows:
        print(f"| {cid} | {step}: `{label}` | {metric} "
              f"| {pv:.4g} | {cv:.4g} | {delta:+.1f}% |")
    print("\nAdvisory only: per-op tick splits shift with scheduling "
          "overlap and never affect the exit code.")


CRITPATH_FILE = "CRITPATH_query.json"


def diff_critpath(prev, curr):
    """Critical-path comparison: advisory wait shares, gated exactness.

    Per scaling point (config), the dominant wait state and each
    state's share of the critical-path span are reported side by side —
    advisory only, since overlap timing legitimately moves the split
    between runs. The exactness booleans (segment partition, identity
    projection, in-process wire identity) are machine-independent
    invariants, so any true -> false flip is a hard gate failure.

    Returns the number of gate failures.
    """
    failures = 0
    for flag in ("exact", "projection_identity", "wire_identity_inproc"):
        if prev.get(flag) is True and curr.get(flag) is False:
            print(f"\n**CRITPATH gate: `{flag}` flipped true -> false.**")
            failures += 1

    def cfg_map(doc):
        return {f"shards={c.get('shards')},remote={c.get('remote')}": c
                for c in doc.get("configs", [])}

    prev_cfgs = cfg_map(prev)
    curr_cfgs = cfg_map(curr)
    rows = []
    for cid in sorted(set(prev_cfgs) & set(curr_cfgs)):
        p, c = prev_cfgs[cid], curr_cfgs[cid]
        p_span = p.get("span_ps") or 0
        c_span = c.get("span_ps") or 0
        states = sorted(set(p.get("state_ps", {})) | set(c.get("state_ps", {})))
        for state in states:
            p_share = (p.get("state_ps", {}).get(state, 0) / p_span * 100.0
                       if p_span else 0.0)
            c_share = (c.get("state_ps", {}).get(state, 0) / c_span * 100.0
                       if c_span else 0.0)
            if abs(p_share - c_share) < 0.05:
                continue
            rows.append((cid, state, p_share, c_share))
    print(f"\n### {CRITPATH_FILE} (advisory: wait-state shares; "
          f"exactness gated)\n")
    for cid in sorted(set(prev_cfgs) & set(curr_cfgs)):
        p, c = prev_cfgs[cid], curr_cfgs[cid]
        if p.get("dominant") != c.get("dominant"):
            print(f"- {cid}: dominant wait moved "
                  f"`{p.get('dominant')}` -> `{c.get('dominant')}`")
    if not rows:
        print("Critical-path wait-state shares unchanged.")
        return failures
    print("| config | state | previous share | current share | delta |")
    print("|--------|-------|----------------|---------------|-------|")
    for cid, state, p_share, c_share in rows:
        print(f"| {cid} | {state} | {p_share:.1f}% | {c_share:.1f}% "
              f"| {c_share - p_share:+.1f}pp |")
    print("\nShares are advisory: overlap timing moves the split between "
          "runs. Only the exactness booleans gate.")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("prev_dir")
    parser.add_argument("curr_dir")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="flag moves beyond this percentage")
    parser.add_argument("--accept-sim-changes", metavar="REASON", default=None,
                        help="report simulated-clock drift but exit 0, "
                             "recording REASON in the summary")
    parser.add_argument("--exact", action="store_true",
                        help="check CURR_DIR leaf for leaf against the "
                             "baseline in PREV_DIR")
    args = parser.parse_args()
    if args.exact:
        return 1 if check_exact(args.prev_dir, args.curr_dir) else 0

    prev_files = {f for f in os.listdir(args.prev_dir)
                  if f.startswith("BENCH_") and f.endswith(".json")}
    curr_files = {f for f in os.listdir(args.curr_dir)
                  if f.startswith("BENCH_") and f.endswith(".json")}
    common = sorted(prev_files & curr_files)

    print("## Benchmark diff vs previous run")
    if not common:
        print("\nNo benchmark files in common; nothing to compare.")
        return 0

    total = 0
    sim_failures = 0
    for name in common:
        try:
            with open(os.path.join(args.prev_dir, name)) as f:
                prev = json.load(f)
            with open(os.path.join(args.curr_dir, name)) as f:
                curr = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"\n`{name}`: unreadable ({e})")
            continue
        regressed, failed = diff_file(name, prev, curr, args.threshold)
        total += regressed
        sim_failures += failed

    prof_prev = os.path.join(args.prev_dir, PROFILE_FILE)
    prof_curr = os.path.join(args.curr_dir, PROFILE_FILE)
    if os.path.exists(prof_prev) and os.path.exists(prof_curr):
        try:
            with open(prof_prev) as f:
                prev = json.load(f)
            with open(prof_curr) as f:
                curr = json.load(f)
            diff_profile(prev, curr)
        except (OSError, json.JSONDecodeError) as e:
            print(f"\n`{PROFILE_FILE}`: unreadable ({e})")

    crit_prev = os.path.join(args.prev_dir, CRITPATH_FILE)
    crit_curr = os.path.join(args.curr_dir, CRITPATH_FILE)
    if os.path.exists(crit_prev) and os.path.exists(crit_curr):
        try:
            with open(crit_prev) as f:
                prev = json.load(f)
            with open(crit_curr) as f:
                curr = json.load(f)
            sim_failures += diff_critpath(prev, curr)
        except (OSError, json.JSONDecodeError) as e:
            print(f"\n`{CRITPATH_FILE}`: unreadable ({e})")

    only_new = sorted(curr_files - prev_files)
    if only_new:
        print(f"\nNew benchmarks (no baseline): {', '.join(only_new)}")
    print()
    if sim_failures and args.accept_sim_changes is not None:
        print(f"**{sim_failures} simulated-clock metric(s) drifted beyond "
              f"tolerance — accepted as an intentional rebaseline:** "
              f"{args.accept_sim_changes}")
        sim_failures = 0
    elif sim_failures:
        print(f"**{sim_failures} simulated-clock metric(s) drifted beyond "
              f"tolerance — the simulated behavior changed. This gate is "
              f"hard; rebaseline only with an explanation.**")
    if total:
        print(f"**{total} wall-clock metric(s) regressed beyond the "
              f"{args.threshold:.0f}% threshold (advisory).**")
    if not sim_failures and not total:
        print(f"No regressions beyond the {args.threshold:.0f}% threshold; "
              f"simulated-clock metrics within tolerance.")
    return 1 if sim_failures else 0


if __name__ == "__main__":
    sys.exit(main())
