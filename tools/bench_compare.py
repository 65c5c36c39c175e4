#!/usr/bin/env python3
"""Tolerance gate for checked-in bench baselines (DESIGN.md §14).

The repo keeps frozen --quick snapshots of the sweep benches
(BENCH_resilience.json, BENCH_loadgen.json). Byte identity across
same-seed runs is enforced separately (the determinism gates `cmp` two
fresh runs); THIS tool answers the softer question a baseline exists for:
did a code change move the numbers? It re-runs (or is handed) a fresh
--quick --json file and compares it row by row against the snapshot with
per-metric tolerance bands, so a legitimate perf change fails loudly and
points at exactly which cell moved, instead of a reviewer eyeballing a
10 kB JSON diff.

Matching and bands:
  * rows are matched by their "label" string; a missing or extra row is a
    failure (a sweep that silently dropped a cell is not "within
    tolerance"),
  * string fields (approach, scheduler) must match exactly,
  * "nodes" and other structural integers must match exactly — "n", the
    samples behind a row's percentiles, among them: a row with a different
    sample count is a different experiment, not a perf move,
  * accuracy_pct-style metrics get an ABSOLUTE band (quick-mode models are
    tiny; a fraction of the queries flipping is noise),
  * everything else (latencies, rates, counters) gets a RELATIVE band with
    an absolute floor, so near-zero baselines don't demand infinite
    precision.

Exit status: 0 in tolerance, 1 out of tolerance (or structurally
different), 2 usage error. --self-test exercises every failure mode on
inline fixtures and exits 0 only if each fires correctly.

Usage:
  bench_compare.py --baseline BENCH_x.json --fresh fresh.json
  bench_compare.py --baseline BENCH_x.json --run ./bench/x_sweep \
      [-- extra bench args]     # runs BIN --quick --json <tmp> [extra]
  bench_compare.py --self-test
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Structural integers: a drifting value means the sweep changed shape, not
# that performance moved.
EXACT_KEYS = {"nodes", "warmup_queries", "n"}
# Absolute bands (units of the metric itself).
ABSOLUTE_BANDS = {"accuracy_pct": 10.0}
# Relative band for everything else, with an absolute floor below which
# differences are ignored outright.
DEFAULT_REL = 0.35
DEFAULT_ABS_FLOOR = 1.0


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "results" not in doc or not isinstance(doc["results"], list):
        raise ValueError(f"{path}: not a bench --json report (no results[])")
    return doc


def compare_value(key, base, fresh, rel, abs_floor):
    """Returns None if in tolerance, else a human-readable complaint."""
    if isinstance(base, str) or isinstance(fresh, str):
        if base != fresh:
            return f"{key}: {base!r} != {fresh!r}"
        return None
    if base is None or fresh is None:  # json_number() null = non-finite
        if base is not fresh:
            return f"{key}: {base} != {fresh}"
        return None
    if key in EXACT_KEYS:
        if base != fresh:
            return f"{key}: expected exactly {base}, got {fresh}"
        return None
    if key in ABSOLUTE_BANDS:
        band = ABSOLUTE_BANDS[key]
        if abs(fresh - base) > band:
            return (f"{key}: {fresh:g} outside {base:g} "
                    f"± {band:g} (absolute)")
        return None
    band = max(rel * abs(base), abs_floor)
    if abs(fresh - base) > band:
        return (f"{key}: {fresh:g} outside {base:g} ± {band:g} "
                f"(rel {rel:g}, floor {abs_floor:g})")
    return None


def compare_reports(baseline, fresh, rel=DEFAULT_REL,
                    abs_floor=DEFAULT_ABS_FLOOR):
    """Returns a list of complaint strings; empty means in tolerance."""
    problems = []
    for key in ("experiment", "scheduler"):
        if baseline.get(key) != fresh.get(key):
            problems.append(
                f"{key}: {baseline.get(key)!r} != {fresh.get(key)!r}")
    base_rows = {row["label"]: row for row in baseline["results"]}
    fresh_rows = {row["label"]: row for row in fresh["results"]}
    for label in base_rows:
        if label not in fresh_rows:
            problems.append(f"row missing from fresh run: {label!r}")
    for label in fresh_rows:
        if label not in base_rows:
            problems.append(f"unexpected new row: {label!r}")
    for label, base_row in base_rows.items():
        fresh_row = fresh_rows.get(label)
        if fresh_row is None:
            continue
        for key, base_val in base_row.items():
            if key == "label":
                continue
            if key not in fresh_row:
                problems.append(f"[{label}] metric missing: {key}")
                continue
            complaint = compare_value(key, base_val, fresh_row[key], rel,
                                      abs_floor)
            if complaint is not None:
                problems.append(f"[{label}] {complaint}")
    return problems


def run_bench(binary, extra_args):
    """Runs `binary --quick --json <tmp> [extra]`, returns the parsed doc."""
    fd, json_path = tempfile.mkstemp(suffix=".json", prefix="bench_compare_")
    os.close(fd)
    try:
        cmd = [binary, "--quick", "--json", json_path] + extra_args
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError(
                f"bench exited {proc.returncode}: {' '.join(cmd)}")
        return load_report(json_path)
    finally:
        os.unlink(json_path)


# ---------------------------------------------------------------------------
# self-test


def _fixture(**overrides):
    row = {"label": "poisson k2", "approach": "TeamNet", "nodes": 2,
           "latency_ms": 10.0, "accuracy_pct": 90.0, "p99_ms": 20.0}
    row.update(overrides)
    return {"experiment": "loadgen_sweep", "scheduler": "discrete_event",
            "results": [row]}


def self_test():
    cases = [
        ("identical passes", _fixture(), _fixture(), True),
        ("drift inside band passes", _fixture(),
         _fixture(latency_ms=12.0, p99_ms=25.0), True),
        ("latency outside band fails", _fixture(),
         _fixture(latency_ms=20.0), False),
        ("small absolute drift under floor passes", _fixture(),
         _fixture(latency_ms=10.9), True),
        ("accuracy inside absolute band passes", _fixture(),
         _fixture(accuracy_pct=82.0), True),
        ("accuracy outside absolute band fails", _fixture(),
         _fixture(accuracy_pct=75.0), False),
        ("node count must match exactly", _fixture(),
         _fixture(nodes=4), False),
        ("sample count must match exactly", _fixture(n=32),
         _fixture(n=33), False),
        ("approach string must match", _fixture(),
         _fixture(approach="SG-MoE"), False),
        ("missing metric fails", _fixture(p99_ms=20.0),
         _fixture_without("p99_ms"), False),
        ("missing row fails", _fixture(),
         {"experiment": "loadgen_sweep", "scheduler": "discrete_event",
          "results": []}, False),
        ("extra row fails",
         {"experiment": "loadgen_sweep", "scheduler": "discrete_event",
          "results": []}, _fixture(), False),
        ("scheduler mode must match", _fixture(),
         dict(_fixture(), scheduler="free_running"), False),
    ]
    failures = 0
    for name, base, fresh, should_pass in cases:
        problems = compare_reports(base, fresh)
        ok = (not problems) == should_pass
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        if not ok:
            for p in problems:
                print(f"    {p}")
            failures += 1
    if failures:
        print(f"self-test: {failures} case(s) misbehaved")
        return 1
    print(f"self-test: all {len(cases)} cases behaved")
    return 0


def _fixture_without(key):
    doc = _fixture()
    del doc["results"][0][key]
    return doc


def main(argv):
    parser = argparse.ArgumentParser(
        description="compare a fresh bench --json run against a checked-in "
                    "baseline with per-metric tolerance bands")
    parser.add_argument("--baseline", help="checked-in BENCH_*.json")
    parser.add_argument("--fresh", help="fresh --json output to compare")
    parser.add_argument("--run", metavar="BIN",
                        help="run BIN --quick --json <tmp> (plus args after "
                             "--) and compare its output")
    parser.add_argument("--rel", type=float, default=DEFAULT_REL,
                        help="relative tolerance band (default %(default)s)")
    parser.add_argument("--abs-floor", type=float, default=DEFAULT_ABS_FLOOR,
                        help="absolute floor under which drift is ignored "
                             "(default %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite and exit")
    if "--" in argv:
        split = argv.index("--")
        argv, extra_args = argv[:split], argv[split + 1:]
    else:
        extra_args = []
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or bool(args.fresh) == bool(args.run):
        parser.error("need --baseline plus exactly one of --fresh / --run")

    baseline = load_report(args.baseline)
    fresh = run_bench(args.run, extra_args) if args.run \
        else load_report(args.fresh)

    problems = compare_reports(baseline, fresh, rel=args.rel,
                               abs_floor=args.abs_floor)
    if problems:
        print(f"OUT OF TOLERANCE vs {args.baseline} "
              f"({len(problems)} problem(s)):")
        for p in problems:
            print(f"  {p}")
        print("if the change is intended, regenerate the baseline from a "
              "--quick --json run and commit it")
        return 1
    n = len(baseline["results"])
    print(f"in tolerance vs {args.baseline} ({n} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
