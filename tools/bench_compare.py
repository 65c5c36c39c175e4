#!/usr/bin/env python3
"""Exact gate for checked-in bench baselines (DESIGN.md §14).

The repo keeps frozen --quick snapshots of the sweep benches
(BENCH_resilience.json, BENCH_loadgen.json, BENCH_breakdown.json). Their
numbers come off the discrete-event clock, so a same-seed run reproduces
them byte for byte; THIS tool answers the question a baseline exists for:
did a code change move the numbers? It re-runs (or is handed) a fresh
--quick --json file and compares it row by row against the snapshot, every
field exactly, so a change that moves any cell fails loudly and points at
exactly which cell moved, instead of leaving a 10 kB JSON diff to be
read by eye.

Matching:
  * rows are matched by their "label" string; a missing or extra row is a
    failure (a sweep that silently dropped a cell is a different sweep),
  * every field of every row must be present on both sides and equal:
    strings, integers, floats and nulls alike (json_number()'s null is a
    non-finite value); a metric only the fresh run has is a failure too.

Exit status: 0 identical, 1 different (in any field or structurally), 2
usage error. --self-test exercises every failure mode on inline fixtures
and exits 0 only if each fires correctly.

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


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "results" not in doc or not isinstance(doc["results"], list):
        raise ValueError(f"{path}: not a bench --json report (no results[])")
    return doc


def compare_reports(baseline, fresh):
    """Returns a list of complaint strings; empty means identical."""
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
            if key not in fresh_row:
                problems.append(f"[{label}] metric missing: {key}")
            elif fresh_row[key] != base_val:
                problems.append(
                    f"[{label}] {key}: {base_val!r} != {fresh_row[key]!r}")
        for key in fresh_row:
            if key not in base_row:
                problems.append(f"[{label}] unexpected new metric: {key}")
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
        ("latency drift fails", _fixture(),
         _fixture(latency_ms=12.0, p99_ms=25.0), False),
        ("large latency drift fails", _fixture(),
         _fixture(latency_ms=20.0), False),
        ("small absolute drift fails", _fixture(),
         _fixture(latency_ms=10.9), False),
        ("last-bit drift fails", _fixture(),
         _fixture(latency_ms=10.000000000000002), False),
        ("small accuracy drift fails", _fixture(),
         _fixture(accuracy_pct=82.0), False),
        ("large accuracy drift fails", _fixture(),
         _fixture(accuracy_pct=75.0), False),
        ("null must match null", _fixture(p99_ms=None),
         _fixture(p99_ms=20.0), False),
        ("node count must match exactly", _fixture(),
         _fixture(nodes=4), False),
        ("sample count must match exactly", _fixture(n=32),
         _fixture(n=33), False),
        ("approach string must match", _fixture(),
         _fixture(approach="SG-MoE"), False),
        ("missing metric fails", _fixture(p99_ms=20.0),
         _fixture_without("p99_ms"), False),
        ("extra metric fails", _fixture_without("p99_ms"), _fixture(),
         False),
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
                    "baseline, every field exactly")
    parser.add_argument("--baseline", help="checked-in BENCH_*.json")
    parser.add_argument("--fresh", help="fresh --json output to compare")
    parser.add_argument("--run", metavar="BIN",
                        help="run BIN --quick --json <tmp> (plus args after "
                             "--) and compare its output")
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

    problems = compare_reports(baseline, fresh)
    if problems:
        print(f"DIFFERS from {args.baseline} "
              f"({len(problems)} problem(s)):")
        for p in problems:
            print(f"  {p}")
        print("if the change is intended, regenerate the baseline from a "
              "--quick --json run and commit it")
        return 1
    n = len(baseline["results"])
    print(f"identical to {args.baseline} ({n} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
