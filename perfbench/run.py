#!/usr/bin/env python3
"""TeamNet repository benchmark: builds the driver, runs one workload, checks
every answer and prints the metrics.

    python3 perfbench/run.py --workload fleet_mlp_k4 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a TeamNet checkout. The first run builds
perfbench/driver.cpp against ../src into .bench_build/ and trains the
quick-mode teams into .bench_build/cache (about two minutes); later runs
reuse both. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics from a separate traced pass. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Workload rationale and the metric-to-layer map are in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "perfbench")
CACHE = os.path.join(BUILD, "cache")
WORKLOADS = ("fleet_mlp_k4", "fleet_lossy_k4", "tcp_cnn_k2")
BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 240
RUN_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout, log_path):
    """Runs cmd with output to log_path; subprocess.run kills and reaps the
    child on timeout."""
    with open(log_path, "a") as out:
        try:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=timeout, cwd=ROOT).returncode
        except subprocess.TimeoutExpired:
            raise BenchError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    if rc != 0:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        raise BenchError("failed (%d): %s\n%s" % (rc, " ".join(cmd), tail))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no TeamNet sources at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, log_path)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
               BUILD_TIMEOUT_S, log_path)
    # Training happens here, once per checkout, never inside a measured run.
    run_logged([BINARY, "--prepare", "--cache", CACHE], PREPARE_TIMEOUT_S,
               os.path.join(BUILD, "prepare.log"))


def run_driver(args):
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    run_logged([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--cache", CACHE, "--out", out],
               RUN_TIMEOUT_S, os.path.join(runs, "driver.log"))
    with open(out) as f:
        return json.load(f)


# ---- reduction ------------------------------------------------------------------
#
# Each reducer returns (e2e, per_layer, attempted, failed, checks, queries).
# latency_ms is the workload's typical per-query latency on its own clock:
# the mean on the virtual clock, where the median reads the deterministic
# service floor on every seed, and the median on the wall clock, where the
# mean is dominated by scheduler stalls of a shared host.

def latency_summary(name, lat_ms, lines):
    n = len(lat_ms)
    s = {"n": n, "p50": M.percentile(lat_ms, 50), "p99": M.percentile(lat_ms, 99),
         "mean": sum(lat_ms) / n}
    lines.append("  %s: n=%d p50=%.4f ms p99=%.4f ms mean=%.4f ms; highest percentile "
                 "with >=%d samples beyond it: p%s" % (
                     name, n, s["p50"], s["p99"], s["mean"], M.MIN_BEYOND,
                     M.tail_percentile(n)))
    return s


def closed_loop_qps(latency_ms, p99_ms):
    """One sequential client's rate at its typical latency, when its tail
    meets the SLO."""
    return 1e3 / latency_ms if p99_ms <= M.SLO_MS else 0.0


def rung_label(rate):
    return "q%d" % int(round(rate))


def reduce_fleet_mlp(doc, lines):
    rungs = []
    total = correct = mismatches = checked = local_wins = degraded = 0
    bytes_total = msgs_total = 0.0
    for r in doc["result"]:
        w = r["warmup"]
        arr, comp = r["arrival_s"], r["completion_s"]
        n = len(arr)
        lat = [1e3 * (c - a) for a, c in zip(arr[w:], comp[w:])]
        offered, achieved = M.open_loop_rates(arr[w:], comp[w:])
        lines.append("rung %g q/s: sent %d, succeeded %d, failed %d (reference-checked %d)" % (
            r["rate_qps"], n, n - r["mismatches"], r["mismatches"], r["checked"]))
        s = latency_summary("steady", lat, lines)
        passes = M.rung_passes(s["p99"], offered, achieved)
        lines.append("  offered %.2f q/s, achieved %.2f q/s: %s" % (
            offered, achieved, "meets the SLO" if passes else "misses the SLO"))
        rungs.append({"rate_qps": r["rate_qps"], "p99_ms": s["p99"], "mean_ms": s["mean"],
                      "offered": offered, "achieved": achieved,
                      "crit": M.crit_shares(r["crit_ns"]),
                      "queue_ms": 1e-6 * r["queue_ns"] / (n - w)})
        total += n
        correct += sum(r["correct"])
        mismatches += r["mismatches"]
        checked += r["checked"]
        local_wins += r["local_wins"]
        degraded += sum(1 for d in r["degradation"] if d != 0)
        bytes_total += r["bytes_per_query"] * n
        msgs_total += r["msgs_per_query"] * n
    low = rungs[0]
    e2e = {"latency_ms": low["mean_ms"], "slo_qps": M.slo_qps(rungs),
           "bytes_per_query": bytes_total / total, "msgs_per_query": msgs_total / total,
           "accuracy_pct": 100.0 * correct / total}
    layers = {"load.p99_ms": low["p99_ms"],
              "net.local_win_pct": 100.0 * local_wins / checked if checked else 0.0,
              "net.degraded_pct": 100.0 * degraded / total}
    for tag, r in (("q50", rungs[0]), ("top", rungs[-1])):
        for kind, share in zip(M.CRIT_KINDS, r["crit"]):
            if kind != "other":
                layers["obs.crit_%s_pct.%s" % (kind, tag)] = share
    for r in rungs:
        label = rung_label(r["rate_qps"])
        layers["load.achieved_qps." + label] = r["achieved"]
        layers["load.queue_wait_ms." + label] = r["queue_ms"]
        layers["load.p99_ms." + label] = r["p99_ms"]
    checks = {
        "every full gather matches the reference": mismatches == 0,
        "critical path is queueing + serialization + compute + transit at every rung":
            all(abs(sum(r["crit"][:4]) - 100.0) < 1e-9 for r in rungs),
    }
    attempted, failed = M.failure_counts(total, mismatches=mismatches)
    return e2e, layers, attempted, failed, checks, total


def reduce_fleet_lossy(doc, lines):
    r = doc["result"]
    n = r["queries"]
    lines.append("one sequential client: sent %d, succeeded %d, failed %d "
                 "(reference-checked %d full gathers)" % (
                     n, n - r["mismatches"], r["mismatches"], r["checked"]))
    s = latency_summary("all", r["latency_ms"], lines)
    c = r["counters"]
    e2e = {"latency_ms": s["mean"], "slo_qps": closed_loop_qps(s["mean"], s["p99"]),
           "bytes_per_query": r["bytes_per_query"], "msgs_per_query": r["msgs_per_query"],
           "accuracy_pct": 100.0 * sum(r["correct"]) / n}
    layers = {"load.p99_ms": s["p99"],
              "net.local_win_pct": 100.0 * r["local_wins"] / r["checked"] if r["checked"] else 0.0,
              "net.degraded_pct": 100.0 * (c["quorum_gathers"] + c["local_only_gathers"]) / n}
    layers.update(("net." + k, v) for k, v in c.items())
    checks = {"every full gather matches the reference": r["mismatches"] == 0}
    attempted, failed = M.failure_counts(n, mismatches=r["mismatches"])
    return e2e, layers, attempted, failed, checks, n


def reduce_tcp(doc, lines):
    m = doc["measured"]
    phases = [("warm-up", doc["warmup"]), ("measured", m)]
    if "traced" in doc:
        phases.append(("traced", doc["traced"]))
    errors = sum(p["errors"] for _, p in phases)
    attempted, failed = M.failure_counts(
        sum(len(p["ok"]) for _, p in phases), errors=errors,
        mismatches=sum(p["ok"].count(0) for _, p in phases) - errors)
    for name, p in phases:
        lines.append("%s: sent %d, succeeded %d, failed %d (errors %d)" % (
            name, len(p["ok"]), p["ok"].count(1), p["ok"].count(0), p["errors"]))
    s = latency_summary("measured", m["latency_ms"], lines)
    n = s["n"]
    c = doc["counters"]
    e2e = {"latency_ms": s["p50"], "slo_qps": closed_loop_qps(s["p50"], s["p99"]),
           "bytes_per_query": doc["bytes_per_query"], "msgs_per_query": doc["msgs_per_query"],
           "accuracy_pct": 100.0 * sum(m["correct"]) / n}
    layers = {"load.p99_ms": s["p99"],
              "net.local_win_pct": 100.0 * m["local_wins"] / n,
              "net.degraded_pct": 100.0 * (c["quorum_gathers"] + c["local_only_gathers"]) / n}
    layers.update(("net." + k, v) for k, v in c.items())
    checks = {"every answer matches the reference": failed == 0,
              "no worker thread failed": doc["worker_errors"] == 0}
    return e2e, layers, attempted, failed, checks, n


def span_layers(doc, queries, layers):
    """Per-layer metrics from the traced pass's spans and codec timing."""
    spans = doc["spans"]
    flops = M.median(doc["flops_per_forward"])
    forwards = [(s[6] - s[5]) / 1e3 for s in spans if s[0] == "nn.forward"]
    fwd_us = M.median(forwards)
    layers["nn.forward_us"] = fwd_us
    layers["tensor.gflops"] = flops / fwd_us / 1e3 if fwd_us > 0 else 0.0
    layers["nn.forwards_per_query"] = len(forwards) / queries
    layers["nn.flops_per_query"] = flops * len(forwards) / queries
    service = {s[1]: s for s in spans if s[0] == "net.service"}
    selfs = M.self_times(spans)
    layers["net.service_us"] = M.median([(s[6] - s[5]) / 1e3 for s in service.values()])
    layers["net.service_self_us"] = M.median([selfs[i] / 1e3 for i in service])
    layers["net.send_us"] = M.median(
        [(s[6] - s[5]) / 1e3 for s in spans if s[0] == "net.send" and s[2] in service])
    wait = {}
    for s in spans:
        if s[0] == "net.recv" and s[2] in service:
            wait[s[2]] = wait.get(s[2], 0) + (s[6] - s[5])
    layers["net.gather_wait_us"] = M.median([v / 1e3 for v in wait.values()])
    layers["net.encode_us"] = doc["codec"]["encode_us"]
    layers["net.decode_us"] = doc["codec"]["decode_us"]
    return len(service)


def reduce(doc, workload, trace, lines):
    reducer = {"fleet_mlp_k4": reduce_fleet_mlp, "fleet_lossy_k4": reduce_fleet_lossy,
               "tcp_cnn_k2": reduce_tcp}[workload]
    e2e, layers, attempted, failed, checks, queries = reducer(doc, lines)
    e2e["setup_s"] = M.median(doc["setup_s"])
    e2e["peak_rss_mb"] = doc["peak_rss_mb"]
    lines.append("set-up: %s s (median of %d)" % (
        ", ".join("%.4f" % v for v in doc["setup_s"]), len(doc["setup_s"])))
    if trace:
        if workload == "tcp_cnn_k2":
            traced = doc["traced"]["latency_ms"]
            measured = doc["measured"]["latency_ms"]
            served = span_layers(doc, len(traced), layers)
            checks["one net.service span per traced query"] = served == len(traced)
            plain_ms, traced_ms = sum(measured) / len(measured), sum(traced) / len(traced)
            checks["nn.forward_us <= measured p50"] = (
                layers["nn.forward_us"] <= 1e3 * e2e["latency_ms"])
        else:
            span_layers(doc, queries, layers)
            plain_ms = 1e3 * sum(doc["wall_s"]) / queries
            traced_ms = 1e3 * sum(doc["traced_wall_s"]) / queries
            layers["sim.wall_ms_per_query"] = plain_ms
            checks["decorators leave the virtual results byte-identical"] = (
                doc["decorators_transparent"] == 1)
        layers["obs.trace_overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
    return e2e, layers, attempted, failed, checks


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    try:
        build()
        doc = run_driver(args)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    lines = ["workload %s seed %d seconds %d trace %d" % (
        args.workload, args.seed, args.seconds, args.trace)]
    e2e, per_layer, attempted, failed, checks = reduce(doc, args.workload, args.trace, lines)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    if args.trace:
        # A layer this workload does not exercise reads 0 (README.md lists
        # which workload loads which layer).
        for m in spec["per_layer"]:
            out[m["name"]] = {"value": per_layer.get(m["name"], 0), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            out[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    for name, ok in checks.items():
        lines.append("check: %s: %s" % (name, "ok" if ok else "FAILED"))
    lines.append("queries: attempted %d, failed %d (failed_pct %.4f%%)" % (
        attempted, failed, M.failed_pct(attempted, failed)))
    for name, v in out.items():
        lines.append("%s = %.6g %s" % (name, v["value"], v["unit"]))
    print("\n".join(lines))
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
