"""Reduces one raw driver document (perfbench/driver.cpp) to the metrics.

Pure functions over plain Python data, so the rules the benchmark is judged
by — percentile selection, the SLO-rate rule, failure accounting, span self
time — are unit-tested in perfbench/tests/test_metrics.py.
"""

import math
import statistics

# The repo's latency SLO (the resilience plane's 50 ms gather deadline).
SLO_MS = 50.0
# A rung whose completions keep up with less than this share of its offered
# rate is building a backlog, whatever its percentiles say.
BACKLOG_RATIO = 0.95
# Samples a reported percentile must have beyond it.
MIN_BEYOND = 10
CRIT_KINDS = ("queueing", "serialization", "compute", "transit", "other")


def nearest_rank(n, pct):
    """1-based rank of the nearest-rank pct-th percentile of n samples.
    Rounding first keeps 99.9% of 10000 at rank 9990, not 9991."""
    return max(1, math.ceil(round(pct / 100.0 * n, 6)))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[nearest_rank(len(values), pct) - 1]


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - nearest_rank(n, pct)


def tail_percentile(n, candidates=(99.99, 99.9, 99.0, 90.0, 50.0)):
    """Highest candidate percentile with at least MIN_BEYOND samples beyond
    it, or None when even the lowest has fewer."""
    for pct in candidates:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def open_loop_rates(arrivals, completions):
    """(offered, achieved) q/s of one open-loop phase: arrivals per second
    over the arrival span, completions per second over the whole window."""
    n = len(arrivals)
    offered = (n - 1) / (arrivals[-1] - arrivals[0])
    achieved = n / (max(completions) - arrivals[0])
    return offered, achieved


def backlog_growing(offered, achieved):
    return achieved < BACKLOG_RATIO * offered


def rung_passes(p99_ms, offered, achieved):
    return p99_ms <= SLO_MS and not backlog_growing(offered, achieved)


def slo_qps(rungs):
    """Highest offered rate meeting the SLO without a growing backlog.

    `rungs` is a list of dicts with rate_qps, p99_ms, offered, achieved, in
    ascending rate order. Only the passing prefix of the ladder counts; the
    answer is interpolated linearly in p99 between the last passing rung
    and the first failing one, so it moves continuously with the system
    instead of snapping to a ladder rate. A first failure caused by backlog
    alone pins the answer to the last passing rate. 0 when even the first
    rung fails."""
    last = -1
    for i, r in enumerate(rungs):
        if not rung_passes(r["p99_ms"], r["offered"], r["achieved"]):
            break
        last = i
    if last < 0:
        return 0.0
    if last == len(rungs) - 1:
        return float(rungs[last]["rate_qps"])
    lo, hi = rungs[last], rungs[last + 1]
    frac = 0.0
    if hi["p99_ms"] > lo["p99_ms"] and hi["p99_ms"] > SLO_MS:
        frac = (SLO_MS - lo["p99_ms"]) / (hi["p99_ms"] - lo["p99_ms"])
        frac = min(1.0, max(0.0, frac))
    return lo["rate_qps"] + frac * (hi["rate_qps"] - lo["rate_qps"])


def failure_counts(attempted, errors=0, mismatches=0):
    """(attempted, failed): a query fails when it errored or its answer
    disagreed with the reference (an unanswered query surfaces as an error
    or a timed-out run); each query counts once, so the counts are
    disjoint."""
    failed = errors + mismatches
    if failed > attempted:
        raise ValueError("more failures than attempted queries")
    return attempted, failed


def failed_pct(attempted, failed):
    return 100.0 * failed / attempted if attempted else 100.0


def self_times(spans):
    """Self time (ns) per span id: its duration minus the part of it that
    its child spans cover. Spans are tuples
    (name, id, parent, qid, thread, start_ns, end_ns)."""
    children = {}
    for s in spans:
        if s[2]:
            children.setdefault(s[2], []).append((s[5], s[6]))
    out = {}
    for s in spans:
        start, end = s[5], s[6]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(s[1], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s[1]] = (end - start) - covered
    return out


def median(values, default=0.0):
    return statistics.median(values) if values else default


def crit_shares(crit_ns):
    """Critical-path shares (%) per kind from summed ns, in CRIT_KINDS
    order."""
    total = sum(crit_ns)
    if total <= 0:
        return [0.0] * len(crit_ns)
    return [100.0 * v / total for v in crit_ns]
