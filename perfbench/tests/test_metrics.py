"""Unit tests for the benchmark's own rules (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import metrics as M  # noqa: E402


def rung(rate, p99, offered=None, achieved=None):
    offered = rate if offered is None else offered
    achieved = offered if achieved is None else achieved
    return {"rate_qps": rate, "p99_ms": p99, "offered": offered, "achieved": achieved}


def open_loop(n, gap_s, service_s):
    """Arrivals every gap_s served FIFO by one server taking service_s."""
    arrivals, completions, free = [], [], 0.0
    for i in range(n):
        t = i * gap_s
        free = max(free, t) + service_s
        arrivals.append(t)
        completions.append(free)
    return arrivals, completions


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(M.percentile(values, 50), 5)
        self.assertEqual(M.percentile(values, 90), 9)
        self.assertEqual(M.percentile(values, 100), 10)
        self.assertEqual(M.percentile(values, 0), 1)
        self.assertEqual(M.percentile(list(range(1, 1001)), 99), 990)

    def test_order_does_not_matter(self):
        self.assertEqual(M.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            M.percentile([], 50)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(M.samples_beyond(1000, 99), 10)
        self.assertEqual(M.tail_percentile(1000), 99.0)
        self.assertEqual(M.tail_percentile(999), 90.0)  # p99 has only 9 beyond
        self.assertEqual(M.tail_percentile(9999), 99.0)
        self.assertEqual(M.tail_percentile(10000), 99.9)
        self.assertEqual(M.tail_percentile(20), 50.0)
        self.assertIsNone(M.tail_percentile(19))


class SloRateTest(unittest.TestCase):
    def test_interpolates_between_last_pass_and_first_failure(self):
        rungs = [rung(50, 10), rung(100, 30), rung(200, 70), rung(300, 500)]
        self.assertAlmostEqual(M.slo_qps(rungs), 150.0)

    def test_every_rung_passing_reports_the_top_rate(self):
        self.assertEqual(M.slo_qps([rung(50, 5), rung(100, 49.9)]), 100.0)

    def test_failing_first_rung_reports_zero(self):
        self.assertEqual(M.slo_qps([rung(50, 60), rung(100, 10)]), 0.0)

    def test_only_the_passing_prefix_counts(self):
        rungs = [rung(50, 10), rung(100, 80), rung(200, 20)]
        self.assertAlmostEqual(M.slo_qps(rungs), 50 + 50 * (40 / 70))

    def test_backlog_alone_pins_to_the_last_passing_rate(self):
        rungs = [rung(50, 10), rung(100, 20, offered=100, achieved=90)]
        self.assertEqual(M.slo_qps(rungs), 50.0)

    def test_slo_boundary_is_inclusive(self):
        self.assertTrue(M.rung_passes(M.SLO_MS, 100, 100))
        self.assertFalse(M.rung_passes(M.SLO_MS + 1e-9, 100, 100))

    def test_backlog_rule_on_synthetic_records(self):
        # Under capacity: 100 q/s offered to a 200 q/s server keeps up.
        arrivals, completions = open_loop(1000, 0.010, 0.005)
        offered, achieved = M.open_loop_rates(arrivals, completions)
        self.assertAlmostEqual(offered, 100.0)
        self.assertFalse(M.backlog_growing(offered, achieved))
        # Over capacity: 100 q/s offered to an 80 q/s server queues forever.
        arrivals, completions = open_loop(1000, 0.010, 0.0125)
        offered, achieved = M.open_loop_rates(arrivals, completions)
        self.assertAlmostEqual(achieved, 80.0, places=1)
        self.assertTrue(M.backlog_growing(offered, achieved))
        self.assertFalse(M.rung_passes(0.0, offered, achieved))


class FailureAccountingTest(unittest.TestCase):
    def test_counts_every_kind_of_failure(self):
        self.assertEqual(M.failure_counts(100, errors=1, mismatches=3), (100, 4))
        self.assertEqual(M.failure_counts(100), (100, 0))

    def test_more_failures_than_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            M.failure_counts(2, errors=2, mismatches=1)

    def test_failed_pct(self):
        self.assertEqual(M.failed_pct(200, 0), 0.0)
        self.assertEqual(M.failed_pct(200, 3), 1.5)
        self.assertEqual(M.failed_pct(0, 0), 100.0)  # nothing attempted


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ("root", 1, 0, 1, 0, 0, 100),
            ("a", 2, 1, 1, 0, 10, 40),
            ("b", 3, 1, 1, 0, 30, 60),  # overlaps a by 10
            ("c", 4, 2, 1, 0, 15, 20),  # grandchild: not root's child
            ("other", 5, 0, 1, 1, 0, 10),
        ]
        self.assertEqual(M.self_times(spans), {1: 50, 2: 25, 3: 30, 4: 5, 5: 10})

    def test_child_outside_the_parent_is_clipped(self):
        spans = [("root", 1, 0, 0, 0, 10, 20), ("late", 2, 1, 0, 0, 15, 30)]
        self.assertEqual(M.self_times(spans)[1], 5)


class CritSharesTest(unittest.TestCase):
    def test_shares_sum_to_100(self):
        shares = M.crit_shares([1, 0, 2, 7, 0])
        self.assertAlmostEqual(sum(shares), 100.0)
        self.assertEqual(shares[3], 70.0)

    def test_no_time_gives_zero_shares(self):
        self.assertEqual(M.crit_shares([0, 0]), [0.0, 0.0])


if __name__ == "__main__":
    unittest.main()
