"""Self-tests of the harness arithmetic: percentiles with sample counts,
failure counting and span self time.

    python3 -m unittest discover -s perfbench/tests
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from emxbench import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_beyond_counts_samples_above_nearest_rank(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(100, 95), 5)
        self.assertEqual(stats.beyond(20, 50), 10)
        self.assertEqual(stats.beyond(19, 50), 9)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        self.assertEqual(stats.tail(values), (99.0, 990))
        self.assertEqual(stats.tail(list(range(1, 201))), (95.0, 190))
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90))

    def test_no_tail_below_twenty_samples(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(20))), (50.0, 9))

    def test_describe_always_states_sample_count(self):
        self.assertIn("(n=3)", stats.describe([1.0, 2.0, 3.0], "s"))
        self.assertIn("no tail", stats.describe([1.0, 2.0, 3.0], "s"))
        text = stats.describe([float(i) for i in range(100)], "s")
        self.assertIn("p90 89 s", text)
        self.assertIn("(n=100)", text)

    def test_p90_interpolates_and_handles_one_sample(self):
        self.assertEqual(stats.p90([4.0]), 4.0)
        self.assertAlmostEqual(stats.p90([float(i) for i in range(11)]), 9.0)


class FailureCounting(unittest.TestCase):
    def test_checks_count_attempts_and_failures(self):
        t = stats.Tally()
        self.assertTrue(t.check(True, "a"))
        self.assertFalse(t.check(False, "b"))
        t.check(True, "c")
        self.assertEqual((t.attempted, t.failed), (3, 1))
        self.assertEqual(t.failures, ["b"])
        self.assertAlmostEqual(t.fail_ratio, 1 / 3)

    def test_mismatch_fails_without_a_new_attempt(self):
        t = stats.Tally()
        t.check(True, "run")
        t.mismatch("digest differs")
        self.assertEqual((t.attempted, t.failed), (1, 1))
        self.assertEqual(t.fail_ratio, 1.0)

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(stats.Tally().fail_ratio, 1.0)


def span(name, start, end, parent=-1, it=0):
    return {"name": name, "start": start, "end": end, "parent": parent, "iter": it}


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("root", 0, 10), span("a", 1, 3, 0), span("b", 4, 8, 0),
                 span("c", 5, 6, 2)]
        self.assertEqual(stats.self_times(spans), [4, 2, 3, 1])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 10), span("a", 1, 5, 0), span("b", 3, 7, 0)]
        self.assertEqual(stats.self_times(spans)[0], 4)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2, 6), span("a", 0, 4, 0), span("b", 5, 9, 0)]
        self.assertEqual(stats.self_times(spans)[0], 1)

    def test_per_iteration_sums_by_name_and_filters_by_parent(self):
        spans = [span("iteration", 0, 10, -1, 0), span("run", 0, 4, 0, 0),
                 span("resume", 4, 9, 0, 0), span("run", 5, 8, 2, 0),
                 span("iteration", 10, 20, -1, 1), span("run", 10, 15, 4, 1)]
        self.assertEqual(stats.per_iteration(spans, "run"), [7, 5])
        self.assertEqual(stats.per_iteration(spans, "run", under="iteration"), [4, 5])
        self.assertEqual(stats.per_iteration(spans, "resume", self_time=False), [5])
        self.assertEqual(stats.per_iteration(spans, "resume"), [2])


if __name__ == "__main__":
    unittest.main()
