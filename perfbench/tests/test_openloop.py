"""Self-tests of the open-loop clock and generator-lag reporting."""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from emxbench import openloop  # noqa: E402


class OpenLoop(unittest.TestCase):
    def test_schedule_is_fixed_whatever_the_system_does(self):
        self.assertEqual(openloop.schedule(10.0, 0.5, 4), [10.0, 10.5, 11.0, 11.5])
        self.assertEqual(openloop.schedule(0.0, 1.0, 0), [])

    def test_latency_counts_from_due_not_from_send(self):
        # Due at 1.0, sent late at 1.4 because the generator stalled,
        # ended at 2.0: the stall is charged to the request.
        self.assertAlmostEqual(openloop.latency_from_due(1.0, 2.0), 1.0)

    def test_lag_is_send_minus_due_never_negative(self):
        lags = openloop.lags([1.0, 2.0, 3.0], [1.25, 1.5, 3.0])
        self.assertEqual(lags, [0.25, 0.0, 0.0])

    def test_lag_report_gives_median_and_max(self):
        self.assertEqual(openloop.lag_report([0.5, 0.0, 0.25]), (0.25, 0.5))
        self.assertEqual(openloop.lag_report([0.0, 0.5]), (0.25, 0.5))
        self.assertEqual(openloop.lag_report([]), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
