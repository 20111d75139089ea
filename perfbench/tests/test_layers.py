"""Per-layer arithmetic on a synthetic traced run: the digest is the
run_to difference, and the nested resume path counts only once."""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from emxbench import layers, stats  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "iter": 0}


COUNTS = {"events": 1000, "packets": 250, "mean_latency_cycles": 5.0, "peak_port_backlog": 3,
          "dma_reads": 10, "dma_block_reads": 0, "dma_writes": 2, "packets_accepted": 250,
          "compute_share": 25.0, "overhead_share": 25.0, "comm_share": 25.0,
          "switch_share": 25.0, "reads_issued": 10, "switches_remote_read": 1.0,
          "switches_thread_sync": 0.0, "switches_iter_sync": 2.0, "trace_events": 400,
          "checkpoints": 1, "snapshot_bytes": 4096, "build_rss_mb": 64.0}

TRACE = {
    "reference": {"wall_s": 10.0, "exit_code": 0, "verified": True, "cycles": 7,
                  "trace_events": 400, "trace_crc": "00000001"},
    "iterations": [{"wall_s": 11.0, "exit_code": 0, "verified": True, "cycles": 7,
                    "trace_events": 400, "trace_crc": "00000001"}],
    "nosink_run_s": [3.0],
    "counts": COUNTS,
    "spans": [
        span("iteration", 0.0, 11.0, -1),             # 0
        span("Machine::Machine", 0.0, 1.0, 0),        # 1
        span("workloads::build", 1.0, 1.5, 0),        # 2
        span("Machine::run_to", 1.5, 3.5, 0),         # 3
        span("snapshot::capture", 3.5, 4.0, 0),       # 4
        span("SnapshotFile::write_file", 4.0, 4.5, 0),  # 5
        span("snapshot::resume", 4.5, 8.0, 0),        # 6
        span("SnapshotFile::read_file", 4.5, 4.75, 6),  # 7
        span("Machine::Machine", 4.75, 5.75, 6),      # 8
        span("Machine::run_to", 5.75, 7.5, 6),        # 9
        span("snapshot::verify", 7.5, 8.0, 6),        # 10
        span("Machine::run_to", 8.0, 10.0, 0),        # 11
        span("Machine::report", 10.0, 10.25, 0),      # 12
        span("Workload::verify", 10.25, 10.5, 0),     # 13
    ],
}


class FromTrace(unittest.TestCase):
    def setUp(self):
        self.v = layers.from_trace(TRACE)

    def test_resume_path_counts_once(self):
        self.assertEqual(self.v["core.build_s"], 1.0)
        self.assertEqual(self.v["snapshot.resume_s"], 3.5)
        self.assertEqual(self.v["snapshot.read_s"], 0.25)
        self.assertEqual(self.v["snapshot.verify_s"], 0.5)

    def test_digest_is_the_sink_free_difference(self):
        # Top-level run_to: 2.0 + 2.0 = 4.0 s; the sink-free run 3.0 s.
        self.assertEqual(self.v["trace.digest_s"], 1.0)
        self.assertEqual(self.v["sim.run_s"], 3.0)
        self.assertEqual(self.v["trace.digest_share"], 0.25)
        self.assertAlmostEqual(self.v["sim.ns_per_event"], 3.0 / 1000 * 1e9)
        self.assertEqual(self.v["network.events_per_packet"], 4.0)

    def test_snapshot_share_and_overhead(self):
        self.assertAlmostEqual(self.v["snapshot.share"], 1.0 / 11.0)
        self.assertAlmostEqual(self.v["trace.overhead"], 0.1)

    def test_traced_run_must_reproduce_the_reference(self):
        tally = stats.Tally()
        layers.check_trace(TRACE, tally, "t")
        self.assertEqual((tally.attempted, tally.failed), (2, 0))
        bad = dict(TRACE, iterations=[dict(TRACE["iterations"][0], trace_crc="00000002")])
        tally = stats.Tally()
        layers.check_trace(bad, tally, "t")
        self.assertEqual(tally.failed, 1)


if __name__ == "__main__":
    unittest.main()
