"""Per-layer metrics from one traced run of the in-process driver
(emx_perfbench trace): span self times plus the report's counts.

Layer spans are taken at the top level of an iteration. The resume
path of a preempted job (read, rebuild, re-execute, verify) is
reported whole as snapshot.resume_s, so its nested build and run_to
spans do not count twice.
"""
from . import stats

TOP = "iteration"

# Layers the in-process driver cannot see; the workload fills them in.
OUTSIDE = ("jobs.", "serve.")


def _median_or_zero(values):
    return stats.median(values) if values else 0.0


def from_trace(data):
    spans = data["spans"]

    def top(name):
        return _median_or_zero(stats.per_iteration(spans, name, under=TOP))

    def inclusive(name):
        return _median_or_zero(stats.per_iteration(spans, name, self_time=False))

    run_to = stats.per_iteration(spans, "Machine::run_to", under=TOP)
    digest = [max(0.0, r - n) for r, n in zip(run_to, data["nosink_run_s"])]
    digest_s = stats.median(digest)
    sim_run_s = stats.median([r - d for r, d in zip(run_to, digest)])
    walls = [it["wall_s"] for it in data["iterations"]]
    wall = stats.median(walls)
    c = data["counts"]
    events, packets = c["events"], c["packets"]
    capture_s, write_s = inclusive("snapshot::capture"), inclusive("SnapshotFile::write_file")
    return {
        "core.build_s": top("Machine::Machine"),
        "core.build_rss_mb": c["build_rss_mb"],
        "core.report_s": top("Machine::report"),
        "workloads.build_s": top("workloads::build"),
        "workloads.verify_s": top("Workload::verify"),
        "sim.run_s": sim_run_s,
        "sim.events": events,
        "sim.ns_per_event": sim_run_s / events * 1e9 if events else 0.0,
        "sim.events_per_s": events / sim_run_s if sim_run_s > 0 else 0.0,
        "network.packets": packets,
        "network.packets_per_s": packets / sim_run_s if sim_run_s > 0 else 0.0,
        "network.events_per_packet": events / packets if packets else 0.0,
        "network.mean_latency_cycles": c["mean_latency_cycles"],
        "network.peak_port_backlog": c["peak_port_backlog"],
        "proc.dma_reads": c["dma_reads"],
        "proc.dma_block_reads": c["dma_block_reads"],
        "proc.dma_writes": c["dma_writes"],
        "proc.packets_accepted": c["packets_accepted"],
        "proc.compute_share": c["compute_share"],
        "proc.overhead_share": c["overhead_share"],
        "proc.comm_share": c["comm_share"],
        "proc.switch_share": c["switch_share"],
        "runtime.reads_issued": c["reads_issued"],
        "runtime.switches.remote_read": c["switches_remote_read"],
        "runtime.switches.thread_sync": c["switches_thread_sync"],
        "runtime.switches.iter_sync": c["switches_iter_sync"],
        "trace.events": c["trace_events"],
        "trace.digest_s": digest_s,
        "trace.digest_share": digest_s / stats.median(run_to) if run_to else 0.0,
        "trace.overhead": wall / data["reference"]["wall_s"] - 1.0,
        "snapshot.checkpoints": c["checkpoints"],
        "snapshot.capture_s": capture_s,
        "snapshot.write_s": write_s,
        "snapshot.bytes": c["snapshot_bytes"],
        "snapshot.read_s": inclusive("SnapshotFile::read_file"),
        "snapshot.verify_s": inclusive("snapshot::verify"),
        "snapshot.resume_s": inclusive("snapshot::resume"),
        "snapshot.share": (capture_s + write_s) / wall,
    }


def check_trace(data, tally, label):
    """The traced run must reproduce the untraced reference exactly."""
    ref = data["reference"]
    tally.check(ref["exit_code"] == 0 and ref["verified"], "%s: reference run failed" % label)
    for i, it in enumerate(data["iterations"]):
        ok = (it["exit_code"] == 0 and it["verified"] and it["cycles"] == ref["cycles"]
              and it["trace_crc"] == ref["trace_crc"] and it["trace_events"] == ref["trace_events"])
        tally.check(ok, "%s: traced iteration %d differs from the untraced run "
                        "(cycles %s vs %s, digest %s vs %s)" % (
                            label, i, it["cycles"], ref["cycles"], it["trace_crc"], ref["trace_crc"]))


def zeros(prefixes):
    """0 for every per-layer metric under the given prefixes."""
    from .metrics import PER_LAYER
    return {n: 0 for n, _ in PER_LAYER if n.startswith(tuple(prefixes))}
