"""The metric catalogue: every end-to-end and per-layer metric, with its
unit. BENCHMARK.json lists the same names (a self-test checks it), and
every run prints all of the set it was asked for."""

# (name, unit). Every workload reports every end-to-end metric; the
# README defines each one per workload.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_s", "cycles/s"),
    ("sim_cycles", "cycles"),
    ("cells_per_min", "1/min"),
    ("jobs_per_min", "1/min"),
    ("job_latency_s_p50", "s"),
)

# Grouped by src/ module. A layer a workload does not exercise reports 0.
PER_LAYER = (
    ("core.build_s", "s"),
    ("core.build_rss_mb", "MiB"),
    ("core.report_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.verify_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("network.packets", "count"),
    ("network.packets_per_s", "1/s"),
    ("network.events_per_packet", "ratio"),
    ("network.mean_latency_cycles", "cycles"),
    ("network.peak_port_backlog", "count"),
    ("proc.dma_reads", "count"),
    ("proc.dma_block_reads", "count"),
    ("proc.dma_writes", "count"),
    ("proc.packets_accepted", "count"),
    ("proc.compute_share", "%"),
    ("proc.overhead_share", "%"),
    ("proc.comm_share", "%"),
    ("proc.switch_share", "%"),
    ("runtime.reads_issued", "count"),
    ("runtime.switches.remote_read", "count"),
    ("runtime.switches.thread_sync", "count"),
    ("runtime.switches.iter_sync", "count"),
    ("trace.events", "count"),
    ("trace.digest_s", "s"),
    ("trace.digest_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("snapshot.checkpoints", "count"),
    ("snapshot.capture_s", "s"),
    ("snapshot.write_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.read_s", "s"),
    ("snapshot.verify_s", "s"),
    ("snapshot.resume_s", "s"),
    ("snapshot.share", "ratio"),
    ("jobs.expand_s", "s"),
    ("jobs.supervisor_cpu_s", "s"),
    ("jobs.worker_cpu_s", "s"),
    ("jobs.pool_utilization", "ratio"),
    ("jobs.attempts_per_cell", "ratio"),
    ("jobs.journal_records", "count"),
    ("jobs.cache_hits", "count"),
    ("serve.submit_rtt_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.preemptions", "count"),
    ("serve.resumes", "count"),
    ("serve.daemon_cpu_s", "s"),
    ("serve.worker_cpu_s", "s"),
    ("serve.generator_lag_s", "s"),
    ("serve.job_latency_s_p90", "s"),
)

def render(values, catalogue):
    """{name: {"value", "unit"}} for every metric of `catalogue`, in its
    order; a metric missing from `values` is a harness bug."""
    missing = [n for n, _ in catalogue if n not in values]
    if missing:
        raise KeyError("metrics not produced: %s" % ", ".join(missing))
    return {n: {"value": values[n], "unit": u} for n, u in catalogue}
