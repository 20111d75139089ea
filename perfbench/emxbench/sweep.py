"""fig-sweep: a cold-cache figure grid through emx_sweep, a fresh output
directory per iteration, at the default checkpoint period."""
import json
import re
import shutil
import time

from . import layers, single, stats
from .procwatch import Watched

APPS = ("sort", "fft")
PROCS = (16, 64)
THREADS = (2, 8)
JOBS = 4  # worker slots; no client connections, so within nproc
CHECKPOINT_EVERY = 100000  # emx_sweep's default period
# /proc polling once workers run: coarse, so the harness takes little
# CPU from them.
POLL_S = 0.02
SETUP_REPS = 3  # in-process builds of each grid cell
# The grid's representative cell, replayed in-process by the traced run.
TRACE_CELL = {"app": "sort", "procs": 64, "threads": 8}

SUMMARY = re.compile(r"(\d+) cells — (\d+) ok \((\d+) cached, (\d+) resumed\), (\d+) failed")


def cell_count():
    return len(APPS) * len(PROCS) * len(THREADS)


def _cmd(ctx, out):
    return [ctx.exes["emx_sweep"], "--apps=" + ",".join(APPS),
           "--procs-list=" + ",".join(map(str, PROCS)),
           "--threads-list=" + ",".join(map(str, THREADS)),
           "--seeds=%d" % ctx.workload_seed, "--out=%s" % out, "--jobs=%d" % JOBS,
           "--checkpoint-every=%d" % CHECKPOINT_EVERY,
           "--emx-run=%s" % ctx.exes["emx_run"], "--quiet=true"]


def grid_setup_s(ctx):
    """The grid's set-up: each cell's time to its first simulated cycle
    (median of SETUP_REPS in-process builds), summed over the cells —
    the start-up every worker pays before simulating."""
    return sum(stats.median(single.setup_times(
                   ctx, {"app": a, "procs": p, "threads": h}, SETUP_REPS))
               for a in APPS for p in PROCS for h in THREADS)


def _sweep(ctx, i):
    out = ctx.rundir / ("sweep-%d" % i)
    w = Watched(_cmd(ctx, out), ctx.root, ctx.rundir / ("sweep-%d.log" % i))
    while not w.poll():
        if time.monotonic() - w.started > 150:
            w.kill()
            raise RuntimeError("emx_sweep did not finish within 150 s")
        time.sleep(POLL_S if w.workers else 0.001)
    wall = w.ended - w.started
    # Supervisor launch until its first worker was seen running.
    launch_s = min(first for first, _ in w.workers.values()) - w.started if w.workers else wall
    agg = (out / "aggregate.json").read_bytes() if (out / "aggregate.json").is_file() else b""
    prov = (out / "provenance.json").read_text() if (out / "provenance.json").is_file() else "{}"
    journal = (out / "journal.jsonl").read_text() if (out / "journal.jsonl").is_file() else ""
    shutil.rmtree(out, ignore_errors=True)
    return {
        "status": w.status, "stdout": w.stdout, "wall": wall, "launch": launch_s,
        "rss": w.peak_rss_mb, "total_cpu": w.total_cpu_s, "own_cpu": w.own_cpu_s,
        "lifetimes": w.worker_lifetimes(), "aggregate": agg,
        "provenance": json.loads(prov), "journal_records": len(journal.splitlines()),
    }


def _check(runs, tally):
    """Every cell ok after one attempt, none cached, every result
    verified; every iteration's aggregate.json byte-identical."""
    cycles = []
    for i, r in enumerate(runs):
        m = SUMMARY.search(r["stdout"])
        tally.check(r["status"] == 0 and m is not None,
                    "fig-sweep: iteration %d exit %s" % (i, r["status"]))
        if m is None:
            continue
        cells, ok, cached, _, failed = map(int, m.groups())
        if (cells, ok, cached, failed) != (cell_count(), cell_count(), 0, 0):
            tally.mismatch("fig-sweep: iteration %d summary '%s'" % (i, m.group(0)))
        for cell in r["provenance"].get("cells", []):
            if cell.get("status") != "ok" or cell.get("attempts") != 1:
                tally.mismatch("fig-sweep: iteration %d cell %s %s after %s attempts" % (
                    i, cell.get("key"), cell.get("status"), cell.get("attempts")))
        try:
            agg = json.loads(r["aggregate"])
            results = [c["result"] for c in agg["cells"]]
        except (ValueError, KeyError, TypeError):
            tally.mismatch("fig-sweep: iteration %d aggregate.json unreadable" % i)
            continue
        for res in results:
            if res.get("exit_code") != 0 or res.get("verified") is not True:
                tally.mismatch("fig-sweep: iteration %d cell %s not verified" % (i, res.get("manifest_crc")))
        cycles.append(sum(res.get("cycles", 0) for res in results))
        if r["aggregate"] != runs[0]["aggregate"]:
            tally.mismatch("fig-sweep: iteration %d aggregate.json differs from iteration 0" % i)
    return cycles[0] if cycles else 0


def _run(ctx, tally):
    runs = []
    t0 = time.monotonic()
    while not runs or time.monotonic() - t0 < ctx.seconds:
        runs.append(_sweep(ctx, len(runs)))
    return runs, _check(runs, tally)


def measure(ctx, tally):
    runs, cycles = _run(ctx, tally)
    setup_s = grid_setup_s(ctx)
    walls = [r["wall"] for r in runs]
    cell_lat = [x for r in runs for x in r["lifetimes"]]
    wall = stats.median(walls)
    ctx.note("wall_s", stats.describe(walls, "s"))
    ctx.note("cell latency", stats.describe(cell_lat, "s"))
    ctx.note("supervisor launch to first worker", stats.describe([r["launch"] for r in runs], "s"))
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": max(r["rss"] for r in runs),
        "sim_cycles_per_s": cycles / wall,
        "sim_cycles": cycles,
        "cells_per_min": 60.0 * cell_count() / wall,
        # The job a user waits on is the whole figure grid.
        "jobs_per_min": 60.0 / wall,
        "job_latency_s_p50": wall,
    }


def jobs_metrics(ctx, runs):
    exp = single.expand(ctx, APPS, PROCS, THREADS, [ctx.workload_seed])
    cells = cell_count()
    attempts = [sum(c.get("attempts", 0) for c in r["provenance"].get("cells", [])) / cells
                for r in runs]
    cached = [int(m.group(3)) for m in (SUMMARY.search(r["stdout"]) for r in runs) if m]
    return {
        "jobs.expand_s": exp,
        "jobs.supervisor_cpu_s": stats.median([r["own_cpu"] for r in runs]),
        "jobs.worker_cpu_s": stats.median([r["total_cpu"] - r["own_cpu"] for r in runs]),
        "jobs.pool_utilization": stats.median(
            [sum(r["lifetimes"]) / (JOBS * r["wall"]) for r in runs]),
        "jobs.attempts_per_cell": stats.median(attempts),
        "jobs.journal_records": stats.median([r["journal_records"] for r in runs]),
        "jobs.cache_hits": sum(cached),
    }


def trace_metrics(ctx, tally):
    runs, _ = _run(ctx, tally)
    data = single.measure_traced(ctx, TRACE_CELL, tally,
                                 ["--checkpoint-every=%d" % CHECKPOINT_EVERY], seconds=0)
    values = layers.from_trace(data)
    values.update(jobs_metrics(ctx, runs))
    values.update(layers.zeros(("serve.",)))
    return values
