"""Single-run workloads: one in-process snapshot::run() per iteration,
back to back (closed loop), in the emx_perfbench driver."""
import json
import subprocess

from . import layers, stats

SETUP_REPS = 5


def _driver(ctx, mode, recipe, seconds=0, extra=()):
    cmd = [ctx.exes["emx_perfbench"], mode, "--app=%s" % recipe["app"],
           "--procs=%d" % recipe["procs"], "--seed=%d" % ctx.workload_seed,
           "--seconds=%g" % seconds, "--dir=%s" % ctx.rundir]
    if recipe.get("threads"):
        cmd.append("--threads=%d" % recipe["threads"])
    if recipe.get("size_per_proc"):
        cmd.append("--size-per-proc=%d" % recipe["size_per_proc"])
    cmd.extend(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), p.returncode, p.stderr[-2000:]))
    return json.loads(p.stdout)


def check_iterations(iterations, tally, label):
    """Every run exits 0 and verifies; every run of one recipe and seed
    gives the same cycle count and trace digest."""
    first = iterations[0]
    for i, it in enumerate(iterations):
        tally.check(it["exit_code"] == 0 and it["verified"],
                    "%s: iteration %d exit %d verified=%s" % (label, i, it["exit_code"], it["verified"]))
        same = all(it[k] == first[k] for k in ("cycles", "trace_crc", "trace_events"))
        if not same:
            tally.mismatch("%s: iteration %d gave cycles=%s digest=%s, iteration 0 gave %s/%s" % (
                label, i, it["cycles"], it["trace_crc"], first["cycles"], first["trace_crc"]))


def measure(ctx, recipe, tally):
    data = _driver(ctx, "run", recipe, ctx.seconds, ["--setup-reps=%d" % SETUP_REPS])
    iters = data["iterations"]
    check_iterations(iters, tally, ctx.workload)
    walls = [it["wall_s"] for it in iters]
    wall = stats.median(walls)
    cycles = iters[0]["cycles"]
    ctx.note("wall_s", stats.describe(walls, "s"))
    ctx.note("setup_s", stats.describe(data["setup_s"], "s"))
    ctx.note("cpu", "median user %.6g s, sys %.6g s per run" % (
        stats.median([it["user_s"] for it in iters]), stats.median([it["sys_s"] for it in iters])))
    ctx.note("digest", "cycles=%d trace_crc=%s trace_events=%d" % (
        cycles, iters[0]["trace_crc"], iters[0]["trace_events"]))
    return {
        "wall_s": wall,
        "setup_s": stats.median(data["setup_s"]),
        "peak_rss_mb": data["peak_rss_mb"],
        "sim_cycles_per_s": cycles / wall,
        "sim_cycles": cycles,
        # One run is both the cell and the job here.
        "cells_per_min": 60.0 / wall,
        "jobs_per_min": 60.0 / wall,
        "job_latency_s_p50": wall,
    }


def measure_traced(ctx, recipe, tally, extra=(), seconds=None):
    data = _driver(ctx, "trace", recipe, ctx.seconds if seconds is None else seconds, extra)
    layers.check_trace(data, tally, ctx.workload)
    ctx.note("traced", "%d traced iteration(s); reference cycles=%d trace_crc=%s reproduced" % (
        len(data["iterations"]), data["reference"]["cycles"], data["reference"]["trace_crc"]))
    return data


def trace_metrics(ctx, recipe, tally):
    values = layers.from_trace(measure_traced(ctx, recipe, tally))
    values.update(layers.zeros(layers.OUTSIDE))
    return values


def expand(ctx, apps, procs, threads, seeds, reps=21):
    """Median time of jobs::SweepSpec::expand() on the given grid."""
    cmd = [ctx.exes["emx_perfbench"], "expand", "--apps=" + ",".join(apps),
           "--procs-list=" + ",".join(map(str, procs)),
           "--threads-list=" + ",".join(map(str, threads)),
           "--seeds=" + ",".join(map(str, seeds)), "--reps=%d" % reps]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), p.returncode, p.stderr[-2000:]))
    return stats.median(json.loads(p.stdout)["expand_s"])


def setup_times(ctx, recipe, reps):
    """Time to the first simulated cycle of `recipe`, `reps` times."""
    return _driver(ctx, "setup", recipe, extra=["--setup-reps=%d" % reps])["setup_s"]
