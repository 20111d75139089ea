"""serve-preempt: an emx_serve daemon under an open-loop tenant.

Tenant A submits low-priority sort cells at t=0, more than the worker
slots hold. Tenant B then submits short high-priority cells on a fixed
schedule, each on its own connection, and watches it to its `end`
record; each B job is timed from when it was due. A B job that finds
every slot busy preempts an A job through the SIGUSR1
checkpoint-and-kill handshake, and the victim later resumes from its
checkpoint.
"""
import json
import os
import select
import shutil
import socket
import subprocess
import time

from . import layers, openloop, single, stats
from .procwatch import Watched

SLOTS = 2  # worker slots
MAX_CONNS = 2  # open client connections; SLOTS + MAX_CONNS = nproc (4)
A_JOBS = 8
A_RECIPE = {"app": "sort", "procs": 16, "threads": 8, "size_per_proc": 2048}
A_PRIORITY = 0
B_JOBS = 10
B_RECIPE = {"app": "sort", "procs": 16, "threads": 4, "size_per_proc": 256}
B_PRIORITY = 9
FIRST_DUE_S = 0.3  # after tenant A's submits
INTERVAL_S = 0.4
B_SEED_OFFSET = 100
LAUNCH_REPS = 21  # daemon launches timed for the launch note
SETUP_REPS = 5  # in-process builds of each recipe, for setup_s
RESUME_AT = 400000  # the traced replica's preemption cycle
CHECKPOINT_EVERY = 100000  # emx_serve's default period
POLL_S = 0.002
IO_TIMEOUT_S = 60


class Conn:
    """One newline-delimited JSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(IO_TIMEOUT_S)
        self.sock.connect(path)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def lines(self):
        """Complete lines received so far (one recv); None once closed."""
        data = self.sock.recv(65536)
        if not data:
            return None
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return [json.loads(x) for x in done if x]

    def request(self, obj):
        self.send(obj)
        while b"\n" not in self.buf:
            data = self.sock.recv(65536)
            if not data:
                raise RuntimeError("daemon closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def recipes(workload_seed):
    """(name, tenant, priority, run object) of every job of a batch."""
    out = []
    for j in range(A_JOBS):
        out.append(("a%d" % j, "a", A_PRIORITY, dict(A_RECIPE, seed=workload_seed + j)))
    for k in range(B_JOBS):
        out.append(("b%d" % k, "b", B_PRIORITY,
                    dict(B_RECIPE, seed=workload_seed + B_SEED_OFFSET + k)))
    return out


def reference_results(ctx):
    """emx_run --result-json bytes of every recipe, run directly."""
    ref_dir = ctx.rundir / "reference"
    ref_dir.mkdir(exist_ok=True)
    procs = []
    out = {}
    for name, _, _, run in recipes(ctx.workload_seed):
        path = ref_dir / (name + ".json")
        cmd = [ctx.exes["emx_run"], "--app=%s" % run["app"], "--procs=%d" % run["procs"],
               "--threads=%d" % run["threads"], "--size-per-proc=%d" % run["size_per_proc"],
               "--seed=%d" % run["seed"], "--result-json=%s" % path]
        procs.append((name, path, subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                                   stderr=subprocess.DEVNULL)))
        if len(procs) >= SLOTS:
            _collect(procs.pop(0), out)
    for p in procs:
        _collect(p, out)
    return out


def _collect(entry, out):
    name, path, proc = entry
    proc.wait(timeout=120)
    out[name] = path.read_bytes() if proc.returncode == 0 and path.is_file() else None


def _journal_done(out):
    done = {}
    try:
        text = (out / "journal.jsonl").read_text()
    except OSError:
        return done, 0
    lines = text.splitlines()
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if rec.get("event") == "done":
            done[rec.get("key")] = rec
    return done, len(lines)


def _daemon_cmd(ctx, out, sock_path):
    return [ctx.exes["emx_serve"], "--socket=%s" % sock_path, "--out=%s" % out,
            "--emx-run=%s" % ctx.exes["emx_run"], "--jobs=%d" % SLOTS,
            "--checkpoint-every=%d" % CHECKPOINT_EVERY, "--quiet=true"]


def _batch(ctx, i):
    out = ctx.rundir / ("serve-%d" % i)
    out.mkdir()
    sock_path = os.path.relpath(out / "d.sock", ctx.root)
    w = Watched(_daemon_cmd(ctx, out, sock_path), ctx.root, ctx.rundir / ("serve-%d.log" % i))
    try:
        return _drive(ctx, w, out, sock_path)
    finally:
        w.kill()
        shutil.rmtree(out, ignore_errors=True)


def _wait_listening(w, sock_path):
    """Blocks until the daemon's socket accepts."""
    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(sock_path)
            break
        except OSError:
            if w.poll() or time.monotonic() - w.started > 30:
                raise RuntimeError("emx_serve did not start listening (exit %s)" % w.status)
            time.sleep(0.001)
        finally:
            probe.close()


def recipes_setup_s(ctx):
    """Set-up every A and B job pays in its worker before simulating:
    each recipe's time to its first simulated cycle (median of
    SETUP_REPS in-process builds), A plus B."""
    return sum(stats.median(single.setup_times(ctx, r, SETUP_REPS)) for r in (A_RECIPE, B_RECIPE))


def _launch_rep(ctx, i):
    """One daemon launch until its socket accepts, then an empty drain.
    The daemon announces "listening on" right after listen(), so the
    time is read off its stderr as the line arrives, with no polling."""
    out = ctx.rundir / ("launch-%d" % i)
    out.mkdir()
    sock_path = os.path.relpath(out / "d.sock", ctx.root)
    cmd = _daemon_cmd(ctx, out, sock_path)
    cmd.remove("--quiet=true")
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, cwd=ctx.root, stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        while True:
            ready, _, _ = select.select([p.stderr], [], [], 30)
            line = p.stderr.readline() if ready else b""
            if not line:
                raise RuntimeError("emx_serve did not start listening")
            if b"listening on" in line:
                launch_s = time.monotonic() - t0
                break
        c = Conn(sock_path)
        c.request({"op": "drain"})
        c.close()
        p.stderr.read()
        p.wait(timeout=30)
        return launch_s
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stderr.close()
        shutil.rmtree(out, ignore_errors=True)


def _drive(ctx, w, out, sock_path):
    _wait_listening(w, sock_path)
    t_start = time.monotonic()

    jobs = {}  # name -> facts
    todo = recipes(ctx.workload_seed)
    a_jobs, b_jobs = todo[:A_JOBS], todo[A_JOBS:]
    c = Conn(sock_path)
    for name, tenant, prio, run in a_jobs:
        sent = time.monotonic()
        resp = c.request({"op": "submit", "tenant": tenant, "priority": prio, "run": run})
        jobs[name] = {"id": resp.get("id"), "key": resp.get("key"), "rtt": time.monotonic() - sent}
    c.close()

    due = openloop.schedule(t_start + FIRST_DUE_S, INTERVAL_S, B_JOBS)
    pending = list(range(B_JOBS))
    watching = {}  # socket -> (name, Conn)
    while pending or watching:
        now = time.monotonic()
        if now - t_start > 120:
            raise RuntimeError("serve batch did not finish within 120 s")
        if pending and due[pending[0]] <= now and len(watching) < MAX_CONNS:
            k = pending.pop(0)
            name, tenant, prio, run = b_jobs[k]
            conn = Conn(sock_path)
            sent = time.monotonic()
            resp = conn.request({"op": "submit", "tenant": tenant, "priority": prio, "run": run})
            ack = time.monotonic()
            jobs[name] = {"id": resp.get("id"), "key": resp.get("key"), "due": due[k],
                          "sent": sent, "ack": ack, "rtt": ack - sent, "first_progress": None}
            conn.send({"op": "watch", "id": resp.get("id")})
            watching[conn.sock] = (name, conn)
            continue
        timeout = 0.05
        if pending and len(watching) < MAX_CONNS:
            timeout = max(0.0, min(timeout, due[pending[0]] - now))
        ready, _, _ = select.select(list(watching), [], [], timeout)
        for s in ready:
            name, conn = watching[s]
            events = conn.lines()
            t = time.monotonic()
            for ev in events or []:
                if ev.get("event") == "progress" and jobs[name]["first_progress"] is None:
                    jobs[name]["first_progress"] = t
                elif ev.get("event") == "end":
                    jobs[name]["end"] = t
                    jobs[name]["job"] = ev.get("job", {})
            if events is None or "end" in jobs[name]:
                conn.close()
                del watching[s]
        if w.poll():
            raise RuntimeError("emx_serve exited early (status %s)" % w.status)

    c = Conn(sock_path)
    c.request({"op": "drain"})
    c.close()
    if not w.wait(POLL_S, 120):
        raise RuntimeError("emx_serve did not drain within 120 s")
    done, journal_records = _journal_done(out)
    results = {}
    for name, facts in jobs.items():
        path = out / "cache" / ("%s.json" % facts["key"])
        results[name] = path.read_bytes() if path.is_file() else None
    return {
        "status": w.status, "wall": w.ended - t_start, "jobs": jobs,
        "done": done, "results": results, "journal_records": journal_records,
        "rss": w.peak_rss_mb, "total_cpu": w.total_cpu_s, "own_cpu": w.own_cpu_s,
        "lifetimes": w.worker_lifetimes(),
    }


def _check(ctx, batches, tally):
    """Every job done and verified, and its result byte-identical to a
    direct emx_run --result-json of the same recipe."""
    refs = reference_results(ctx)
    cycles = []
    for i, b in enumerate(batches):
        tally.check(b["status"] == 0, "serve-preempt: batch %d daemon exit %s" % (i, b["status"]))
        total = 0
        for name, facts in sorted(b["jobs"].items()):
            rec = b["done"].get(facts["key"], {})
            ok = rec.get("event") == "done" and b["results"][name] is not None
            if name.startswith("b"):
                ok = ok and facts.get("job", {}).get("state") == "done"
            tally.check(ok, "serve-preempt: batch %d job %s (%s) did not finish" % (i, name, facts["key"]))
            got = b["results"][name]
            if got is None or got != refs.get(name):
                tally.mismatch("serve-preempt: batch %d job %s result differs from emx_run --result-json"
                               % (i, name))
                continue
            res = json.loads(got)
            if res.get("exit_code") != 0 or res.get("verified") is not True:
                tally.mismatch("serve-preempt: batch %d job %s not verified" % (i, name))
            total += res.get("cycles", 0)
        cycles.append(total)
    return cycles


def _run(ctx, tally):
    launches = [_launch_rep(ctx, i) for i in range(LAUNCH_REPS)]
    batches = []
    t0 = time.monotonic()
    while not batches or time.monotonic() - t0 < ctx.seconds:
        batches.append(_batch(ctx, len(batches)))
    return batches, launches, _check(ctx, batches, tally)


def _b_jobs(batches):
    """Tenant B's job facts, over every batch."""
    return [f for b in batches for n, f in b["jobs"].items() if n.startswith("b")]


def _b_latencies(batches):
    return [openloop.latency_from_due(f["due"], f["end"]) for f in _b_jobs(batches) if "end" in f]


def measure(ctx, tally):
    batches, launches, cycles = _run(ctx, tally)
    walls = [b["wall"] for b in batches]
    lat = _b_latencies(batches)
    wall = stats.median(walls)
    ctx.note("wall_s", stats.describe(walls, "s"))
    ctx.note("B job latency", stats.describe(lat, "s"))
    ctx.note("B job latency p90", "%.6g s (n=%d; reported by --trace 1, not gated)" % (
        stats.p90(lat), len(lat)))
    ctx.note("daemon launch until its socket accepts", stats.describe(launches, "s"))
    bs = _b_jobs(batches)
    lags = openloop.lags([f["due"] for f in bs], [f["sent"] for f in bs])
    ctx.note("generator lag", "median %.6g s, max %.6g s (n=%d)" % (*openloop.lag_report(lags), len(lags)))
    return {
        "wall_s": wall,
        "setup_s": recipes_setup_s(ctx),
        "peak_rss_mb": max(b["rss"] for b in batches),
        "sim_cycles_per_s": stats.median([c / b["wall"] for c, b in zip(cycles, batches)]),
        "sim_cycles": stats.median(cycles),
        "cells_per_min": stats.median([60.0 * (A_JOBS + B_JOBS) / w for w in walls]),
        "jobs_per_min": stats.median([60.0 * B_JOBS / w for w in walls]),
        "job_latency_s_p50": stats.median(lat),
    }


def trace_metrics(ctx, tally):
    batches, _, _ = _run(ctx, tally)
    data = single.measure_traced(ctx, A_RECIPE, tally,
                                 ["--checkpoint-every=%d" % CHECKPOINT_EVERY,
                                  "--resume-at=%d" % RESUME_AT], seconds=0)
    values = layers.from_trace(data)
    bs = _b_jobs(batches)
    lags = openloop.lags([f["due"] for f in bs], [f["sent"] for f in bs])
    waits = [f["first_progress"] - f["ack"] for f in bs if f["first_progress"] is not None]

    def per_batch(field):
        return stats.median([sum(int(r.get(field, 0)) for r in b["done"].values()) for b in batches])

    values.update(layers.zeros(("jobs.",)))
    values.update({
        "jobs.expand_s": single.expand(ctx, [B_RECIPE["app"]], [B_RECIPE["procs"]],
                                       [B_RECIPE["threads"]],
                                       [ctx.workload_seed + B_SEED_OFFSET + k for k in range(B_JOBS)]),
        "jobs.pool_utilization": stats.median(
            [sum(b["lifetimes"]) / (SLOTS * b["wall"]) for b in batches]),
        "jobs.journal_records": stats.median([b["journal_records"] for b in batches]),
        "jobs.attempts_per_cell": per_batch("attempts") / (A_JOBS + B_JOBS),
        "serve.submit_rtt_s": stats.median([f["rtt"] for b in batches for f in b["jobs"].values()]),
        "serve.queue_wait_s": stats.median(waits) if waits else 0.0,
        "serve.preemptions": per_batch("preempts"),
        "serve.resumes": per_batch("resumes"),
        "serve.daemon_cpu_s": stats.median([b["own_cpu"] for b in batches]),
        "serve.worker_cpu_s": stats.median([b["total_cpu"] - b["own_cpu"] for b in batches]),
        "serve.generator_lag_s": openloop.lag_report(lags)[1],
        # Not gated: see README, "End-to-end metrics".
        "serve.job_latency_s_p90": stats.p90(_b_latencies(batches)),
    })
    return values
