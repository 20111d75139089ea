#!/usr/bin/env python3
"""The EM-X simulator benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload sort-p64 --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds the simulator tools and the
in-process driver into .bench_build (or $CARGO_TARGET_DIR), runs one
workload for about --seconds, checks every output, and prints
human-readable lines followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Exits 1 when any output was wrong, 2 when nothing could be measured.
"""
import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from emxbench import build, metrics, provenance, serve, single, stats, sweep  # noqa: E402

SORT_P64 = {"app": "sort", "procs": 64, "threads": 8, "size_per_proc": 1024}
HISTSORT_P256 = {"app": "histsort", "procs": 256}  # registry-default sizes

WORKLOADS = {
    "sort-p64": (lambda c, t: single.measure(c, SORT_P64, t),
                 lambda c, t: single.trace_metrics(c, SORT_P64, t)),
    "histsort-p256": (lambda c, t: single.measure(c, HISTSORT_P256, t),
                      lambda c, t: single.trace_metrics(c, HISTSORT_P256, t)),
    "fig-sweep": (sweep.measure, sweep.trace_metrics),
    "serve-preempt": (serve.measure, serve.trace_metrics),
}


class Context:
    def __init__(self, root, exes, workload, seed, seconds):
        self.root = root
        self.exes = exes
        self.workload = workload
        self.seed = seed
        # The program only ever sees inputs derived from the seed.
        self.workload_seed = seed
        self.seconds = seconds
        self.rundir = build.build_dir(root) / "runs" / ("%s-%d" % (workload, os.getpid()))
        self.notes = []

    def note(self, what, text):
        self.notes.append((what, text))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=provenance.DEV_SEED)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    try:
        exes = build.build(root)
    except build.BuildError as e:
        print("emx-bench: %s" % e, file=sys.stderr)
        return 2
    ctx = Context(root, exes, args.workload, args.seed, args.seconds)
    shutil.rmtree(ctx.rundir, ignore_errors=True)
    ctx.rundir.mkdir(parents=True)
    tally = stats.Tally()
    untraced, traced = WORKLOADS[args.workload]
    try:
        values = (traced if args.trace else untraced)(ctx, tally)
        catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
        rendered = metrics.render(values, catalogue)
    except Exception:  # a harness or program failure: nothing to report
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(ctx.rundir, ignore_errors=True)

    prov = provenance.collect(root, args.workload, args.seed, args.trace)
    print("emx-bench %s: workload %s, seed %d (%s), trace %d, %g s" % (
        provenance.BENCH_VERSION, args.workload, args.seed, prov["seed_role"], args.trace,
        args.seconds))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for what, text in ctx.notes:
        print("  [%s] %s" % (what, text))
    for name, m in rendered.items():
        print("  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    print("  %-32s %d/%d = %.6g" % ("fail_ratio", tally.failed, tally.attempted, tally.fail_ratio))
    for f in tally.failures:
        print("  FAILED: %s" % f)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": rendered}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
