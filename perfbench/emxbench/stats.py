"""Summary statistics, failure counting and span arithmetic.

Everything here is pure so the self-tests in perfbench/tests can pin it.
"""
import math
import statistics

# Candidate tail percentiles, highest first. A tail is reported only
# when at least MIN_BEYOND samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank (an actual sample)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, pct):
    """How many of n samples lie above the nearest-rank pct-th percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values):
    """(pct, value) for the highest candidate percentile with at least
    MIN_BEYOND samples beyond it, or None when there are too few."""
    for pct in TAIL_CANDIDATES:
        if beyond(len(values), pct) >= MIN_BEYOND:
            return pct, nearest_rank(values, pct)
    return None


def p90(values):
    """Interpolated 90th percentile (statistics.quantiles, inclusive),
    defined for any non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def describe(values, unit):
    """'median 1.23 s, p95 1.40 s (n=240)' — the sample count is always
    stated, and the tail only when the MIN_BEYOND rule allows one."""
    text = "median %.6g %s" % (median(values), unit)
    t = tail(values)
    if t is not None:
        text += ", p%g %.6g %s" % (t[0], t[1], unit)
    else:
        text += ", no tail (fewer than %d samples beyond p50)" % MIN_BEYOND
    return text + " (n=%d)" % len(values)


class Tally:
    """Failures counted against attempts. A failure is anything that
    makes an operation's output unusable: non-zero exit, failed
    verification, failed cell or job, or a correctness mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        """Counts one attempted operation; records `what` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def mismatch(self, what):
        """A correctness mismatch found after the fact, against an
        operation already counted: it fails, but is not a new attempt."""
        self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children (overlapping children are
    merged, and coverage is clipped to the parent's interval)."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda k: spans[k]["start"]):
            a = max(spans[c]["start"], s["start"])
            b = min(spans[c]["end"], s["end"])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s["end"] - s["start"]) - covered)
    return out


def per_iteration(spans, name, self_time=True, under=None):
    """Per-iteration totals of the spans called `name` (self time by
    default, inclusive time otherwise), in iteration order. With
    `under`, only spans whose parent is called `under` count."""
    selfs = self_times(spans) if self_time else None
    totals = {}
    for i, s in enumerate(spans):
        if s["name"] == name and (
                under is None or (s["parent"] >= 0 and spans[s["parent"]]["name"] == under)):
            t = selfs[i] if self_time else s["end"] - s["start"]
            totals[s["iter"]] = totals.get(s["iter"], 0.0) + t
    return [totals[k] for k in sorted(totals)]
