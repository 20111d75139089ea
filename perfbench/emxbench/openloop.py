"""The open-loop clock: requests are due on a fixed schedule whatever
the system does, each is timed from when it was due, and the
generator's own lateness is reported."""


def schedule(start, interval, count):
    """Due times of `count` requests, `interval` apart, from `start`."""
    return [start + i * interval for i in range(count)]


def latency_from_due(due, end):
    """A request's latency counts from when it was due, so a stalled
    send is charged to the request, not hidden."""
    return end - due


def lags(due_times, sent_times):
    """How late the generator sent each request (never negative: an
    early send is a harness bug, reported as zero lag)."""
    return [max(0.0, s - d) for d, s in zip(due_times, sent_times)]


def lag_report(lag_values):
    """(median, max) lag; (0, 0) for an empty batch."""
    if not lag_values:
        return 0.0, 0.0
    ordered = sorted(lag_values)
    mid = len(ordered) // 2
    med = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return med, ordered[-1]
