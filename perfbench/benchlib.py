"""Arithmetic shared by perfbench/run.py: percentiles, span self time,
steal share and the seeded request schedule of the serve workload.

Nothing here touches a process or a socket, so every rule the benchmark
reports by is unit-tested in test_benchlib.py.
"""

import bisect
import math
import random

# Percentiles the benchmark may report, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile of `samples` (0 < p <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples):
    """The highest ladder percentile with at least MIN_TAIL_SAMPLES samples
    beyond it, as (p, value); (None, None) when even the median lacks them.
    """
    n = len(samples)
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return p, percentile(samples, p)
    return None, None


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------
# Spans: (id, parent, name, start_s, end_s); parent -1 marks a top-level
# span.


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        out[sid] = (end - start) - _covered(children.get(sid, []), start, end)
    return out


def span_totals(spans):
    """Summed duration and summed self time per span name."""
    selfs = self_times(spans)
    total, own = {}, {}
    for sid, _parent, name, start, end in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + selfs[sid]
    return total, own


def top_level_coverage(spans, wall_s):
    """Time the top-level spans cover, and wall time left outside them."""
    covered = _covered([(s, e) for _i, p, _n, s, e in spans if p == -1],
                       0.0, wall_s)
    return covered, wall_s - covered


# ---------------------------------------------------------------------
# Host counters.


def steal_pct(before, after):
    """Steal share (%) of all CPU ticks between two /proc/stat "cpu" rows
    (lists of ints: user nice system idle iowait irq softirq steal ...)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return 100.0 * delta[7] / total if total > 0 else 0.0


# ---------------------------------------------------------------------
# The serve workload's request schedule.


class ZipfTargets:
    """Zipf(1.0) draws over `targets`: rank r is drawn in proportion to 1/r.
    Which target gets which rank is itself a seeded shuffle."""

    def __init__(self, targets, seed):
        order = list(targets)
        random.Random(seed).shuffle(order)
        self.order = order
        cumulative, acc = [], 0.0
        for rank in range(1, len(order) + 1):
            acc += 1.0 / rank
            cumulative.append(acc)
        self._cumulative = cumulative
        self._rng = random.Random(seed + 1)

    def draw(self):
        u = self._rng.random() * self._cumulative[-1]
        i = bisect.bisect_right(self._cumulative, u)
        return self.order[min(i, len(self.order) - 1)]


def request_sequence(targets, seed, n):
    """The first `n` Zipf draws for `seed`."""
    zipf = ZipfTargets(targets, seed)
    return [zipf.draw() for _ in range(n)]


def poisson_schedule(targets, seed, rate, seconds):
    """Open-loop schedule: [(due_s, target)] with Poisson arrivals at `rate`
    per second over `seconds`, targets drawn Zipf(1.0)."""
    zipf = ZipfTargets(targets, seed)
    rng = random.Random(seed + 2)
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append((t, zipf.draw()))


def backlog_growing(outstanding, slack=8):
    """True when the outstanding-request samples of a step trend upward:
    the mean of the last third exceeds twice the first third plus `slack`.
    """
    if len(outstanding) < 3:
        return False
    third = len(outstanding) // 3
    head = sum(outstanding[:third]) / third
    tail = sum(outstanding[-third:]) / third
    return tail > 2 * head + slack
