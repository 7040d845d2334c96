"""Pure arithmetic the benchmark reports with: no I/O, no clocks.

Everything here is deterministic and unit-tested in ``tests/``:

* :func:`percentile` / :func:`tail` — the tail-percentile rule: a tail is
  reported only at a percentile that has at least :data:`TAIL_MIN_BEYOND`
  samples strictly above its rank, so a "p99" of 50 samples is never
  printed.
* :func:`typical_pass` — a repeated pass's time as the sum of its parts'
  medians, so a slow spell of the machine in one pass moves no part.
* :func:`self_times` — a span's self time is its duration minus the part
  of its interval that its child spans cover.
* :func:`due_latencies` — open-loop latency, timed from when a request
  was *due*, plus how late the generator dispatched it.
* :func:`reconcile` — client outcome counts against the server's
  ``/statz`` counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Percentiles :func:`tail` may report, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Percentile of the gated tail metrics, and the consecutive samples per
#: window :func:`window_tail` takes it over.
GATED_TAIL = 90.0
TAIL_WINDOW = 150


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int, cap: float = 100.0) -> float:
    """The highest percentile in :data:`TAIL_LADDER`, up to ``cap``, that
    ``n`` samples support, i.e. that leaves :data:`TAIL_MIN_BEYOND`
    samples beyond it.  Fewer samples support only the median."""
    for q in TAIL_LADDER:
        if q <= cap and beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def tail(values: Sequence[float], cap: float = 100.0) -> Tuple[float, float]:
    """``(q, value)``: the highest supported tail percentile and its value."""
    q = tail_percentile(len(values), cap)
    return q, percentile(values, q)


def window_tail(
    values: Sequence[float], window: int = TAIL_WINDOW, q: float = GATED_TAIL
) -> Tuple[float, float]:
    """A tail that a burst of machine noise does not swing.

    The median, over consecutive windows of ``window`` samples (in
    arrival order), of each window's ``q`` percentile.  With fewer than
    two whole windows it is :func:`tail` capped at ``q``.  ``window``
    must itself support ``q``.
    """
    if beyond(window, q) < TAIL_MIN_BEYOND:
        raise ValueError(f"a window of {window} samples does not support p{q:g}")
    n_windows = len(values) // window
    if n_windows < 2:
        return tail(values, cap=q)
    return q, median([
        percentile(values[i * window:(i + 1) * window], q)
        for i in range(n_windows)
    ])


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def typical_pass(
    pass_seconds: Sequence[float], part_seconds: Sequence[Mapping[object, float]]
) -> float:
    """The time of one pass of repeated work, from several passes.

    ``part_seconds[i]`` times the parts of pass ``i`` (the same keys in
    every pass).  The result is the sum, over the parts, of each part's
    median across passes, plus the median of what the parts leave of a
    pass.  A spell of slow machine that hits some parts of one pass
    moves none of these medians, where it moves every pass total.
    """
    if not pass_seconds or len(pass_seconds) != len(part_seconds):
        raise ValueError("need one set of parts per pass, and some passes")
    keys = set(part_seconds[0])
    if any(set(parts) != keys for parts in part_seconds):
        raise ValueError("passes have different parts")
    parts = sum(median([p[k] for p in part_seconds]) for k in keys)
    rest = median([t - sum(p.values()) for t, p in zip(pass_seconds, part_seconds)])
    return parts + rest


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it
    (``None`` for a root)."""

    id: int
    parent: "int | None"
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to its own)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self times summed per span name."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
def schedule(rate: float, n: int, start: float = 0.0) -> List[float]:
    """Due times of ``n`` requests at a fixed ``rate`` per second."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + i / rate for i in range(n)]


def due_latencies(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """``(latency, lag)`` per request of an open-loop run.

    Latency runs from when the request was due, not from when it was
    sent, so a stall also charges the requests queued behind it.  Lag is
    how late the generator dispatched the request.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due/sent/done lengths differ")
    latency = [d - t for t, d in zip(due, done)]
    lag = [max(0.0, s - t) for t, s in zip(due, sent)]
    return latency, lag


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Outcomes:
    """Client-side outcome counts of one run.

    ``sent`` is what the schedule called for; the other four are counted
    from the replies, so a request that left no record breaks the sum.
    """

    sent: int
    ok: int
    refused: int  # 503 / 413 / 504 answers
    dropped: int  # no HTTP answer at all (connection error, timeout)
    other: int = 0  # any other status: a fault, never expected

    @property
    def failed(self) -> int:
        return self.sent - self.ok


def reconcile(
    client: Outcomes, counters: Mapping[str, int], ticks_seen: "int | None"
) -> Dict[str, int]:
    """Compare client outcomes with the server's ``/statz`` counters.

    Returns the gaps, all zero when the books balance:

    * ``client`` -- sent minus (ok + refused + dropped + other) on the
      client itself: requests the schedule called for but never recorded;
    * ``requests`` -- ``requests_total`` minus the queries the client sent;
    * ``answered`` -- ``answered_requests`` minus the client's 200s;
    * ``ticks`` -- ``ticks`` minus the engine calls a trace counted
      (``ticks_seen``); without a trace, 1 when the tick count is
      impossible (none, or more ticks than answered requests).
    """
    ticks = int(counters.get("ticks", 0))
    answered = int(counters.get("answered_requests", 0))
    if ticks_seen is None:
        tick_gap = 0 if 0 < ticks <= answered else 1
    else:
        tick_gap = ticks - ticks_seen
    return {
        "client": client.sent - (client.ok + client.refused + client.dropped
                                 + client.other),
        "requests": int(counters.get("requests_total", 0)) - client.sent,
        "answered": answered - client.ok,
        "ticks": tick_gap,
    }


def unreconciled(gaps: Mapping[str, int]) -> int:
    """Total absolute gap over all reconciliation checks."""
    return sum(abs(int(v)) for v in gaps.values())

