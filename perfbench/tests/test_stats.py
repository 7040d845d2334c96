"""The benchmark's own arithmetic: tail rule, self time, reconciliation."""

import pytest

from perfbench.stats import (
    Outcomes,
    Span,
    beyond,
    covered,
    due_latencies,
    percentile,
    reconcile,
    schedule,
    self_time_by_name,
    self_times,
    tail,
    tail_percentile,
    typical_pass,
    unreconciled,
    window_tail,
)


# ----------------------------------------------------------------------
# Tail-percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 5, 19, 20, 39, 40, 99, 100, 199, 200, 999, 1000, 5000])
def test_reported_tail_has_ten_samples_beyond(n):
    q = tail_percentile(n)
    values = list(range(n))
    value = percentile(values, q)
    if q > 50.0:
        assert sum(v > value for v in values) >= 10
    # The next percentile up the ladder would not have had ten.
    higher = [p for p in (99.0, 95.0, 90.0, 75.0) if p > q]
    if higher:
        assert beyond(n, min(higher)) < 10


@pytest.mark.parametrize("n, q", [(1000, 99.0), (999, 95.0), (200, 95.0),
                                  (199, 90.0), (100, 90.0), (99, 75.0),
                                  (40, 75.0), (39, 50.0), (3, 50.0)])
def test_tail_ladder(n, q):
    assert tail_percentile(n) == q


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_tail_of_1000_is_p99():
    values = [float(i) for i in range(1, 1001)]
    assert tail(values) == (99.0, 990.0)


def test_window_tail_ignores_a_burst_in_one_window():
    steady = [1.0] * 135 + [2.0] * 15  # p90 of each window is 1.0
    burst = [50.0] * 150
    values = steady + burst + steady + steady
    assert window_tail(values, window=150, q=90.0) == (90.0, 1.0)
    # The pooled p90 lands inside the burst.
    assert percentile(values, 90) == 50.0


def test_window_tail_falls_back_to_the_capped_rule():
    values = [float(i) for i in range(1, 200)]  # one whole window only
    assert window_tail(values, window=150, q=90.0) == tail(values, cap=90.0)
    assert tail(values, cap=90.0)[0] == 90.0
    assert window_tail(values[:30], window=150, q=90.0)[0] == 50.0


def test_window_must_support_its_percentile():
    with pytest.raises(ValueError):
        window_tail([1.0] * 1000, window=50, q=90.0)


def test_typical_pass_ignores_a_slow_spell_in_each_pass():
    # Each pass has one part slowed 3x, a different part each time.
    parts = [{"a": 3.0, "b": 1.0, "c": 1.0},
             {"a": 1.0, "b": 3.0, "c": 1.0},
             {"a": 1.0, "b": 1.0, "c": 3.0}]
    passes = [sum(p.values()) + 0.5 for p in parts]  # 0.5 s outside parts
    assert typical_pass(passes, parts) == pytest.approx(3.5)
    # Every pass total carries its slow part.
    assert min(passes) == pytest.approx(5.5)


def test_typical_pass_of_one_pass_is_its_time():
    assert typical_pass([2.5], [{"a": 1.0, "b": 1.0}]) == pytest.approx(2.5)


def test_typical_pass_needs_the_same_parts_in_every_pass():
    with pytest.raises(ValueError):
        typical_pass([1.0, 1.0], [{"a": 0.5}, {"b": 0.5}])
    with pytest.raises(ValueError):
        typical_pass([1.0], [{"a": 0.5}, {"a": 0.5}])
    with pytest.raises(ValueError):
        typical_pass([], [])


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 4.0, 8.0),
        Span(3, 2, "c", 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    # Self times of a properly nested tree add up to the root.
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_counted_once():
    # Children on two threads can overlap; their union is what the
    # parent did not spend itself.
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "x", 2.0, 6.0),
        Span(2, 0, "x", 4.0, 7.0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)
    assert self_time_by_name(spans) == {"root": pytest.approx(5.0),
                                        "x": pytest.approx(7.0)}


def test_child_outside_parent_is_clipped():
    spans = [Span(0, None, "p", 0.0, 2.0), Span(1, 0, "c", 1.0, 5.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_covered_union():
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0
    assert covered([(5, 6)], 0, 1) == 0.0


# ----------------------------------------------------------------------
# Open-loop latency from due time
# ----------------------------------------------------------------------
def test_latency_counts_from_due_time():
    due = schedule(100.0, 3)  # 0, 10 ms, 20 ms
    sent = [0.0, 0.015, 0.020]  # the second went out 5 ms late
    done = [0.004, 0.019, 0.024]
    latency, lag = due_latencies(due, sent, done)
    assert latency == pytest.approx([0.004, 0.009, 0.004])
    assert lag == pytest.approx([0.0, 0.005, 0.0])


def test_schedule_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        schedule(0.0, 3)


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def counters(**kw):
    base = {"requests_total": 10, "answered_requests": 9, "ticks": 4}
    base.update(kw)
    return base


def test_balanced_books_reconcile():
    client = Outcomes(sent=10, ok=9, refused=1, dropped=0)
    gaps = reconcile(client, counters(), ticks_seen=4)
    assert unreconciled(gaps) == 0
    assert unreconciled(reconcile(client, counters(), ticks_seen=None)) == 0


def test_every_gap_is_reported():
    client = Outcomes(sent=10, ok=9, refused=0, dropped=1)
    gaps = reconcile(client, counters(requests_total=9, answered_requests=8),
                     ticks_seen=5)
    assert gaps == {"client": 0, "requests": -1, "answered": -1, "ticks": -1}
    assert unreconciled(gaps) == 3


def test_impossible_tick_count_without_trace():
    client = Outcomes(sent=10, ok=9, refused=1, dropped=0)
    assert reconcile(client, counters(ticks=0), None)["ticks"] == 1
    assert reconcile(client, counters(ticks=10), None)["ticks"] == 1


def test_client_side_outcomes_must_add_up():
    client = Outcomes(sent=10, ok=8, refused=1, dropped=0)
    assert reconcile(client, counters(answered_requests=8), 4)["client"] == 1
    client = Outcomes(sent=10, ok=8, refused=1, dropped=0, other=1)
    assert reconcile(client, counters(answered_requests=8), 4)["client"] == 0
    assert client.failed == 2

