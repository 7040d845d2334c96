"""The open-loop generator against a fake clock and fake connections."""

import asyncio
import heapq
import itertools

import pytest

from perfbench.serving import Record, closed_loop, open_loop, outcomes
from perfbench.stats import reconcile


class FakeTime:
    """Discrete-event time: ``sleep`` parks a coroutine until ``run``
    advances the clock to its wake-up."""

    def __init__(self):
        self.now = 0.0
        self._waiters = []
        self._seq = itertools.count()

    def clock(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        fut = asyncio.get_running_loop().create_future()
        heapq.heappush(self._waiters, (self.now + max(0.0, delay), next(self._seq), fut))
        await fut

    async def run(self, coro):
        task = asyncio.ensure_future(coro)
        while not task.done():
            for _ in range(50):  # let every runnable coroutine settle
                await asyncio.sleep(0)
            if self._waiters and not task.done():
                when, _, fut = heapq.heappop(self._waiters)
                self.now = max(self.now, when)
                fut.set_result(None)
        return task.result()


class FakeClient:
    """A connection whose server takes ``service`` seconds per request;
    request numbers in ``fail`` get a 503."""

    def __init__(self, time_, service: float, fail=()):
        self.time = time_
        self.service = service
        self.fail = set(fail)
        self.busy = False
        self.served = []

    async def request(self, method, path, body):
        assert not self.busy, "one request at a time per connection"
        self.busy = True
        await self.time.sleep(self.service)
        self.busy = False
        self.served.append(body)
        if body in self.fail:
            return 503, {}, {"error": "queue full"}
        return 200, {}, {"answers": [float(len(body))]}

    async def close(self):
        pass


def requests(n):
    return [(f"r-{i}", f"body-{i}".encode()) for i in range(n)]


def test_latency_includes_wait_for_a_free_connection():
    t = FakeTime()
    clients = [FakeClient(t, 0.025), FakeClient(t, 0.025)]
    recs = asyncio.run(t.run(open_loop(clients, requests(4), 100.0, t.clock, t.sleep)))
    start = recs[0].due
    assert [r.due - start for r in recs] == pytest.approx([0.0, 0.01, 0.02, 0.03])
    # The generator kept to its schedule ...
    assert [r.dispatched - r.due for r in recs] == pytest.approx([0.0] * 4)
    # ... but requests 2 and 3 waited for a connection (free at 25 and
    # 35 ms), and that wait is part of their latency.
    assert [r.sent - start for r in recs] == pytest.approx([0.0, 0.01, 0.025, 0.035])
    assert [r.done - r.due for r in recs] == pytest.approx([0.025, 0.025, 0.03, 0.03])
    assert all(r.status == 200 for r in recs)


def test_unloaded_latency_is_service_time():
    t = FakeTime()
    clients = [FakeClient(t, 0.002), FakeClient(t, 0.002)]
    recs = asyncio.run(t.run(open_loop(clients, requests(5), 100.0, t.clock, t.sleep)))
    assert [r.done - r.due for r in recs] == pytest.approx([0.002] * 5)


def test_refusals_are_counted_as_failures():
    t = FakeTime()
    clients = [FakeClient(t, 0.001, fail={b"body-1"})]
    recs = asyncio.run(t.run(open_loop(clients, requests(3), 10.0, t.clock, t.sleep)))
    counts = outcomes(recs, 3)
    assert (counts.sent, counts.ok, counts.refused, counts.dropped) == (3, 2, 1, 0)
    assert counts.failed == 1


def test_closed_loop_keeps_every_connection_busy():
    t = FakeTime()
    clients = [FakeClient(t, 0.010), FakeClient(t, 0.010)]
    recs, wall = asyncio.run(t.run(closed_loop(clients, requests(6), t.clock)))
    assert len(recs) == 6 and all(r.status == 200 for r in recs)
    assert wall == pytest.approx(0.030)  # 6 requests, 2 at a time
    assert sorted(len(c.served) for c in clients) == [3, 3]


def test_outcomes_of_a_dropped_request():
    recs = [Record("a", 0.0, 0.0, status=200), Record("b", 0.0, 0.0, status=None)]
    counts = outcomes(recs, 2)
    assert (counts.ok, counts.refused, counts.dropped, counts.other) == (1, 0, 1, 0)


def test_unexpected_statuses_are_neither_ok_nor_refused():
    recs = [Record(t, 0.0, 0.0, status=s)
            for t, s in (("a", 200), ("b", 400), ("c", 500), ("d", 504))]
    counts = outcomes(recs, 4)
    assert (counts.ok, counts.refused, counts.dropped, counts.other) == (1, 1, 0, 2)
    assert counts.failed == 3


def test_a_request_without_a_record_breaks_the_books():
    recs = [Record("a", 0.0, 0.0, status=200)]
    counts = outcomes(recs, 2)
    assert reconcile(counts, {"requests_total": 2, "answered_requests": 1,
                              "ticks": 1}, None)["client"] == 1
