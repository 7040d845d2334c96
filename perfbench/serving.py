"""The serving workloads: ``serve-point`` and ``serve-bulk``.

The served matrix is the ``paper-od`` matrix of :data:`MATRIX_SEED`,
released by ``daf_homogeneity`` at epsilon 0.5; ``--seed`` draws the
request boxes.  The benchmark process builds and
releases it (input preparation, not timed), writes the partitioning to a
scratch file, and boots :mod:`perfbench.server` :data:`BOOTS` times; the
median time from spawn to ``serving on`` is ``setup_s``.  Every server
takes an equal, contiguous share of each phase of the load (a fresh
server's speed varies by up to 30 % from the next one's, so the load is
spread over all of them).  The load comes from this one process over
:data:`CONNECTIONS` keep-alive HTTP connections:

1. warm-up, back to back (fills lazy caches; counted, not timed);
2. ``nominal`` phase, open loop at a fixed rate -> ``p50_ms``, pooled;
3. ``high`` phase, open loop at a higher fixed rate -> ``p50_ms.high``;
4. saturation phase, every connection sending back to back ->
   ``run_s`` (its wall time, summed over the servers) and ``sat_rps``
   (the median over the servers of each one's completion rate).

Open-loop latency runs from when a request was due, so time spent
waiting for a free connection counts.  Checks: every answer within
:data:`EXACT_RTOL` of an in-process dense-plan ``Engine.answer`` on the
same released matrix; client outcomes reconcile with the server's final
``/statz`` counters; the generator kept to its schedule.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import select
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import layers
from .paper import od_matrix
from .stats import (Outcomes, Span, due_latencies, median,
                    percentile, reconcile, schedule, tail, unreconciled,
                    window_tail)
from .trace import Snapshot, Tracer, install_layers

ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for the released matrix and server reports (removed
#: after every run; listed in .gitignore in case a run is killed).
WORK_DIR = ROOT / ".perfbench_work"

#: HTTP connections the load generator opens (the reference box's nproc).
CONNECTIONS = 2

#: Server boots per run; ``setup_s`` is their median, and each takes a
#: share of the load.
BOOTS = 5

#: Seconds of saturation-rate traffic sent as warm-up before timing.
WARMUP_SECONDS = 0.5

#: Shares of ``--seconds`` given to the nominal, high and saturation phases.
PHASE_SHARES = (0.4, 0.3, 0.3)

#: Served answers may differ from the reference by this much, relative
#: (floor 1): under the auto plan a tick's plan depends on its contents.
EXACT_RTOL = 1e-9

#: The run is invalid when the generator's dispatch lag, as a windowed
#: tail (see stats.window_tail), exceeds this.
LAG_LIMIT_MS = 10.0

BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: Statuses the server refuses load with (queue full, too large, timeout).
REFUSED = (413, 503, 504)

RELEASE_METHOD = "daf_homogeneity"
RELEASE_EPSILON = 0.5

#: The served matrix does not follow the run's seed, which draws only the
#: request boxes: the kernel's cost scales with the released partition
#: count k, and k moves by about 15 % from one data seed to the next.
MATRIX_SEED = 0


@dataclass(frozen=True)
class ServeWorkload:
    #: Boxes per request; ``None`` zipf extent means random paper-shaped.
    queries_per_request: int
    zipf_extent: "int | None"
    nominal_rps: float
    high_rps: float
    #: Sizes the saturation phase (requests = this x its share x seconds).
    sat_rps_guess: float
    #: Limit on the windowed p90 the ``high`` rate was chosen against (see
    #: README.md for the rate ladder it was read from).
    limit_ms: float


WORKLOADS: Dict[str, ServeWorkload] = {
    "serve-point": ServeWorkload(4, 1, 100.0, 200.0, 450.0, 12.0),
    "serve-bulk": ServeWorkload(1000, None, 5.0, 8.0, 9.0, 150.0),
}

ZIPF_A = 2.0


@dataclass
class Record:
    tag: str
    due: float
    dispatched: float
    sent: float = 0.0
    done: float = 0.0
    status: "int | None" = None
    answers: "list | None" = None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def release():
    """The served matrix: the ``paper-od`` matrix of :data:`MATRIX_SEED`,
    released by daf_homogeneity."""
    from repro.dp.rng import ensure_rng, spawn
    from repro.experiments.config import get_scale
    from repro.methods.registry import get_sanitizer

    from .paper import workloads

    od = workloads()["paper-od"]
    data_rng, _, release_rng = spawn(ensure_rng(MATRIX_SEED), 3)
    matrix = od_matrix(od.cities[0], get_scale(od.scale), od.n_stops, data_rng)
    return get_sanitizer(RELEASE_METHOD).sanitize(
        matrix, RELEASE_EPSILON, release_rng
    )


def make_boxes(wl: ServeWorkload, shape, n: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` requests' boxes, ``(n, q, d)`` inclusive lows and highs."""
    from repro.datagen.zipf import zipf_points

    shape = np.asarray(shape, dtype=np.int64)
    q, d = wl.queries_per_request, len(shape)
    if wl.zipf_extent is None:
        # random_workload's distribution: per axis, two uniform cells.
        ends = rng.integers(0, shape, size=(n * q, 2, d))
        lows, highs = ends.min(axis=1), ends.max(axis=1)
    else:
        centers = zipf_points(tuple(shape), ZIPF_A, n * q, rng)
        spans = rng.integers(0, wl.zipf_extent + 1, size=centers.shape)
        lows = np.maximum(centers - spans, 0)
        highs = np.minimum(centers + spans, shape - 1)
    return lows.reshape(n, q, d), highs.reshape(n, q, d)


def bodies(phase: str, lows: np.ndarray, highs: np.ndarray) -> List[Tuple[str, bytes]]:
    out = []
    for i in range(lows.shape[0]):
        tag = f"{phase}-{i}"
        out.append((tag, json.dumps({
            "lows": lows[i].tolist(), "highs": highs[i].tolist(), "workload": tag,
        }).encode()))
    return out


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One :mod:`perfbench.server` child; always stopped by :meth:`stop`."""

    def __init__(self, matrix: Path, report: Path, trace: bool):
        self.report = report
        cmd = [sys.executable, "-m", "perfbench.server", "--matrix", str(matrix),
               "--report", str(report)]
        if trace:
            cmd.append("--trace")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not come up: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.boot_seconds = time.perf_counter() - start
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, return the server's report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain in time")
        finally:
            self._close_pipes()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        return json.loads(self.report.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
async def _send(client, body: bytes, rec: Record, clock) -> None:
    rec.sent = clock()
    try:
        status, _, payload = await client.request("POST", "/v1/query", body)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        await client.close()  # reconnects on its next request
        status, payload = None, {}
    rec.done = clock()
    rec.status = status
    if status == 200:
        rec.answers = payload.get("answers")


async def open_loop(clients, reqs, rate: float, clock, sleep=asyncio.sleep) -> List[Record]:
    """Send ``reqs`` on a fixed-rate schedule; a due request waits for a
    free connection, and that wait counts in its latency."""
    idle: asyncio.Queue = asyncio.Queue()
    for c in clients:
        idle.put_nowait(c)

    async def one(body: bytes, rec: Record) -> None:
        client = await idle.get()
        try:
            await _send(client, body, rec, clock)
        finally:
            idle.put_nowait(client)

    records, tasks = [], []
    for due, (tag, body) in zip(schedule(rate, len(reqs), clock() + 0.01), reqs):
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        rec = Record(tag, due, clock())
        records.append(rec)
        tasks.append(asyncio.ensure_future(one(body, rec)))
    await asyncio.gather(*tasks)
    return records


async def closed_loop(clients, reqs, clock) -> Tuple[List[Record], float]:
    """Every connection sends back to back; ``(records, wall seconds)``."""
    queue = list(reversed(reqs))
    records: List[Record] = []

    async def worker(client) -> None:
        while queue:
            tag, body = queue.pop()
            rec = Record(tag, clock(), clock())
            records.append(rec)
            await _send(client, body, rec, clock)

    start = clock()
    await asyncio.gather(*(worker(c) for c in clients))
    return records, clock() - start


async def drive(port: int, phases, clock=time.perf_counter) -> Dict[str, List[Record]]:
    """Run ``phases`` (name, requests, rate or None for closed loop) in order."""
    from repro.engine.client import AsyncServingClient

    clients = [await AsyncServingClient(port=port, timeout=60.0).connect()
               for _ in range(CONNECTIONS)]
    out: Dict[str, List[Record]] = {}
    try:
        for name, reqs, rate in phases:
            if rate is None:
                out[name], out[f"{name}.wall"] = await closed_loop(clients, reqs, clock)
            else:
                out[name] = await open_loop(clients, reqs, rate, clock)
    finally:
        for c in clients:
            await c.close()
    return out


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def outcomes(records: Sequence[Record], sent: int) -> Outcomes:
    """Outcome counts of ``records``, out of ``sent`` scheduled requests."""
    statuses = Counter(r.status for r in records)
    ok = statuses.pop(200, 0)
    dropped = statuses.pop(None, 0)
    refused = sum(statuses.pop(s, 0) for s in REFUSED)
    return Outcomes(sent=sent, ok=ok, refused=refused, dropped=dropped,
                    other=sum(statuses.values()))


def exactness(private, records, boxes) -> float:
    """Largest relative (floor 1) gap between a served answer and the
    in-process dense-plan answer; infinite when an answer is missing."""
    from repro.engine import Engine, EngineConfig, QueryRequest

    ok = [r for r in records if r.status == 200]
    if not ok:
        return 0.0
    if any(not isinstance(r.answers, list) or len(r.answers) != len(boxes[r.tag][0])
           for r in ok):
        return float("inf")
    lows = np.concatenate([boxes[r.tag][0] for r in ok])
    highs = np.concatenate([boxes[r.tag][1] for r in ok])
    served = np.concatenate([np.asarray(r.answers, dtype=np.float64) for r in ok])
    ref = Engine(private, EngineConfig(plan="dense")).answer(
        QueryRequest(lows, highs)).answers
    return float(np.max(np.abs(served - ref) / np.maximum(1.0, np.abs(ref))))


def saturation_rps(results) -> float:
    """Completion rate of one server's back-to-back phase."""
    return len(results["sat"]) / results["sat.wall"]


def split(phases, parts: int):
    """``phases`` cut into ``parts`` schedules, one per server: each gets
    a contiguous share of every phase, at the phase's rate."""
    out = [[] for _ in range(parts)]
    for name, reqs, rate in phases:
        for load, idx in zip(out, np.array_split(np.arange(len(reqs)), parts)):
            load.append((name, [reqs[i] for i in idx], rate))
    return out


def server_snapshot(report: dict) -> Snapshot:
    return Snapshot(
        spans=[Span(*s) for s in report.get("spans", ())],
        counts=Counter(report.get("counts", {})),
        notes={int(k): v for k, v in report.get("notes", {}).items()},
    )


# ----------------------------------------------------------------------
def serve(private, phases, trace: bool):
    """Boot the server and drive ``phases`` through it.

    Untraced: :data:`BOOTS` boots, each takes its :func:`split` share.
    Traced: one untraced boot runs the warm-up and saturation phases as
    the overhead baseline, then one traced boot takes the whole schedule.
    Returns ``(loads, boot_times, untraced_rps)``: ``loads`` holds
    ``(results, report)`` of every server that took a share.
    """
    baseline = [phases[0], phases[3]]
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        work = Path(work)
        packed = private.packed
        matrix = work / "released.npz"
        np.savez(matrix, lo=packed.lo, hi=packed.hi,
                 noisy_counts=packed.noisy_counts, shape=np.asarray(private.shape),
                 epsilon=private.epsilon, method=private.method)
        boot_times, untraced_rps, loads = [], None, []
        plan = [(False, load) for load in split(phases, BOOTS)]
        if trace:
            plan = [(False, baseline), (True, phases)]
        for i, (traced, load) in enumerate(plan):
            server = ServerProcess(matrix, work / f"report-{i}.json", traced)
            try:
                boot_times.append(server.boot_seconds)
                results = asyncio.run(drive(server.port, load))
            finally:
                report = server.stop()
            if trace and not traced:
                untraced_rps = saturation_rps(results)
            else:
                loads.append((results, report))

    return loads, boot_times, untraced_rps


def run(name: str, seed: int, seconds: float, trace: bool, log) -> dict:
    wl = WORKLOADS[name]
    tracer = install_layers(Tracer()) if trace else None
    private = release()
    rng = np.random.default_rng(seed)
    setup_snap = tracer.take() if tracer else Snapshot()
    if tracer is not None:
        tracer.uninstall()

    # Every server gets its own warm-up and at least one request of
    # each phase.
    n_warm = BOOTS * max(4, round(wl.sat_rps_guess * WARMUP_SECONDS))
    n_nom, n_high, n_sat = (
        max(BOOTS, round(rate * share * seconds))
        for rate, share in zip((wl.nominal_rps, wl.high_rps, wl.sat_rps_guess),
                               PHASE_SHARES)
    )
    lows, highs = make_boxes(wl, private.shape, n_warm + n_nom + n_high + n_sat, rng)
    cuts = np.cumsum([0, n_warm, n_nom, n_high, n_sat])
    phases, boxes = [], {}
    for (phase, rate), a, b in zip(
        (("warmup", None), ("nominal", wl.nominal_rps), ("high", wl.high_rps),
         ("sat", None)), cuts[:-1], cuts[1:]
    ):
        reqs = bodies(phase, lows[a:b], highs[a:b])
        boxes.update({tag: (lows[a + i], highs[a + i])
                      for i, (tag, _) in enumerate(reqs)})
        phases.append((phase, reqs, rate))

    WORK_DIR.mkdir(exist_ok=True)
    try:
        loads, boot_times, untraced_rps = serve(private, phases, trace)
    finally:
        with contextlib.suppress(OSError):  # another run may be using it
            WORK_DIR.rmdir()
    log(f"{name}: boots {['%.2f' % t for t in boot_times]} s")

    results = {p: [r for res, _ in loads for r in res[p]]
               for p in ("warmup", "nominal", "high", "sat")}
    reports = [report for _, report in loads]
    records = [r for p in ("warmup", "nominal", "high", "sat") for r in results[p]]
    client = outcomes(records, sum(len(reqs) for _, reqs, _ in phases))
    counters = Counter()
    for report in reports:
        counters.update(report["statz"]["counters"])
    traced_ticks = (sum(1 for s in reports[0]["spans"] if s[2] == "engine.answer")
                    if trace else None)
    gaps = reconcile(client, counters, traced_ticks)
    open_recs = results["nominal"] + results["high"]
    _, lag = due_latencies([r.due for r in open_recs],
                           [r.dispatched for r in open_recs],
                           [r.done for r in open_recs])
    lag_tail_ms = 1e3 * window_tail(lag)[1]
    max_diff = exactness(private, records, boxes)

    failures = []
    if max_diff > EXACT_RTOL:
        failures.append(f"served answers differ from the reference by {max_diff:.3g}")
    if client.other:
        statuses = sorted({r.status for r in records} - {200, None, *REFUSED})
        failures.append(f"{client.other} replies with unexpected statuses {statuses}")
    if unreconciled(gaps):
        failures.append(f"outcomes do not reconcile with /statz: {gaps}")
    if lag_tail_ms > LAG_LIMIT_MS:
        failures.append(f"load generator fell behind: tail lag {lag_tail_ms:.2f} ms")
    log(f"{name}: sent {client.sent}, ok {client.ok}, refused {client.refused}, "
        f"dropped {client.dropped}, other {client.other}; "
        f"max rel diff {max_diff:.3g}; gaps {gaps}; "
        f"lag tail {lag_tail_ms:.3f} ms")

    result = {
        "correct": not failures,
        "attempted": client.sent,
        "failed": client.failed,
        "failures": failures,
    }
    sat_rps = median([saturation_rps(res) for res, _ in loads])
    if trace:
        result["metrics"] = layer_metrics(reports[0], setup_snap, results, gaps,
                                          lag_tail_ms)
        result["metrics"]["trace.overhead_frac"] = untraced_rps / sat_rps - 1.0
        return result

    def latency_ms(phase):
        ok = [r for r in results[phase] if r.status == 200]
        latency, _ = due_latencies([r.due for r in ok], [r.dispatched for r in ok],
                                   [r.done for r in ok])
        return [1e3 * v for v in latency]

    nominal, high = latency_ms("nominal"), latency_ms("high")
    result["metrics"] = {
        "setup_s": median(boot_times),
        "run_s": sum(res["sat.wall"] for res, _ in loads),
        "p50_ms": percentile(nominal, 50),
        "p50_ms.high": percentile(high, 50),
        "sat_rps": sat_rps,
        "peak_rss_mb": max(report["peak_rss_mb"] for report in reports),
        "ok_frac": client.ok / client.sent,
    }
    # Tails are reported, not gated: see README.md.
    result["info"] = {
        phase: {"rps": rate, "samples": len(ms),
                "tail_ms": dict(zip(("percentile", "value"), window_tail(ms))),
                "pooled_tail_ms": dict(zip(("percentile", "value"), tail(ms)))}
        for phase, rate, ms in (("nominal", wl.nominal_rps, nominal),
                                ("high", wl.high_rps, high))
    }
    result["info"]["sat"] = {"requests": len(results["sat"]),
                             "server_rps": [saturation_rps(res) for res, _ in loads]}
    result["info"]["limit_ms"] = wl.limit_ms
    return result


def layer_metrics(report, setup_snap, results, gaps, lag_tail_ms) -> Dict[str, float]:
    """Per-layer metrics of a traced serving run (the server's spans)."""
    snap = server_snapshot(report)
    out = layers.reduce(setup_snap, snap, 1, 1)
    batch = {note["tag"]: (span, note) for span in snap.spans
             if (note := snap.notes.get(span.id)) is not None}
    waits, transport, unmatched, total = [], [], 0.0, 0.0
    for phase in ("warmup", "nominal", "high", "sat"):
        for r in results[phase]:
            if r.status != 200:
                continue
            total += r.done - r.sent
            if r.tag not in batch:
                unmatched += r.done - r.sent
                continue
            span, note = batch[r.tag]
            waits.append(span.duration - note["engine_s"])
            transport.append((r.done - r.sent) - span.duration)
    layers.ms_summary(out, "async_batch.wait_ms", waits)
    layers.ms_summary(out, "transport_ms", transport)
    statz = report["statz"]
    counters = statz["counters"]
    ticks = counters["ticks"]
    out["async_batch.ticks"] = ticks
    out["async_batch.requests_per_tick"] = counters["answered_requests"] / max(1, ticks)
    out["async_batch.queries_per_tick.max"] = statz["tick_queries"]["max"]
    out["server.loop_lag_ms.max"] = statz["loop"]["max_lag_ms"]
    out["server.rejected"] = (counters["rejected_queue_full"]
                              + counters["rejected_oversized"])
    out["server.timeouts"] = counters["timeouts"]
    out["server.unreconciled"] = unreconciled(gaps)
    out["loadgen.lag_ms.tail"] = lag_tail_ms
    out["trace.unattributed_frac"] = unmatched / total if total else 0.0
    return out
