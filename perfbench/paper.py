"""The figure-run workload ``paper-od``: Fig. 8 with one intermediate stop.

A run sets the inputs up :data:`SETUPS` times from the seed (datagen,
OD build, query workloads; ``setup_s`` is a typical set-up: each step's
median time summed, as for ``run_s`` below), then runs the
``run_methods`` grid back to back until ``--seconds`` have passed and
at least :data:`MIN_PASSES` passes are done.  One grid cell is one
(dataset, method, epsilon) trial: its sanitize and query phases, as the
runner times them.  ``run_s`` is a typical pass: each cell's median time
over the passes, summed, plus the median time a pass spends outside its
cells (:func:`~perfbench.stats.typical_pass`).  A figure run has no
arrival rate: what a user waits for is a whole grid, so ``p50_ms`` and
``p50_ms.high`` are ``run_s`` in milliseconds, and ``sat_rps`` is cells
per second of a typical pass.

Outputs are checked three ways before any number is reported: every pass
must give the same MRE table; every MRE must match an independent
recomputation (re-sanitize each trial from its keyed RNG, rebuild the
estimate with a difference array, answer with prefix sums); and where a
reference table for the seed is recorded in ``reference/``, the table
must equal it.
"""

from __future__ import annotations

import itertools
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import layers
from .stats import median, typical_pass
from .trace import Snapshot, Tracer, install_layers

#: Largest share of a traced pass that may fall outside every span.
UNATTRIBUTED_TOL = 0.02

#: Relative tolerance of every MRE comparison.
MRE_RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Set-ups per untraced run; ``setup_s`` is a typical one.
SETUPS = 3

#: Fewest grid passes per run, so that every cell has a median of three.
MIN_PASSES = 3


@dataclass(frozen=True)
class PaperWorkload:
    scale: str
    cities: Tuple[str, ...]
    methods: Tuple[str, ...]
    #: Intermediate stops of the OD matrix.
    n_stops: int


def workloads() -> Dict[str, PaperWorkload]:
    from repro.datagen.cities import CITY_NAMES
    from repro.experiments.figures import FIG7_METHODS

    return {
        "paper-od": PaperWorkload("paper", (CITY_NAMES[0],), tuple(FIG7_METHODS), 1),
    }


@dataclass
class Dataset:
    city: str
    matrix: object
    workloads: list
    run_seed: int


def od_matrix(city_name: str, scale, n_stops: int, rng):
    """An OD matrix with ``n_stops`` intermediate stops, as Fig. 8 builds it."""
    from repro.datagen.cities import get_city
    from repro.datagen.movement import MovementSimulator
    from repro.trajectories.od import ODMatrixBuilder

    city = get_city(city_name)
    dataset = MovementSimulator(city).sample(scale.n_trajectories, n_stops, rng)
    builder = ODMatrixBuilder(
        city.grid, frames=None, cell_budget=scale.od_cell_budget
    )
    return builder.build(dataset)


def setup(wl: PaperWorkload, seed: int, steps: "dict | None" = None) -> List[Dataset]:
    """Datasets and query workloads, derived from ``seed`` alone.  The
    seconds of each step go into ``steps``, keyed (city, step)."""
    import repro.queries.workload as workload_mod
    from repro.dp.rng import derive_entropy, ensure_rng, spawn
    from repro.experiments.config import get_scale

    scale = get_scale(wl.scale)
    gen = ensure_rng(seed)
    steps = {} if steps is None else steps
    out = []
    for city in wl.cities:
        data_rng, wl_rng, run_rng = spawn(gen, 3)
        start = time.perf_counter()
        matrix = od_matrix(city, scale, wl.n_stops, data_rng)
        steps[city, "data"] = time.perf_counter() - start
        start = time.perf_counter()
        # Module attribute, so a traced run sees the call.
        queries = workload_mod.paper_workloads(
            matrix.shape, scale.n_queries, wl_rng
        )
        steps[city, "queries"] = time.perf_counter() - start
        out.append(Dataset(city, matrix, queries, derive_entropy(run_rng)))
    return out


def run_pass(wl: PaperWorkload, datasets: Sequence[Dataset]):
    """One figure grid, serial: ``(rows, {cell: seconds})``."""
    import repro.experiments.runner as runner
    from repro.experiments.config import default_method_specs
    from repro.experiments.figures import PAPER_EPSILONS

    specs = default_method_specs(list(wl.methods))
    rows = []
    for ds in datasets:
        rows += runner.run_methods(
            ds.matrix, specs, list(PAPER_EPSILONS), ds.workloads,
            rng=ds.run_seed, n_jobs=1, extra={"city": ds.city},
        )
    cells = {}
    for r in rows:
        cells.setdefault((r.extra["city"], r.method, r.epsilon, r.trial),
                         r.sanitize_seconds + r.query_seconds)
    return rows, cells


def mre_table(rows) -> List[Tuple[str, str, float, str, float]]:
    return [
        (r.extra["city"], r.method, r.epsilon, r.workload, r.mre) for r in rows
    ]


def tables_match(a, b, rtol: float = MRE_RTOL) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x[:4] != tuple(y[:4]):
            return False
        if abs(x[4] - y[4]) > rtol * max(abs(x[4]), abs(y[4]), 1.0):
            return False
    return True


# ----------------------------------------------------------------------
# Independent recomputation
# ----------------------------------------------------------------------
def _corners(d: int):
    return itertools.product((0, 1), repeat=d)


def prefix_table(data: np.ndarray) -> np.ndarray:
    """Zero-padded inclusive prefix sums over every axis."""
    table = np.zeros(tuple(s + 1 for s in data.shape), dtype=np.float64)
    table[(slice(1, None),) * data.ndim] = data
    for axis in range(data.ndim):
        np.cumsum(table, axis=axis, out=table)
    return table


def box_sums(table: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Inclusion-exclusion over the 2^d corners of each box."""
    d = lows.shape[1]
    out = np.zeros(lows.shape[0], dtype=np.float64)
    for corner in _corners(d):
        idx = tuple(
            highs[:, a] + 1 if c else lows[:, a] for a, c in enumerate(corner)
        )
        out += (-1) ** (d - sum(corner)) * table[idx]
    return out


def reconstruct(private) -> np.ndarray:
    """Uniform-within-partition estimate, scattered with a difference
    array (+/- at the 2^d corners of each partition, then cumsums)."""
    if private.is_dense_backed:
        return np.asarray(private.dense_array(), dtype=np.float64)
    packed = private.packed
    lo, hi = packed.lo, packed.hi
    values = packed.noisy_counts / packed.n_cells
    shape = tuple(private.shape)
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=np.float64)
    for corner in _corners(len(shape)):
        idx = tuple(hi[:, a] + 1 if c else lo[:, a] for a, c in enumerate(corner))
        np.add.at(diff, idx, (-1) ** sum(corner) * values)
    for axis in range(len(shape)):
        np.cumsum(diff, axis=axis, out=diff)
    return diff[tuple(slice(0, s) for s in shape)]


def oracle_table(wl: PaperWorkload, datasets: Sequence[Dataset]):
    """The MRE table recomputed without the engine or the evaluator."""
    from repro.dp.rng import derive_entropy, spawn_key_rng
    from repro.experiments.config import default_method_specs
    from repro.experiments.figures import PAPER_EPSILONS
    from repro.experiments.runner import build_trial_tasks
    from repro.methods.registry import get_sanitizer
    from repro.queries.metrics import DEFAULT_FLOOR

    specs = default_method_specs(list(wl.methods))
    table = []
    for ds in datasets:
        truth_table = prefix_table(ds.matrix.data)
        arrays = [w.as_arrays() for w in ds.workloads]
        truths = [box_sums(truth_table, lo, hi) for lo, hi in arrays]
        # run_methods draws its keyed-spawn root from the seed it is given.
        entropy = derive_entropy(ds.run_seed)
        for task in build_trial_tasks(specs, PAPER_EPSILONS, 1, entropy):
            rng = spawn_key_rng(task.entropy, task.spawn_key)
            private = get_sanitizer(task.spec.name).sanitize(
                ds.matrix, task.epsilon, rng
            )
            estimate = prefix_table(reconstruct(private))
            for w, (lo, hi), truth in zip(ds.workloads, arrays, truths):
                est = box_sums(estimate, lo, hi)
                err = np.abs(est - truth) / np.maximum(truth, DEFAULT_FLOOR)
                table.append((ds.city, task.spec.label, task.epsilon, w.name,
                              float(100.0 * err.mean())))
    return table


def reference(name: str, seed: int):
    """The recorded MRE table for ``seed``, or ``None``."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    mre = data["mre"].get(str(seed))
    if mre is None:
        return None
    return [(*key, value) for key, value in zip(data["keys"], mre)]


def record_reference(name: str, seed: int, table) -> None:
    """Store ``table`` as the reference for ``seed``.  The row keys
    (city, method, epsilon, workload) are the same for every seed."""
    path = REFERENCE_DIR / f"{name}.json"
    data = json.loads(path.read_text()) if path.exists() else {"mre": {}}
    keys = [list(row[:4]) for row in table]
    if data.get("keys", keys) != keys:
        raise ValueError(f"{name}: rows differ from the recorded keys")
    data["keys"] = keys
    data["mre"][str(seed)] = [row[4] for row in table]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, log) -> dict:
    """One benchmark run of a paper workload; returns the result object."""
    wl = workloads()[name]
    tracer = install_layers(Tracer()) if trace else None
    setup_times, setup_steps = [], []
    n_setups = 1 if trace else SETUPS
    for _ in range(n_setups):
        steps = {}
        start = time.perf_counter()
        datasets = setup(wl, seed, steps)
        setup_times.append(time.perf_counter() - start)
        setup_steps.append(steps)
    setup_snap = tracer.take() if trace else Snapshot()

    untraced_pass = None
    if trace:
        # One untraced pass first: the traced passes are compared with it.
        tracer.uninstall()
        start = time.perf_counter()
        first_rows, _ = run_pass(wl, datasets)
        untraced_pass = time.perf_counter() - start
        install_layers(tracer)

    pass_times, pass_cells, tables = [], [], []
    begin = time.perf_counter()
    while len(pass_times) < MIN_PASSES or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        rows, cells = run_pass(wl, datasets)
        pass_times.append(time.perf_counter() - start)
        pass_cells.append(cells)
        tables.append(mre_table(rows))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_snap = tracer.take() if trace else Snapshot()
    if tracer is not None:
        tracer.uninstall()
    log(f"{name}: {len(pass_times)} pass(es) of {len(cells)} cells, "
        f"setups {['%.2f' % t for t in setup_times]} s, "
        f"passes {['%.2f' % t for t in pass_times]} s")

    # ---- output checks --------------------------------------------------
    failures = []
    if untraced_pass is not None:
        tables.append(mre_table(first_rows))
    if not all(tables_match(tables[0], t) for t in tables[1:]):
        failures.append("MRE tables differ between passes")
    if not tables_match(tables[0], oracle_table(wl, datasets)):
        failures.append("MRE table differs from the independent recomputation")
    ref = reference(name, seed)
    if ref is not None and not tables_match(tables[0], ref):
        failures.append(f"MRE table differs from reference/{name}.json")
    log(f"{name}: {len(tables[0])} MRE rows; reference "
        f"{'checked' if ref is not None else 'not recorded for this seed'}")

    n_cells = len(cells)
    cell_ms = [1e3 * c for cells in pass_cells for c in cells.values()]
    attempted = n_cells * len(pass_times)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "failures": failures,
    }
    if trace:
        per_layer = layers.reduce(setup_snap, run_snap, n_setups, len(pass_times))
        per_layer["trace.overhead_frac"] = median(pass_times) / untraced_pass - 1.0
        per_layer["trace.unattributed_frac"] = layers.unattributed(
            run_snap, sum(pass_times)
        )
        if abs(per_layer["trace.unattributed_frac"]) > UNATTRIBUTED_TOL:
            result["correct"] = False
            failures.append("layer self times do not add up to the passes")
        result["metrics"] = per_layer
        return result
    # A figure run has no arrival rate and its user waits for the whole
    # grid, so the latency at both rates is the typical pass.
    run_s = typical_pass(pass_times, pass_cells)
    run_ms = 1e3 * run_s
    result["metrics"] = {
        "setup_s": typical_pass(setup_times, setup_steps),
        "run_s": run_s,
        "p50_ms": run_ms,
        "p50_ms.high": run_ms,
        "sat_rps": n_cells / run_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0,
    }
    result["info"] = {"passes": len(pass_times), "cells_per_pass": n_cells,
                      "pass_s": {"p50": median(pass_times)},
                      "setup_s": {"p50": median(setup_times)},
                      "cell_ms": {"p50": median(cell_ms), "max": max(cell_ms)}}
    return result
