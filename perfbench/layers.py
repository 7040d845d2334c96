"""Reduce recorded spans to the per-layer metrics named in :mod:`spec`.

Time metrics (``*_s``) are self times: a span's duration minus what its
child spans cover, so a kernel's time is charged to ``core`` and not
again to the ``engine`` span around it.  The paper workload reports them per
grid pass (set-up metrics per set-up); serving workloads report them
over the whole measured schedule, which is fixed work.  A layer that a
workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .spec import METHODS, PER_LAYER, PLANS
from .stats import percentile, self_time_by_name, tail
from .trace import Snapshot

#: Span name -> per-layer metric its self time feeds.
SELF_TIME_METRICS = {
    "core.dense_build": "core.dense_build_s",
    "core.prefix_build": "core.prefix_build_s",
    "core.broadcast": "core.broadcast_s",
    "core.pruned": "core.pruned_s",
    "core.plan": "core.plan_s",
    "core.prefix_query": "core.prefix_query_s",
    "queries.truth": "queries.truth_s",
    "queries.metrics": "queries.metrics_s",
    "queries.evaluate": "queries.evaluate_s",
    "experiments.run_methods": "experiments.self_s",
    "engine.answer": "engine.answer_s",
}

SETUP_METRICS = {
    "datagen.population_matrix": "datagen.s",
    "datagen.movement_sample": "datagen.s",
    "trajectories.od_build": "trajectories.od_build_s",
    "queries.workload_gen": "queries.workload_gen_s",
}


def ms_summary(out: Dict[str, float], prefix: str, seconds: Iterable[float]) -> None:
    """``<prefix>.p50`` and ``<prefix>.tail`` in ms, if there are samples."""
    values = [1e3 * v for v in seconds]
    if values:
        out[f"{prefix}.p50"] = percentile(values, 50)
        out[f"{prefix}.tail"] = tail(values)[1]


def reduce(setup: Snapshot, run: Snapshot, n_setups: int, n_units: int) -> Dict[str, float]:
    """Per-layer metrics from a traced set-up phase and run phase.

    ``n_setups`` and ``n_units`` divide the totals (set-ups traced, grid
    passes or 1 for a serving schedule).
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    phases = ((setup, max(1, n_setups), SETUP_METRICS),
              (run, max(1, n_units), SELF_TIME_METRICS))
    for snap, div, names in phases:
        for name, seconds in self_time_by_name(snap.spans).items():
            if name in names:
                out[names[name]] += seconds / div
            elif name.startswith("methods.sanitize."):
                # Serving workloads release their matrix during set-up.
                out["methods.sanitize_s"] += seconds / div
                method = name.rsplit(".", 1)[1]
                if method in METHODS:
                    out[f"methods.sanitize_s.{method}"] += seconds / div
        for method in METHODS:
            out[f"methods.partitions.{method}"] += (
                snap.counts.get(f"methods.partitions.{method}", 0) / div
            )
    plans = {p: run.counts.get(f"engine.plans.{p}", 0) for p in PLANS}
    calls = sum(plans.values())
    for p, n in plans.items():
        out[f"engine.plans.{p}"] = n / n_units
        out[f"engine.plan_share.{p}"] = n / calls if calls else 0.0
    ms_summary(out, "engine.answer_ms",
               [s.duration for s in run.spans if s.name == "engine.answer"])
    return out


#: Spans that only drive other layers: their self time is glue between
#: layers (reported as ``experiments.self_s``), not a layer's own work.
WRAPPERS = frozenset({"experiments.run_methods"})


def unattributed(run: Snapshot, wall_seconds: float) -> float:
    """Share of ``wall_seconds`` that no layer's span accounts for.

    That is ``wall_seconds`` minus the self times of every span but the
    :data:`WRAPPERS`: time outside every span, plus the wrappers' own
    time, which grows when work is added that no layer wrapper sees.
    """
    attributed = sum(seconds for name, seconds in self_time_by_name(run.spans).items()
                     if name not in WRAPPERS)
    return (wall_seconds - attributed) / wall_seconds if wall_seconds > 0 else 0.0

