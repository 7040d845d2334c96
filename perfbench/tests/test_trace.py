"""Span wrappers: nesting, restore on uninstall, per-layer reduction."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, spec
from perfbench.trace import Tracer, install_layers

ROOT = Path(__file__).resolve().parents[2]


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_nested_calls_get_their_parent():
    t = Tracer(clock=Clock())

    def inner():
        return 7

    def outer():
        return t.call("inner", inner) + 1

    assert t.call("outer", outer) == 8
    spans = {s.name: s for s in t.spans}
    assert spans["outer"].parent is None
    assert spans["inner"].parent == spans["outer"].id
    assert spans["inner"].start > spans["outer"].start
    assert spans["inner"].end < spans["outer"].end


def test_span_is_recorded_when_the_call_raises():
    t = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.call("boom", boom)
    assert [s.name for s in t.spans] == ["boom"]
    assert t._stack() == []


def test_uninstall_restores_every_layer():
    from repro.core.packed import PackedPartitioning
    from repro.engine.engine import Engine
    from repro.methods.base import Sanitizer
    import repro.engine.engine as engine_mod
    import repro.queries.evaluator as evaluator_mod

    before = (Engine.answer, Sanitizer.sanitize, PackedPartitioning.dense_array,
              engine_mod.plan_with_slices, evaluator_mod.accuracy_report)
    t = install_layers(Tracer())
    assert Engine.answer is not before[0]
    assert engine_mod.plan_with_slices is not before[3]
    t.uninstall()
    after = (Engine.answer, Sanitizer.sanitize, PackedPartitioning.dense_array,
             engine_mod.plan_with_slices, evaluator_mod.accuracy_report)
    assert after == before
    assert "dense_array" in vars(PackedPartitioning)


def test_traced_trial_attributes_time_to_layers():
    from repro.datagen.cities import get_city
    from repro.experiments.config import default_method_specs
    import repro.experiments.runner as runner
    from repro.queries.workload import paper_workloads

    matrix = get_city("denver").population_matrix(
        n_points=2000, resolution=16, rng=np.random.default_rng(0))
    wls = paper_workloads(matrix.shape, 20, np.random.default_rng(1))
    t = install_layers(Tracer())
    try:
        rows = runner.run_methods(matrix, default_method_specs(["eug", "ebp"]),
                                  [0.5], wls, rng=3)
    finally:
        t.uninstall()
    snap = t.take()
    names = {s.name for s in snap.spans}
    assert {"experiments.run_methods", "methods.sanitize.eug",
            "methods.sanitize.ebp", "engine.answer", "queries.evaluate",
            "queries.metrics"} <= names
    for method in ("eug", "ebp"):
        (n,) = {r.n_partitions for r in rows if r.method == method}
        assert snap.counts[f"methods.partitions.{method}"] == n
    out = layers.reduce(type(snap)(), snap, 1, 1)
    assert set(out) == {name for name, _, _ in spec.PER_LAYER}
    assert out["methods.sanitize_s"] == pytest.approx(
        out["methods.sanitize_s.eug"] + out["methods.sanitize_s.ebp"])
    assert sum(out[f"engine.plans.{p}"] for p in spec.PLANS) == len(rows) / len(wls)
    # The runner's own time is the whole unattributed remainder.
    (root,) = [s for s in snap.spans if s.parent is None]
    assert layers.unattributed(snap, root.duration) == pytest.approx(
        out["experiments.self_s"] / root.duration)


def test_time_outside_layer_spans_is_unattributed():
    from perfbench.stats import Span
    from perfbench.trace import Snapshot

    snap = Snapshot(spans=[
        Span(0, None, "experiments.run_methods", 0.0, 8.0),
        Span(1, 0, "methods.sanitize.eug", 0.0, 5.0),
        Span(2, 0, "engine.answer", 5.0, 7.0),
    ])
    # 10 s of wall: 2 s outside the root, 1 s in the runner's own time.
    assert layers.unattributed(snap, 10.0) == pytest.approx(0.3)


# ----------------------------------------------------------------------
# The descriptor
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_descriptor_keeps_to_its_limits():
    d = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(d) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert 2 <= len(d["workloads"]) <= 8
    assert 1 <= len(d["end_to_end"]) <= 16
    assert 1 <= len(d["per_layer"]) <= 128
    assert 1 <= d["run_seconds"] <= 60
    names = [w["name"] for w in d["workloads"]]
    names += [m["name"] for m in d["end_to_end"] + d["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in d["workloads"])
    for m in d["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in d["end_to_end"] + d["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in d["end_to_end"])
