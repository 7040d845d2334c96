"""Microbenchmark: sharded evaluation skips shards and stays exact.

One claim, measured on the same fixed substrate style as the other
micro benchmarks (scale presets size the figure reproductions, not
these):

* **Skip exactness** — on a batch of corner-confined queries most
  shards' candidate bounds are empty; those shards must skip the gather
  (observable in the answer's ``shard_plans``) and the merged answers
  must still match the one-node broadcast kernel within 1e-9.  A
  batch of random boxes over every shard pins the same 1e-9 bound
  where no shard skips.

Results are written to ``BENCH_sharded.json`` at the repository root;
``tools/bench_gate.py`` holds ``sharded_max_abs_diff`` to its absolute
ceiling across commits.  No speedup is recorded: the sharded plan runs
its shards serially in-process, so its only measurable gain is the
skip itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import PLAN_BROADCAST, PrivateFrequencyMatrix, packed_from_intervals
from repro.engine import Engine, EngineConfig, QueryRequest
from repro.methods._grid import axis_intervals

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"

SHAPE = (512, 512)
GRID_M = 96  # 96 x 96 = 9216 partitions
N_QUERIES = 8_000
N_SHARDS = 4
SKIP_SHARDS = 8
SKIP_QUERIES = 1_000


def _substrate() -> PrivateFrequencyMatrix:
    rng = np.random.default_rng(0)
    intervals = [axis_intervals(s, GRID_M) for s in SHAPE]
    k = GRID_M * GRID_M
    noisy = rng.poisson(40.0, size=k).astype(float) + rng.laplace(
        0, 2.0, size=k
    )
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return PrivateFrequencyMatrix.from_packed(packed, method="bench")


def _sharded(private, n_shards, lows, highs):
    config = EngineConfig(plan="sharded", n_shards=n_shards)
    return Engine(private, config).answer(QueryRequest(lows, highs))


def test_sharded_skip_exactness():
    private = _substrate()
    packed = private.packed
    rng = np.random.default_rng(1)

    # --- Skip claim: corner-confined small queries -------------------
    skip_lows = np.stack(
        [
            rng.integers(0, SHAPE[0] // SKIP_SHARDS, size=SKIP_QUERIES),
            rng.integers(0, SHAPE[1] - 4, size=SKIP_QUERIES),
        ],
        axis=1,
    ).astype(np.int64)
    skip_highs = skip_lows + rng.integers(0, 4, size=skip_lows.shape)
    skip_highs = np.minimum(
        skip_highs, np.array([SHAPE[0] // SKIP_SHARDS - 1, SHAPE[1] - 1])
    )
    skip_result = _sharded(private, SKIP_SHARDS, skip_lows, skip_highs)
    skip_broadcast = packed.answer_many_arrays(
        skip_lows, skip_highs, plan=PLAN_BROADCAST
    )
    skip_rate = skip_result.skip_rate
    skip_diff = float(np.abs(skip_result.answers - skip_broadcast).max())

    # --- Exactness where no shard skips: random boxes ----------------
    a = rng.integers(0, SHAPE[0], size=(N_QUERIES, 2))
    b = rng.integers(0, SHAPE[0], size=(N_QUERIES, 2))
    lows = np.minimum(a, b).astype(np.int64)
    highs = np.maximum(a, b).astype(np.int64)
    merged = _sharded(private, N_SHARDS, lows, highs)
    broadcast = packed.answer_many_arrays(lows, highs, plan=PLAN_BROADCAST)
    merged_diff = float(np.abs(merged.answers - broadcast).max())
    sharded_max_abs_diff = max(skip_diff, merged_diff)

    payload = {
        "shape": list(SHAPE),
        "n_partitions": packed.n_partitions,
        "n_queries": N_QUERIES,
        "n_shards": N_SHARDS,
        "skip_n_shards": SKIP_SHARDS,
        "skip_n_queries": SKIP_QUERIES,
        "skipped_shards": skip_result.skipped_shards,
        "skip_rate": skip_rate,
        "sharded_max_abs_diff": sharded_max_abs_diff,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=1))
    print(
        f"\nskip rate {skip_rate:.2f} ({skip_result.skipped_shards}/"
        f"{SKIP_SHARDS} shards), max |sharded - broadcast| "
        f"{sharded_max_abs_diff:.3g} ({N_QUERIES} random queries over "
        f"{N_SHARDS} shards)"
    )

    assert skip_result.skipped_shards > 0, "corner queries skipped no shard"
    assert skip_rate >= 0.5, f"expected most shards to skip, got {skip_rate}"
    assert merged.skipped_shards == 0
    assert sharded_max_abs_diff <= 1e-9
