"""Property tests for the engine's dense prefix-sum switch.

The default-config :class:`repro.engine.Engine` routes a batch either to
the tiled geometric kernel or to a dense prefix-sum reconstruction.  The
switch compares costs in broadcast pair-dimension units:
``q * k * d > build + DENSE_QUERY_CORNER_COST * q * 2**d``, where
``build`` is ``DENSE_SWITCH_FACTOR * (cells + DENSE_FILL_PARTITION_COST
* k)`` on a fresh matrix and zero once its prefix table is cached.
The engines must be interchangeable: whichever side of the boundary a
workload lands on — including exactly at it — both paths must agree to
1e-9, so the cost model is a pure performance decision that can never
change an answer.  This pins that invariant for every workload size
straddling the switch, and checks that the planner really switches
there.

The substrate is 5-D, so the rule's ``d``-dependent terms carry weight
(``k * d`` against ``2**5 = 32`` corner gathers per query), as in the
paper's OD matrices.  A 2-D grid would straddle the switch too (a
2 x 2 grid on 16 x 16 flips at about 2070 queries), but its
four-corner term is small next to the build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PLAN_DENSE, PrivateFrequencyMatrix, packed_from_intervals
from repro.core.private_matrix import (
    DENSE_FILL_PARTITION_COST,
    DENSE_QUERY_CORNER_COST,
    DENSE_SWITCH_FACTOR,
)
from repro.engine import Engine, QueryRequest
from repro.methods._grid import axis_intervals
from repro.queries import random_workload

SHAPE = (8, 8, 8, 8, 8)
N_CELLS = 8**5
DELTAS = (-8, -1, 0, 1, 8)


def grid_private(m: int, seed: int = 0) -> PrivateFrequencyMatrix:
    rng = np.random.default_rng(seed)
    intervals = [axis_intervals(s, m) for s in SHAPE]
    k = m ** len(SHAPE)
    noisy = rng.poisson(25.0, size=k).astype(float)
    noisy += rng.laplace(0.0, 1.5, size=k)
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return PrivateFrequencyMatrix.from_packed(packed, method="test", epsilon=1.0)


def boundary_queries(n_partitions: int, delta: int) -> int:
    """Largest n_queries not past the switch on a fresh matrix, + ``delta``.

    ``delta <= 0`` stays on the broadcast side, ``delta >= 1`` is dense.
    """
    d = len(SHAPE)
    build = DENSE_SWITCH_FACTOR * (
        N_CELLS + DENSE_FILL_PARTITION_COST * n_partitions
    )
    per_query = n_partitions * d - DENSE_QUERY_CORNER_COST * 2**d
    assert per_query > 0, "this grid never densifies"
    return max(1, int(build // per_query) + delta)


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("delta", list(DELTAS))
def test_engines_agree_across_the_switch(m, delta):
    """Dense and tiled paths agree to 1e-9 on both sides of the boundary."""
    private = grid_private(m, seed=m)
    n_queries = boundary_queries(private.n_partitions, delta)
    lows, highs = random_workload(SHAPE, n_queries, rng=delta + 100).as_arrays()

    # The auto route runs first, while the prefix table is still cold.
    auto = Engine(private).answer(QueryRequest(lows, highs))
    kernel = private.packed.answer_many_arrays(lows, highs)
    dense = private._prefix_table().query_arrays(lows, highs)

    assert auto.plan == (PLAN_DENSE if delta >= 1 else "broadcast")
    np.testing.assert_allclose(dense, kernel, rtol=0, atol=1e-9)
    # The auto route picked one of the two, so it inherits the agreement.
    np.testing.assert_allclose(auto.answers, kernel, rtol=0, atol=1e-9)


def test_parametrization_straddles_the_boundary():
    """The planner itself puts the deltas above on both sides."""
    sides = set()
    for m in (2, 4, 8):
        private = grid_private(m, seed=m)
        engine = Engine(private)
        for delta in DELTAS:
            n_queries = boundary_queries(private.n_partitions, delta)
            lows, highs = random_workload(
                SHAPE, n_queries, rng=delta + 100
            ).as_arrays()
            dense = engine.plan_queries(lows, highs) == PLAN_DENSE
            assert dense == (delta >= 1), (m, delta, n_queries)
            sides.add(dense)
        # Planning never builds the table, so every ask saw a cold cache.
        assert not private.dense_table_cached
    assert sides == {False, True}


def test_cached_table_routes_small_batches_dense():
    """Once the table is built, its build cost drops out of the switch."""
    private = grid_private(4, seed=3)
    engine = Engine(private)
    lows, highs = random_workload(SHAPE, 8, rng=3).as_arrays()
    cold = engine.answer(QueryRequest(lows, highs))
    assert cold.plan != PLAN_DENSE
    assert not private.dense_table_cached

    big_lows, big_highs = random_workload(
        SHAPE, boundary_queries(private.n_partitions, 1), rng=4
    ).as_arrays()
    assert engine.answer(QueryRequest(big_lows, big_highs)).plan == PLAN_DENSE
    assert private.dense_table_cached

    warm = engine.answer(QueryRequest(lows, highs))
    assert warm.plan == PLAN_DENSE
    np.testing.assert_allclose(warm.answers, cold.answers, rtol=0, atol=1e-9)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_switch_agrees_with_scalar_reference(delta):
    """Either engine matches the scalar reference loop at the boundary."""
    private = grid_private(4, seed=7)
    n_queries = boundary_queries(private.n_partitions, delta)
    workload = random_workload(SHAPE, n_queries, rng=delta + 50)
    lows, highs = workload.as_arrays()
    auto = Engine(private).answer_arrays(lows, highs)
    scalar = np.array([private.answer(q) for q in workload])
    np.testing.assert_allclose(auto, scalar, rtol=0, atol=1e-9)
