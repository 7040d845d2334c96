"""The synchronous serving facade: one entry point, four plans.

:class:`Engine` binds a :class:`~repro.core.PrivateFrequencyMatrix` to
an :class:`~repro.engine.EngineConfig` and answers
:class:`~repro.engine.QueryRequest` batches through the same four
strategies the kwarg-era ``answer_arrays`` offered — dense prefix sums,
tiled broadcast, index-pruned gather, partition-axis sharding — but
with every tuning decision read from the config instead of from
scattered kwargs and module constants.  It is the *only* query path:
``PrivateFrequencyMatrix.answer_many`` routes through a default-config
engine, and :class:`~repro.engine.AsyncBatchEngine` answers each tick
with exactly one :meth:`Engine.answer` invocation.

Routing (mirrors, and replaces, the old ``answer_arrays`` body):

1. a forced ``config.plan`` wins, with the documented graceful fallback
   for ``pruned`` below the pruning threshold;
2. ``config.n_shards`` selects the sharded layout for partition-backed
   outputs — dense-backed outputs (which have no partition list to
   shard) fall through to their dense route instead of erroring, so one
   config serves a mixed method set;
3. otherwise the cost model picks: dense prefix sums once the broadcast
   kernel's ``q × k × d`` work exceeds the prefix table's build (zero
   once it is cached) plus its ``q × 2^d`` corner gathers, else
   pruned-vs-broadcast by the interval index's candidate bound.

Every answer records the plan that actually ran and, for sharded
execution, the per-shard evidence — so callers aggregate execution
facts instead of re-deriving them.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..core.exceptions import QueryError
from ..core.interval_index import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    plan_with_slices,
)
from ..core.packed import validate_box_arrays
from ..core.private_matrix import (
    DENSE_FILL_PARTITION_COST,
    DENSE_QUERY_CORNER_COST,
)
from ..core.sharding import answer_sharded
from .api import QueryAnswer, QueryRequest
from .config import EngineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.private_matrix import PrivateFrequencyMatrix
    from ..core.sharding import ShardedAnswer


class Engine:
    """Answer query batches for one private matrix under one config.

    Construction is cheap — the engine holds references, no copies —
    and all heavy state (dense reconstruction, prefix table, interval
    index, shards) lives on the matrix's own caches, so any number of
    engines over the same matrix share it.
    """

    __slots__ = ("_private", "_config")

    def __init__(
        self,
        private: "PrivateFrequencyMatrix",
        config: EngineConfig | None = None,
    ):
        self._private = private
        self._config = config if config is not None else EngineConfig()

    @property
    def private(self) -> "PrivateFrequencyMatrix":
        return self._private

    @property
    def config(self) -> EngineConfig:
        return self._config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine({self._private!r}, plan={self._config.plan!r})"

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _dense_wins(self, n_queries: int) -> bool:
        """The cache-aware dense prefix-sum switch.

        Densify when the broadcast kernel's ``q·k·d`` pair-dimension
        work exceeds the dense route's: building the prefix table (free
        once it is cached) plus ``2^d`` corner gathers per query.
        """
        cfg = self._config
        private = self._private
        if private.is_dense_backed:
            return True
        n_cells = int(np.prod(private.shape, dtype=np.int64))
        if n_cells > cfg.dense_switch_max_cells:
            return False
        ndim = len(private.shape)
        k = private.n_partitions
        build = 0.0
        if not private.dense_table_cached:
            build = cfg.dense_switch_factor * (
                n_cells + DENSE_FILL_PARTITION_COST * k
            )
        return n_queries * k * ndim > (
            build + DENSE_QUERY_CORNER_COST * n_queries * 2**ndim
        )

    def plan_queries(self, lows: np.ndarray, highs: np.ndarray) -> str:
        """The strategy :meth:`answer` would run for this batch.

        Pure: answers nothing, but may lazily build the interval index
        used as the cost signal.  Reflects the full routing — forced
        plans (after the ``pruned`` fallback), the sharding config, and
        the cost model.
        """
        private = self._private
        cfg = self._config
        lows, highs = validate_box_arrays(lows, highs, private.shape)
        if cfg.plan == PLAN_DENSE:
            return cfg.plan
        if cfg.plan is not None:
            # Any other forced plan needs a partition list; raising here
            # keeps plan_queries an honest preview of answer().
            if private.is_dense_backed:
                raise QueryError(
                    f"plan {cfg.plan!r} needs a partition list; this "
                    f"private matrix is dense-backed"
                )
            if cfg.plan == PLAN_SHARDED:
                return cfg.plan
            return private.packed.choose_plan(
                lows, highs, force=cfg.plan, cost=cfg.plan_cost()
            )
        if cfg.wants_sharding and not private.is_dense_backed:
            return PLAN_SHARDED
        if self._dense_wins(int(lows.shape[0])):
            return PLAN_DENSE
        return private.packed.choose_plan(lows, highs, cost=cfg.plan_cost())

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest) -> QueryAnswer:
        """Answer one request batch; the public serving entry point."""
        start = time.perf_counter()
        answers, plan, sharded = self._execute(request.lows, request.highs)
        elapsed = time.perf_counter() - start
        return QueryAnswer(
            answers=answers,
            plan=plan,
            workload=request.workload,
            shard_bounds=() if sharded is None else sharded.bounds,
            shard_plans=() if sharded is None else sharded.plans,
            elapsed_seconds=elapsed,
        )

    def answer_arrays(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        """Plain answer vector for ``(q, d)`` bound arrays.

        Convenience for callers that want neither tagging nor evidence
        (tests, benchmarks); :meth:`answer` is the serving surface.
        """
        return self._execute(lows, highs)[0]

    def _execute(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, str, "ShardedAnswer | None"]:
        """Validate, route, run: ``(answers, ran_plan, shard_evidence)``."""
        private = self._private
        cfg = self._config
        plan = cfg.plan
        if plan is None and cfg.wants_sharding and not private.is_dense_backed:
            plan = PLAN_SHARDED
        n_queries = int(np.asarray(lows).shape[0])
        if n_queries == 0 and (
            plan != PLAN_SHARDED or private.is_dense_backed
        ):
            # Nothing to validate or answer; report the forced plan (or
            # the broadcast default the kwarg API always reported).  An
            # empty *partition-backed* sharded batch still runs below,
            # so callers get the per-shard skip evidence; dense-backed
            # has no shards to report on (and the kwarg API returned
            # empty here rather than erroring).
            return np.zeros(0, dtype=np.float64), plan or PLAN_BROADCAST, None
        lows, highs = validate_box_arrays(lows, highs, private.shape)
        if plan is None and self._dense_wins(n_queries):
            plan = PLAN_DENSE
        if plan == PLAN_DENSE:
            return private._prefix_table().query_arrays(lows, highs), plan, None
        if private.is_dense_backed:
            raise QueryError(
                f"plan {plan!r} needs a partition list; this private matrix "
                f"is dense-backed"
            )
        packed = private.packed
        cost = cfg.plan_cost()
        if plan == PLAN_SHARDED:
            # Even an empty batch runs the sharded route, so callers
            # get the per-shard evidence (every shard trivially skips).
            sharded = answer_sharded(
                packed, lows, highs, n_shards=cfg.n_shards, cost=cost
            )
            return sharded.answers, plan, sharded
        if plan == PLAN_BROADCAST:
            return (
                packed.answer_many_arrays(lows, highs, plan=plan),
                plan,
                None,
            )
        # plan is None (cost model decides) or a forced "pruned" (which
        # degrades to broadcast below the threshold); either way, plan
        # and — when pruned — answer off one candidate-slice pass.
        plan, slices = plan_with_slices(
            packed, lows, highs, force=plan, cost=cost
        )
        if plan == PLAN_PRUNED:
            answers = packed.interval_index().answer_pruned(
                lows, highs, slices=slices
            )
        else:
            answers = packed.answer_many_arrays(
                lows, highs, plan=PLAN_BROADCAST
            )
        return answers, plan, None
