"""Range-query workload generators (paper Section 6.1).

Two workload families drive the evaluation:

* **random shape and size** — every dimension gets an independent uniform
  random inclusive interval ("1000 queries generated based on random
  shapes and sizes");
* **fixed coverage** — square(-ish) queries whose side spans a fixed
  fraction of each dimension (the paper's 1 % / 5 % / 10 % "query
  coverage" panels), placed uniformly at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.exceptions import ValidationError
from ..core.frequency_matrix import Box
from ..core.packed import boxes_to_arrays, validate_box_arrays
from ..dp.rng import RNGLike, ensure_rng


@dataclass(frozen=True)
class Workload:
    """A named list of box queries against a fixed matrix shape."""

    name: str
    shape: Tuple[int, ...]
    queries: Tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValidationError("a workload needs at least one query")
        for q in self.queries:
            if len(q) != len(self.shape):
                raise ValidationError(
                    f"query {q} does not match shape {self.shape}"
                )

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The queries as validated ``(lows, highs)`` int64 arrays.

        Built and validated once, then cached on the instance: the batch
        query engines (:meth:`repro.engine.Engine.answer_arrays`,
        :meth:`PrefixSumTable.query_arrays`) consume these directly, so a
        workload evaluated across many private matrices pays conversion
        exactly once.
        """
        cached = getattr(self, "_arrays", None)
        if cached is None:
            lows, highs = boxes_to_arrays(self.queries)
            cached = validate_box_arrays(lows, highs, self.shape)
            object.__setattr__(self, "_arrays", cached)
        return cached

    def coverage_fractions(self) -> np.ndarray:
        """Fraction of total cells each query covers."""
        total = float(np.prod(self.shape, dtype=np.int64))
        sizes = [
            float(np.prod([hi - lo + 1 for lo, hi in q], dtype=np.int64))
            for q in self.queries
        ]
        return np.asarray(sizes) / total


def random_workload(
    shape: Sequence[int],
    n_queries: int = 1000,
    rng: RNGLike = None,
    name: str = "random",
) -> Workload:
    """Random shape-and-size queries: per dimension, an independent
    uniform random inclusive interval."""
    shape = tuple(int(s) for s in shape)
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    gen = ensure_rng(rng)
    queries: List[Box] = []
    for _ in range(n_queries):
        box = []
        for s in shape:
            a = int(gen.integers(0, s))
            b = int(gen.integers(0, s))
            box.append((min(a, b), max(a, b)))
        queries.append(tuple(box))
    return Workload(name, shape, tuple(queries))


def fixed_coverage_workload(
    shape: Sequence[int],
    coverage: float,
    n_queries: int = 1000,
    rng: RNGLike = None,
    name: str | None = None,
) -> Workload:
    """Queries whose side spans ``coverage`` of each dimension ("x %
    query coverage" in the paper's figures), uniformly placed.

    Side length per dimension is ``max(1, round(coverage * size))``.
    """
    shape = tuple(int(s) for s in shape)
    if not 0.0 < coverage <= 1.0:
        raise ValidationError(f"coverage must be in (0, 1], got {coverage}")
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    gen = ensure_rng(rng)
    sides = [max(1, int(round(coverage * s))) for s in shape]
    queries: List[Box] = []
    for _ in range(n_queries):
        box = []
        for s, side in zip(shape, sides):
            lo = int(gen.integers(0, s - side + 1))
            box.append((lo, lo + side - 1))
        queries.append(tuple(box))
    if name is None:
        name = f"coverage_{coverage:g}"
    return Workload(name, shape, tuple(queries))


def centered_workload(
    shape: Sequence[int],
    coverage: float,
    centers: np.ndarray,
    name: str | None = None,
) -> Workload:
    """Fixed-coverage queries centred at given cell multi-indices —
    useful for data-aware workloads (e.g. around known hotspots)."""
    shape = tuple(int(s) for s in shape)
    if not 0.0 < coverage <= 1.0:
        raise ValidationError(f"coverage must be in (0, 1], got {coverage}")
    centers = np.asarray(centers, dtype=np.int64)
    if centers.ndim != 2 or centers.shape[1] != len(shape):
        raise ValidationError(
            f"centers must have shape (n, {len(shape)}), got {centers.shape}"
        )
    sides = [max(1, int(round(coverage * s))) for s in shape]
    queries: List[Box] = []
    for row in centers:
        box = []
        for c, s, side in zip(row, shape, sides):
            lo = int(np.clip(c - side // 2, 0, s - side))
            box.append((lo, lo + side - 1))
        queries.append(tuple(box))
    if name is None:
        name = f"centered_{coverage:g}"
    return Workload(name, shape, tuple(queries))


def paper_workloads(
    shape: Sequence[int],
    n_queries: int = 1000,
    rng: RNGLike = None,
) -> List[Workload]:
    """The four workloads of the paper's real-data figures: random plus
    1 % / 5 % / 10 % coverage."""
    gen = ensure_rng(rng)
    out = [random_workload(shape, n_queries, gen)]
    for coverage in (0.01, 0.05, 0.10):
        out.append(fixed_coverage_workload(shape, coverage, n_queries, gen))
    return out
