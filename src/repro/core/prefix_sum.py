"""N-dimensional prefix sums (summed-area tables) for fast range counting.

Evaluating 1000-query workloads against 10^6-cell matrices by slicing and
summing is too slow; a prefix-sum table answers any inclusive box query in
O(2^d) lookups after an O(n) build.  Used both for ground-truth answers and
for querying densely-reconstructed private matrices.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence, Tuple

import numpy as np

from .exceptions import QueryError
from .frequency_matrix import Box, validate_box


class PrefixSumTable:
    """Summed-area table over an arbitrary-dimensional count array."""

    __slots__ = ("_table", "_flat", "_strides", "_shape")

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            raise QueryError("prefix sums need at least one dimension")
        self._shape: Tuple[int, ...] = arr.shape
        # Pad with a leading zero hyperplane per axis so queries need no
        # boundary special-casing: table[i] = sum of data[:i] (exclusive).
        table = np.zeros(tuple(s + 1 for s in arr.shape), dtype=np.float64)
        table[tuple(slice(1, None) for _ in arr.shape)] = arr
        for axis in range(arr.ndim):
            _running_sum(table, axis)
        self._table = table
        # Queries gather through one flat index per corner; the table
        # is C-contiguous, so its element strides map a d-index to it.
        self._flat = table.reshape(-1)
        self._strides = np.array(table.strides, dtype=np.int64) // table.itemsize

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    def query(self, box: Box) -> float:
        """Sum of the cells in an inclusive box via inclusion-exclusion."""
        box = validate_box(box, self._shape)
        ndim = len(self._shape)
        total = 0.0
        # For every corner choice, pick hi+1 (add) or lo (subtract) per axis;
        # sign is (-1)^(number of lo choices).
        for choice in product((0, 1), repeat=ndim):
            idx = tuple(
                (hi + 1) if pick else lo
                for pick, (lo, hi) in zip(choice, box)
            )
            sign = 1.0 if (ndim - sum(choice)) % 2 == 0 else -1.0
            total += sign * self._table[idx]
        return float(total)

    def query_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Vectorized :meth:`query` over a list of boxes."""
        boxes = [validate_box(b, self._shape) for b in boxes]
        if not boxes:
            return np.zeros(0, dtype=np.float64)
        lows = np.array([[lo for lo, _ in b] for b in boxes], dtype=np.int64)
        highs = np.array([[hi for _, hi in b] for b in boxes], dtype=np.int64)
        return self.query_arrays(lows, highs)

    def query_arrays(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """:meth:`query_many` for pre-validated ``(n, d)`` bound arrays.

        Skips per-box Python validation/conversion entirely, so repeated
        workload evaluations against cached arrays pay only the ``2^d``
        gather passes.  Each pass gathers through one flat offset per
        box; corners are summed in the same order as :meth:`query`.
        """
        # Per-axis flat offsets of the lo and hi+1 planes, one
        # contiguous row per axis, so a corner is d integer row adds.
        strides = self._strides[:, None]
        lows = np.asarray(lows, dtype=np.int64).T
        highs = np.asarray(highs, dtype=np.int64).T
        lo_off = np.multiply(lows, strides, order="C")
        hi_off = np.multiply(highs + 1, strides, order="C")
        ndim = len(self._shape)
        out = np.zeros(lo_off.shape[1], dtype=np.float64)
        flat = np.empty(lo_off.shape[1], dtype=np.int64)
        for choice in product((0, 1), repeat=ndim):
            flat[:] = 0
            for axis, pick in enumerate(choice):
                flat += hi_off[axis] if pick else lo_off[axis]
            sign = 1.0 if (ndim - sum(choice)) % 2 == 0 else -1.0
            out += sign * self._flat[flat]
        return out


#: Smallest hyperplane (in cells) worth one Python-level vector add.
#: Below it the per-step overhead outweighs the strided scan, so small
#: tables (1-D, and 2-D city grids with rows under 4096 cells)
#: keep ``np.cumsum``.
_MIN_HYPERPLANE = 4096


def _running_sum(table: np.ndarray, axis: int) -> None:
    """In-place ``np.cumsum(table, axis=axis)``, bit for bit.

    When the hyperplanes normal to ``axis`` are large, adds each one to
    the running sum of the ones before it: the same additions in the
    same order as ``np.cumsum``, so the result is bit-identical, but
    each step is a whole-hyperplane vector add instead of a strided
    scan along ``axis`` (a whole 11^6 build: ~20 ms against ~80 ms on a
    2-core x86-64 VM).  Slices (not
    ``v[i]``) keep 1-D hyperplanes as arrays, so ``out=`` stays a view.
    """
    if table.size // table.shape[axis] < _MIN_HYPERPLANE:
        np.cumsum(table, axis=axis, out=table)
        return
    v = np.moveaxis(table, axis, 0)
    for i in range(1, v.shape[0]):
        np.add(v[i : i + 1], v[i - 1 : i], out=v[i : i + 1])
