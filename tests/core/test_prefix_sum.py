"""Tests for repro.core.prefix_sum."""

from itertools import product

import numpy as np
import pytest

from repro.core import PrefixSumTable, QueryError, full_box
from repro.core import prefix_sum


class TestPrefixSum1D:
    def test_single_cell(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((1, 1),)) == 2.0

    def test_full_range(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((0, 2),)) == 6.0

    def test_prefix(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((0, 1),)) == 3.0

    def test_suffix(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((1, 2),)) == 5.0


class TestPrefixSumND:
    @pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5), (2, 3, 2, 3)])
    def test_matches_direct_sum(self, shape, rng):
        data = rng.poisson(2.0, size=shape).astype(float)
        t = PrefixSumTable(data)
        for _ in range(30):
            box = []
            for s in shape:
                a, b = sorted(rng.integers(0, s, size=2))
                box.append((int(a), int(b)))
            box = tuple(box)
            sl = tuple(slice(lo, hi + 1) for lo, hi in box)
            assert t.query(box) == pytest.approx(data[sl].sum())

    def test_full_box_equals_total(self, rng):
        data = rng.random((4, 6, 3))
        t = PrefixSumTable(data)
        assert t.query(full_box(data.shape)) == pytest.approx(data.sum())

    def test_query_many_matches_query(self, rng):
        data = rng.poisson(1.0, size=(8, 8)).astype(float)
        t = PrefixSumTable(data)
        boxes = []
        for _ in range(25):
            a, b = sorted(rng.integers(0, 8, size=2))
            c, d = sorted(rng.integers(0, 8, size=2))
            boxes.append(((int(a), int(b)), (int(c), int(d))))
        many = t.query_many(boxes)
        single = [t.query(b) for b in boxes]
        assert np.allclose(many, single)

    def test_query_many_empty(self):
        t = PrefixSumTable(np.zeros((2, 2)))
        assert t.query_many([]).size == 0

    def test_rejects_scalar(self):
        with pytest.raises(QueryError):
            PrefixSumTable(np.float64(3.0))

    def test_rejects_bad_box(self):
        t = PrefixSumTable(np.zeros((4, 4)))
        with pytest.raises(QueryError):
            t.query(((0, 4), (0, 0)))

    def test_negative_values_supported(self):
        # Private reconstructions contain signed values.
        data = np.array([[-1.0, 2.0], [3.0, -4.0]])
        t = PrefixSumTable(data)
        assert t.query(((0, 1), (0, 1))) == pytest.approx(0.0)
        assert t.query(((1, 1), (1, 1))) == pytest.approx(-4.0)


def cumsum_reference(data):
    """The padded summed-area table built with ``np.cumsum`` per axis."""
    table = np.zeros(tuple(s + 1 for s in data.shape), dtype=np.float64)
    table[tuple(slice(1, None) for _ in data.shape)] = data
    for axis in range(data.ndim):
        np.cumsum(table, axis=axis, out=table)
    return table


def tuple_index_gather(table, lows, highs):
    """``query_arrays`` as a d-tuple fancy index per corner."""
    ndim = lows.shape[1]
    out = np.zeros(lows.shape[0], dtype=np.float64)
    for choice in product((0, 1), repeat=ndim):
        pick = np.array(choice, dtype=bool)
        idx = np.where(pick, highs + 1, lows)
        sign = 1.0 if (ndim - int(pick.sum())) % 2 == 0 else -1.0
        out += sign * table[tuple(idx[:, a] for a in range(ndim))]
    return out


def random_bounds(shape, n, rng):
    a = np.stack([rng.integers(0, s, size=n) for s in shape], axis=1)
    b = np.stack([rng.integers(0, s, size=n) for s in shape], axis=1)
    return np.minimum(a, b), np.maximum(a, b)


#: 1-D to 6-D, with length-1 and length-2 axes in every position (a
#: 1-D hyperplane ``v[i]`` is a scalar, not a view).  The last three
#: have axes on both sides of the hyperplane-size switch.
BIT_IDENTITY_SHAPES = [
    (1,), (2,), (9,),
    (1, 1), (1, 2), (2, 1), (5, 7),
    (1, 3, 2), (2, 1, 4), (3, 4, 5),
    (2, 1, 2, 3), (1, 2, 1, 2, 1),
    (3, 2, 1, 2, 2, 1), (4, 4, 4, 4, 4, 4),
    (1, 4096), (2, 70, 70), (7, 7, 7, 7, 7, 7),
]


class TestBitIdentity:
    @pytest.mark.parametrize("min_hyperplane", [1, None], ids=["loop", "auto"])
    @pytest.mark.parametrize("shape", BIT_IDENTITY_SHAPES)
    def test_build_matches_cumsum_bitwise(
        self, shape, min_hyperplane, rng, monkeypatch
    ):
        # ``1`` forces the hyperplane loop on every axis; ``None`` keeps
        # the shipped switch between it and ``np.cumsum``.
        if min_hyperplane is not None:
            monkeypatch.setattr(prefix_sum, "_MIN_HYPERPLANE", min_hyperplane)
        data = rng.laplace(0.0, 3.0, size=shape) * 10.0 ** rng.integers(
            -3, 4, size=shape
        )
        table = PrefixSumTable(data)._table
        reference = cumsum_reference(data)
        np.testing.assert_array_equal(table, reference)
        # Bitwise, signed zeros included.
        np.testing.assert_array_equal(
            table.view(np.int64), reference.view(np.int64)
        )

    @pytest.mark.parametrize("shape", BIT_IDENTITY_SHAPES)
    def test_flat_gather_matches_tuple_gather_bitwise(self, shape, rng):
        data = rng.laplace(0.0, 3.0, size=shape)
        t = PrefixSumTable(data)
        lows, highs = random_bounds(shape, 50, rng)
        before = (lows.copy(), highs.copy())
        flat = t.query_arrays(lows, highs)
        np.testing.assert_array_equal(
            flat.view(np.int64),
            tuple_index_gather(t._table, lows, highs).view(np.int64),
        )
        # The gather must not write through to the caller's bounds.
        np.testing.assert_array_equal(lows, before[0])
        np.testing.assert_array_equal(highs, before[1])

    def test_query_arrays_accepts_empty_batch(self):
        t = PrefixSumTable(np.ones((3, 3, 3)))
        empty = np.zeros((0, 3), dtype=np.int64)
        assert t.query_arrays(empty, empty).shape == (0,)
