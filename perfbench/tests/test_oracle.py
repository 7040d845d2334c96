"""The independent recomputation the paper workloads are checked against."""

import numpy as np
import pytest

from perfbench.paper import box_sums, prefix_table, reconstruct, tables_match


def test_box_sums_match_brute_force():
    rng = np.random.default_rng(0)
    data = rng.random((5, 4, 3))
    table = prefix_table(data)
    ends = rng.integers(0, data.shape, size=(50, 2, 3))
    lows, highs = ends.min(axis=1), ends.max(axis=1)
    expect = [data[tuple(slice(l, h + 1) for l, h in zip(lo, hi))].sum()
              for lo, hi in zip(lows, highs)]
    np.testing.assert_allclose(box_sums(table, lows, highs), expect, rtol=1e-12)


@pytest.mark.parametrize("method", ["eug", "mkm", "daf_entropy", "identity"])
def test_reconstruct_matches_the_dense_array(method):
    from repro.datagen.cities import get_city
    from repro.methods.registry import get_sanitizer

    matrix = get_city("detroit").population_matrix(
        n_points=5000, resolution=32, rng=np.random.default_rng(1))
    private = get_sanitizer(method).sanitize(matrix, 0.5, np.random.default_rng(2))
    np.testing.assert_allclose(reconstruct(private), private.dense_array(),
                               rtol=1e-9, atol=1e-9)


def test_tables_match_tolerance_and_keys():
    a = [("c", "eug", 0.1, "random", 10.0)]
    assert tables_match(a, [("c", "eug", 0.1, "random", 10.0 * (1 + 5e-10))])
    assert not tables_match(a, [("c", "eug", 0.1, "random", 10.0 * (1 + 5e-9))])
    assert not tables_match(a, [("c", "ebp", 0.1, "random", 10.0)])
    assert not tables_match(a, a + a)

