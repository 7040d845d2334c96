"""The entry-driven DAF walk against the dense-view path it replaced.

DAF walks the matrix's nonzero cells (entries): child counts are a
``bincount`` over them and DAF-Homogeneity scores all split candidates of
a node in one pass (:func:`homogeneity_scores`).  The dense-view path that
sliced the node's box once per child and once per candidate sub-box is
kept here, and only here, as the reference: the one-pass scorer must equal
:func:`homogeneity_objective` within 1e-9 relative, and on integer counts
both variants must publish bitwise the same leaves and noisy counts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FrequencyMatrix
from repro.core.frequency_matrix import box_slices
from repro.dp.allocation import root_budget
from repro.dp.mechanisms import laplace_noise
from repro.methods import DAFEntropy, DAFHomogeneity, NeverStop
from repro.methods.daf.framework import (
    _EPS_FLOOR,
    _intervals_from_cuts,
    daf_granularity,
)
from repro.methods.daf.homogeneity import (
    homogeneity_objective,
    homogeneity_scores,
)
from repro.methods.daf.node import DAFNode

REL_TOL = 1e-9


# ----------------------------------------------------------------------
# The one-pass scorer against Eq. (22) sub-box by sub-box
# ----------------------------------------------------------------------
def one_pass_scores(matrix, box, axis, candidates):
    """Score ``candidates`` the way DAF-Homogeneity does: from the
    nonzero cells of ``box`` only."""
    view = matrix.data[box_slices(box)]
    nonzero = np.nonzero(view)
    lo, hi = box[axis]
    n_rows = hi - lo + 1
    return homogeneity_scores(
        nonzero[axis],
        view[nonzero],
        n_rows,
        view.size // n_rows,
        np.asarray(candidates) - lo,
    )


def assert_scores_match(matrix, box, axis, candidates):
    got = one_pass_scores(matrix, box, axis, candidates)
    want = [homogeneity_objective(matrix, box, axis, c) for c in candidates]
    np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=0)


@st.composite
def scoring_cases(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    axis = draw(st.integers(0, ndim - 1))
    # The split axis needs two rows for a fanout of at least 2.
    shape = tuple(max(s, 2) if a == axis else s for a, s in enumerate(shape))
    box = []
    for size in shape:
        lo = draw(st.integers(0, size - 1))
        box.append((lo, draw(st.integers(lo, size - 1))))
    if box[axis][0] == box[axis][1]:
        box[axis] = (0, shape[axis] - 1)
    lo, hi = box[axis]
    n_rows = hi - lo + 1
    m = draw(st.integers(2, n_rows))
    interior = st.lists(
        st.integers(lo + 1, hi), min_size=m - 1, max_size=m - 1, unique=True
    )
    candidates = draw(st.lists(interior.map(sorted), min_size=1, max_size=5))
    density = draw(st.sampled_from(["sparse", "dense", "zero"]))
    seed = draw(st.integers(0, 2**16))
    return shape, tuple(box), axis, candidates, density, seed


def draw_counts(shape, density, seed):
    rng = np.random.default_rng(seed)
    if density == "zero":
        return np.zeros(shape)
    if density == "dense":
        return (rng.poisson(4.0, shape) + 1).astype(float)
    counts = rng.poisson(6.0, shape).astype(float)
    return counts * (rng.random(shape) < 0.2)


class TestOnePassScorer:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=scoring_cases())
    def test_equals_reference_objective(self, case):
        shape, box, axis, candidates, density, seed = case
        matrix = FrequencyMatrix(draw_counts(shape, density, seed))
        assert_scores_match(matrix, box, axis, candidates)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_one_row_intervals(self, axis):
        # Fanout == extent: every sub-box is a single row.
        rng = np.random.default_rng(axis)
        counts = rng.poisson(2.0, (5, 6, 4)) * (rng.random((5, 6, 4)) < 0.3)
        matrix = FrequencyMatrix(counts.astype(float))
        box = ((0, 4), (0, 5), (0, 3))
        lo, hi = box[axis]
        every_row = list(range(lo + 1, hi + 1))
        assert_scores_match(matrix, box, axis, [every_row])

    def test_fractional_counts(self):
        rng = np.random.default_rng(9)
        data = rng.random((7, 9)) * 10.0 * (rng.random((7, 9)) < 0.5)
        matrix = FrequencyMatrix(data)
        box = ((1, 6), (0, 8))
        candidates = [[2, 4], [3, 6], [2, 3]]
        assert_scores_match(matrix, box, 0, candidates)

    def test_all_zero_box_scores_zero(self):
        matrix = FrequencyMatrix(np.zeros((6, 6)))
        scores = one_pass_scores(matrix, ((0, 5), (0, 5)), 1, [[2, 4], [1, 5]])
        assert scores.tolist() == [0.0, 0.0]

    def test_memory_blocks_give_the_same_scores(self, monkeypatch):
        import repro.methods.daf.homogeneity as homogeneity

        rng = np.random.default_rng(4)
        matrix = FrequencyMatrix(rng.poisson(1.0, (12, 10)).astype(float))
        box = ((0, 11), (0, 9))
        candidates = [[3, 7], [2, 9], [5, 6]]
        whole = one_pass_scores(matrix, box, 0, candidates)
        monkeypatch.setattr(homogeneity, "_SCORE_BLOCK_ELEMENTS", 7)
        blocked = one_pass_scores(matrix, box, 0, candidates)
        np.testing.assert_allclose(blocked, whole, rtol=REL_TOL, atol=0)


# ----------------------------------------------------------------------
# The whole walk against the dense-view path
# ----------------------------------------------------------------------
def dense_interval_counts(matrix, box, axis, intervals):
    """Child counts from the node's dense view (the replaced path)."""
    view = matrix.data[box_slices(box)]
    other_axes = tuple(a for a in range(view.ndim) if a != axis)
    profile = view.sum(axis=other_axes) if other_axes else view
    lo = box[axis][0]
    return [
        float(profile[ilo - lo : ihi - lo + 1].sum()) for ilo, ihi in intervals
    ]


class DenseViewPath:
    """Mixin restoring the recursion that scanned each node's dense box:
    child counts from a profile of the view, candidate scores sub-box by
    sub-box.  Budget, fanout, stop and RNG logic are the same lines as
    :meth:`DAFBase._visit`, so the two paths must agree bit for bit."""

    def _sanitize(self, matrix, ledger, rng):
        self._matrix = matrix
        return super()._sanitize(matrix, ledger, rng)

    def _score_candidates(self, node, axis, candidates, entries):
        return [
            homogeneity_objective(self._matrix, node.box, axis, cand)
            for cand in candidates
        ]

    def _visit(self, node, members, acc, state, rng):
        matrix = self._matrix
        d = state.ndim
        depth = node.depth
        eps_tot = state.eps_tot
        if depth == d:
            eps = max(eps_tot - acc, _EPS_FLOOR)
            node.ncount = node.count + laplace_noise(1.0, eps, rng)
            node.ncount_variance = 2.0 / (eps * eps)
            node.eps_spent += eps
            return
        if depth == 0:
            eps0 = root_budget(eps_tot)
            node.ncount = node.count + laplace_noise(1.0, eps0, rng)
            node.ncount_variance = 2.0 / (eps0 * eps0)
            node.eps_spent += eps0
            acc += eps0
            m_raw = daf_granularity(node.ncount, eps_tot - acc, d)
            m = self._clamp_fanout(m_raw, node, axis=0)
            state.m0 = max(m, 1)
            eps_prt = 0.0
        else:
            eps_node = self._level_budget(state, depth)
            eps_data, eps_prt = self._split_budget(eps_node)
            node.ncount = node.count + laplace_noise(1.0, eps_data, rng)
            node.ncount_variance = 2.0 / (eps_data * eps_data)
            node.eps_spent += eps_node
            acc += eps_node
            m_raw = daf_granularity(node.ncount, eps_tot - acc, d - depth)
            m = self._clamp_fanout(m_raw, node, axis=depth)
        if self.stop_condition.should_stop(node.ncount, eps_tot - acc, node.n_cells):
            eps_rest = eps_tot - acc
            if eps_rest > _EPS_FLOOR:
                fresh = node.count + laplace_noise(1.0, eps_rest, rng)
                fresh_var = 2.0 / (eps_rest * eps_rest)
                node.ncount, node.ncount_variance = self._refine(
                    node.ncount, node.ncount_variance, fresh, fresh_var
                )
                node.eps_spent += eps_rest
            node.stopped_early = True
            return
        axis = depth
        cuts = self._choose_cuts(node, axis, m, eps_prt, None, rng)
        intervals = _intervals_from_cuts(node.box[axis], cuts)
        node.split_axis = axis
        node.fanout = len(intervals)
        counts = dense_interval_counts(matrix, node.box, axis, intervals)
        for (ilo, ihi), count in zip(intervals, counts):
            child_box = tuple(
                (ilo, ihi) if a == axis else node.box[a] for a in range(d)
            )
            child = DAFNode(box=child_box, depth=depth + 1, count=count)
            node.children.append(child)
            self._visit(child, None, acc, state, rng)


class DenseEntropy(DenseViewPath, DAFEntropy):
    pass


class DenseHomogeneity(DenseViewPath, DAFHomogeneity):
    pass


def od_like(shape, n_records, seed):
    """Sparse integer counts clustered like trips between hot spots."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, shape, size=(4, len(shape)))
    picks = centers[rng.integers(0, 4, n_records)]
    cells = np.rint(picks + rng.normal(0, 1.2, picks.shape)).astype(np.int64)
    cells = np.clip(cells, 0, np.asarray(shape) - 1)
    data = np.zeros(shape)
    np.add.at(data, tuple(cells.T), 1.0)
    return FrequencyMatrix(data)


MATRICES = {
    "od_4d": lambda: od_like((9, 8, 9, 7), 3000, 1),
    "od_6d": lambda: od_like((6,) * 6, 4000, 2),
    "dense_2d": lambda: FrequencyMatrix(
        np.random.default_rng(3).poisson(5.0, (40, 30)).astype(float)
    ),
    "block_3d": lambda: FrequencyMatrix(
        np.pad(
            np.random.default_rng(4).poisson(20.0, (6, 5, 8)).astype(float),
            ((0, 14), (0, 10), (0, 0)),
        )
    ),
}

VARIANTS = [(DAFEntropy, DenseEntropy), (DAFHomogeneity, DenseHomogeneity)]


def leaves_with_counts(method, matrix, epsilon, seed):
    private = method.sanitize(matrix, epsilon, rng=seed)
    packed = private.packed
    return method.tree_, packed.lo, packed.hi, packed.noisy_counts


class TestEntryWalkMatchesDenseView:
    @pytest.mark.parametrize("name", sorted(MATRICES))
    @pytest.mark.parametrize("variant", VARIANTS, ids=["entropy", "homogeneity"])
    def test_leaves_and_noisy_counts_bitwise_identical(self, name, variant):
        matrix = MATRICES[name]()
        entry_cls, dense_cls = variant
        for epsilon in (0.1, 0.5, 2.0):
            for seed in (0, 1):
                _, lo, hi, noisy = leaves_with_counts(
                    entry_cls(), matrix, epsilon, seed
                )
                _, ref_lo, ref_hi, ref_noisy = leaves_with_counts(
                    dense_cls(), matrix, epsilon, seed
                )
                np.testing.assert_array_equal(lo, ref_lo)
                np.testing.assert_array_equal(hi, ref_hi)
                np.testing.assert_array_equal(noisy, ref_noisy)

    @pytest.mark.parametrize("variant", VARIANTS, ids=["entropy", "homogeneity"])
    def test_each_leaf_count_is_the_sum_of_its_entries(self, variant):
        matrix = MATRICES["od_4d"]()
        coords = np.argwhere(matrix.data != 0)
        values = matrix.data[tuple(coords.T)]
        method = variant[0](stop_condition=NeverStop())
        method.sanitize(matrix, 1.0, rng=5)
        leaves = list(method.tree_.iter_leaves())
        assert len(leaves) > 1
        for leaf in leaves:
            lo = np.array([a for a, _ in leaf.box])
            hi = np.array([b for _, b in leaf.box])
            inside = np.all((coords >= lo) & (coords <= hi), axis=1)
            assert leaf.count == values[inside].sum()

    @pytest.mark.parametrize("variant", VARIANTS, ids=["entropy", "homogeneity"])
    def test_all_zero_matrix(self, variant):
        matrix = FrequencyMatrix(np.zeros((5, 4, 3)))
        entry_cls, dense_cls = variant
        for epsilon in (0.5, 50.0):
            got = leaves_with_counts(entry_cls(), matrix, epsilon, 0)
            want = leaves_with_counts(dense_cls(), matrix, epsilon, 0)
            for a, b in zip(got[1:], want[1:]):
                np.testing.assert_array_equal(a, b)
