"""Tests for the DAF framework, DAF-Entropy and DAF-Homogeneity."""

import numpy as np
import pytest

from repro.core import FrequencyMatrix, MethodError, full_box
from repro.core.frequency_matrix import box_slices
from repro.methods import (
    CountThreshold,
    DAFEntropy,
    DAFHomogeneity,
    NeverStop,
    NoiseAdaptiveThreshold,
    daf_granularity,
    homogeneity_objective,
)
from repro.methods.daf.framework import _intervals_from_cuts
from repro.methods.daf.node import DAFNode


class TestDafGranularity:
    def test_matches_eq19_for_full_dims(self):
        import math
        m = daf_granularity(1e6, 0.1, 2)
        assert m == pytest.approx((1e6 * 0.1 / math.sqrt(2)) ** (1 / 3))

    def test_remaining_dims_exponent(self):
        import math
        m = daf_granularity(1e4, 0.2, 1)
        assert m == pytest.approx((1e4 * 0.2 / math.sqrt(2)) ** (2 / 3))

    def test_negative_count_gives_one(self):
        assert daf_granularity(-50.0, 0.5, 2) == pytest.approx(
            daf_granularity(1.0, 0.5, 2)
        )

    def test_no_budget_gives_one(self):
        assert daf_granularity(1e6, 0.0, 2) == 1.0
        assert daf_granularity(1e6, -0.1, 2) == 1.0

    def test_validates_dims(self):
        with pytest.raises(MethodError):
            daf_granularity(1e6, 0.1, 0)


class TestIntervalHelpers:
    def test_intervals_from_cuts(self):
        assert _intervals_from_cuts((0, 9), [3, 7]) == [(0, 2), (3, 6), (7, 9)]

    def test_intervals_no_cuts(self):
        assert _intervals_from_cuts((2, 5), []) == [(2, 5)]

    def test_interval_counts_match_direct_sum(self, small_4d):
        # Every node's true count, from the entry walk (root runs, deeper
        # bincounts over regrouped entries), equals its box's dense sum.
        method = DAFEntropy(stop_condition=NeverStop())
        method.sanitize(small_4d, 1.0, rng=0)
        nodes = list(method.tree_.iter_nodes())
        assert max(node.depth for node in nodes) == small_4d.ndim
        for node in nodes:
            assert node.count == small_4d.data[box_slices(node.box)].sum()


class TestDAFTreeStructure:
    def test_leaves_tile_matrix(self, skewed_2d):
        method = DAFEntropy()
        private = method.sanitize(skewed_2d, 0.5, rng=0)
        covered = sum(p.n_cells for p in private.partitions)
        assert covered == skewed_2d.n_cells

    def test_tree_exposed_and_consistent(self, skewed_2d):
        method = DAFEntropy()
        private = method.sanitize(skewed_2d, 0.5, rng=0)
        tree = method.tree_
        assert tree.depth == 0
        assert tree.count == skewed_2d.total
        assert tree.n_leaves() == private.n_partitions

    def test_max_height_is_ndim(self, small_4d):
        method = DAFEntropy()
        method.sanitize(small_4d, 1.0, rng=0)
        assert method.tree_.height() <= small_4d.ndim

    def test_split_axis_equals_depth(self, skewed_2d):
        method = DAFEntropy(stop_condition=NeverStop())
        method.sanitize(skewed_2d, 0.5, rng=0)
        for node in method.tree_.iter_nodes():
            if not node.is_leaf:
                assert node.split_axis == node.depth

    def test_child_counts_sum_to_parent(self, skewed_2d):
        method = DAFEntropy(stop_condition=NeverStop())
        method.sanitize(skewed_2d, 0.5, rng=0)
        for node in method.tree_.iter_nodes():
            if node.children:
                total = sum(c.count for c in node.children)
                assert total == pytest.approx(node.count)

    def test_metadata_fields(self, skewed_2d):
        private = DAFEntropy().sanitize(skewed_2d, 0.5, rng=0)
        meta = private.metadata
        assert meta["m0"] >= 1
        assert meta["n_partitions"] >= 1
        assert "split_tree" in meta
        assert meta["split_tree"]["depth"] == 0

    def test_split_tree_has_no_true_counts(self, skewed_2d):
        private = DAFEntropy().sanitize(skewed_2d, 0.5, rng=0)

        def walk(node):
            assert "count" not in node  # only ncount is public
            assert "ncount" in node
            for child in node.get("children", []):
                walk(child)

        walk(private.metadata["split_tree"])


class TestBudgetComposition:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_max_path_epsilon_equals_budget(self, skewed_2d, epsilon):
        """Every root-to-leaf path must spend exactly eps_tot."""
        method = DAFEntropy()
        method.sanitize(skewed_2d, epsilon, rng=0)

        def path_sums(node, acc):
            acc = acc + node.eps_spent
            if node.is_leaf:
                yield acc
            for child in node.children:
                yield from path_sums(child, acc)

        for total in path_sums(method.tree_, 0.0):
            assert total == pytest.approx(epsilon, rel=1e-6)

    def test_max_path_epsilon_method(self, skewed_2d):
        method = DAFEntropy()
        method.sanitize(skewed_2d, 0.4, rng=1)
        assert method.tree_.max_path_epsilon() == pytest.approx(0.4, rel=1e-6)

    def test_homogeneity_budget_also_exact(self, skewed_2d):
        method = DAFHomogeneity(p=3)
        method.sanitize(skewed_2d, 0.4, rng=1)
        assert method.tree_.max_path_epsilon() == pytest.approx(0.4, rel=1e-6)


class TestStopConditions:
    def test_never_stop_reaches_full_depth(self, skewed_2d):
        method = DAFEntropy(stop_condition=NeverStop())
        method.sanitize(skewed_2d, 0.5, rng=0)
        assert all(
            leaf.depth == 2 for leaf in method.tree_.iter_leaves()
        )

    def test_huge_threshold_stops_at_root(self, skewed_2d):
        method = DAFEntropy(stop_condition=CountThreshold(1e12))
        private = method.sanitize(skewed_2d, 0.5, rng=0)
        assert private.n_partitions == 1
        assert method.tree_.stopped_early

    def test_stop_uses_remaining_budget(self, skewed_2d):
        method = DAFEntropy(stop_condition=CountThreshold(1e12))
        method.sanitize(skewed_2d, 0.5, rng=0)
        assert method.tree_.eps_spent == pytest.approx(0.5, rel=1e-6)

    def test_adaptive_stop_prunes_sparse_regions(self, rng):
        """A matrix with one dense corner: sparse subtrees should stop."""
        data = np.zeros((64, 64))
        data[:8, :8] = rng.poisson(50.0, size=(8, 8))
        fm = FrequencyMatrix(data)
        method = DAFEntropy(stop_condition=NoiseAdaptiveThreshold(2.0))
        private = method.sanitize(fm, 0.2, rng=3)
        assert private.metadata["n_stopped_early"] > 0

    def test_refine_average_changes_result(self, skewed_2d):
        kwargs = dict(stop_condition=CountThreshold(1e12))
        a = DAFEntropy(refine="replace", **kwargs).sanitize(
            skewed_2d, 0.5, rng=7
        )
        b = DAFEntropy(refine="average", **kwargs).sanitize(
            skewed_2d, 0.5, rng=7
        )
        fb = full_box(skewed_2d.shape)
        assert a.answer(fb) != b.answer(fb)

    def test_invalid_refine_rejected(self):
        with pytest.raises(MethodError):
            DAFEntropy(refine="discard")

    def test_invalid_allocation_rejected(self):
        with pytest.raises(MethodError):
            DAFEntropy(allocation="exponential")


class TestHomogeneityObjective:
    def test_uniform_data_scores_zero(self):
        fm = FrequencyMatrix(np.full((8, 8), 3.0))
        box = full_box((8, 8))
        assert homogeneity_objective(fm, box, 0, [4]) == pytest.approx(0.0)

    def test_separating_cut_beats_bad_cut(self):
        # Two homogeneous halves: cutting at the boundary scores 0,
        # cutting elsewhere mixes densities and scores > 0.
        data = np.zeros((8, 4))
        data[:4, :] = 10.0
        fm = FrequencyMatrix(data)
        box = full_box((8, 4))
        good = homogeneity_objective(fm, box, 0, [4])
        bad = homogeneity_objective(fm, box, 0, [2])
        assert good == pytest.approx(0.0)
        assert bad > good

    def test_lemma41_sensitivity_bound(self, rng):
        """Adding one record changes the objective by at most 2."""
        for _ in range(50):
            data = rng.poisson(3.0, size=(9, 5)).astype(float)
            fm = FrequencyMatrix(data)
            box = full_box((9, 5))
            cuts = [3, 6]
            base = homogeneity_objective(fm, box, 0, cuts)
            i, j = rng.integers(0, 9), rng.integers(0, 5)
            data2 = data.copy()
            data2[i, j] += 1
            perturbed = homogeneity_objective(
                FrequencyMatrix(data2), box, 0, cuts
            )
            assert abs(perturbed - base) <= 2.0 + 1e-9


class TestDAFHomogeneityConfig:
    def test_parameter_validation(self):
        with pytest.raises(MethodError):
            DAFHomogeneity(q=0.0)
        with pytest.raises(MethodError):
            DAFHomogeneity(q=1.0)
        with pytest.raises(MethodError):
            DAFHomogeneity(p=0)
        with pytest.raises(MethodError):
            DAFHomogeneity(split_noise="magic")

    @pytest.mark.parametrize("mode", ["noisy_min", "composed", "paper"])
    def test_all_split_noise_modes_run(self, mode, skewed_2d):
        private = DAFHomogeneity(split_noise=mode, p=3).sanitize(
            skewed_2d, 0.5, rng=0
        )
        assert private.n_partitions >= 1

    def test_candidate_cuts_strictly_increasing(self, skewed_2d):
        method = DAFHomogeneity(p=5)
        method.sanitize(skewed_2d, 0.5, rng=0)
        for node in method.tree_.iter_nodes():
            if node.children:
                axis = node.split_axis
                starts = [c.box[axis][0] for c in node.children]
                assert starts == sorted(starts)
                assert len(set(starts)) == len(starts)

    def test_children_nonempty_intervals(self, skewed_2d):
        method = DAFHomogeneity(p=5)
        method.sanitize(skewed_2d, 0.5, rng=0)
        for node in method.tree_.iter_nodes():
            lo, hi = node.box[0]
            assert hi >= lo

    def test_homogeneity_finds_block_boundary(self, rng):
        """On block-structured data, homogeneity splits should align with
        the true boundary more often than uniform splits would."""
        data = np.zeros((30, 30))
        data[:10, :] = rng.poisson(30.0, size=(10, 30))
        fm = FrequencyMatrix(data)
        hits = 0
        for seed in range(10):
            method = DAFHomogeneity(p=12, stop_condition=NeverStop())
            method.sanitize(fm, 2.0, rng=seed)
            root = method.tree_
            cuts = [c.box[0][0] for c in root.children[1:]]
            if any(abs(c - 10) <= 1 for c in cuts):
                hits += 1
        assert hits >= 5

    def test_describe_includes_params(self):
        desc = DAFHomogeneity(q=0.25, p=4).describe()
        assert desc["q"] == 0.25
        assert desc["p"] == 4


class TestDAFAccuracy:
    def test_daf_beats_identity_on_sparse_highdim(self, small_4d, rng):
        from repro.methods import Identity
        from repro.queries import WorkloadEvaluator, random_workload

        evaluator = WorkloadEvaluator(small_4d)
        workload = random_workload(small_4d.shape, 150, rng)
        daf_mre = np.mean([
            evaluator.evaluate(
                DAFEntropy().sanitize(small_4d, 0.2, np.random.default_rng(s)),
                workload,
            ).mre
            for s in range(5)
        ])
        id_mre = np.mean([
            evaluator.evaluate(
                Identity().sanitize(small_4d, 0.2, np.random.default_rng(s)),
                workload,
            ).mre
            for s in range(5)
        ])
        assert daf_mre < id_mre

    def test_uniform_allocation_ablation_runs(self, skewed_2d):
        private = DAFEntropy(allocation="uniform").sanitize(
            skewed_2d, 0.5, rng=0
        )
        assert private.n_partitions >= 1

    def test_max_fanout_respected(self, skewed_2d):
        method = DAFEntropy(max_fanout=3, stop_condition=NeverStop())
        method.sanitize(skewed_2d, 2.0, rng=0)
        for node in method.tree_.iter_nodes():
            if node.children:
                assert len(node.children) <= 3
