"""DAF-Homogeneity (paper Section 4.3, Algorithm 3).

Fanout is chosen exactly as in DAF-Entropy, but the *positions* of the
split points are optimized: each node reserves a fraction ``q`` of its
level budget (Eq. 20, q = 0.3 in the paper) to privately pick, among ``p``
randomized candidate cut sets, the one minimizing the homogeneity objective

    O(K) = sum over resulting sub-boxes F_i of sum_j |f_j - mean(F_i)|   (Eq. 22)

whose sensitivity is 2 (Lemma 4.1).  Candidate ``j`` draws its ``i``-th cut
uniformly from the ``i``-th interval of the uniform division (Section 4.3's
construction), so candidates are perturbations of the uniform split.

Scoring from the nonzero cells
------------------------------
A node scores all ``p`` candidates in one pass over its nonzero cells (the
framework's *entries*), never over its dense box.  Every zero cell of a
sub-box deviates from the sub-box mean ``mu = S/n`` by exactly ``|mu|``,
so Eq. (22) is, in closed form,

    O(K) = sum_i (n_i - nnz_i) * |mu_i|  +  sum over nonzero f of |f - mu_i(f)|

with ``S_i``, ``n_i`` and ``nnz_i`` the sum, cell count and nonzero count
of sub-box ``F_i``.  Per-row sums and nonzero counts along the split axis
give every candidate's ``S_i`` and ``nnz_i``; the nonzero term costs one
subtraction per (candidate, nonzero cell).  This is Eq. (22) exactly, for
any sign and density.  On fully dense data the nonzero term touches each
cell once per candidate, as scoring each sub-box does, but in a few
vectorized calls per node instead of a few per sub-box.
:func:`homogeneity_objective` is the dense per-sub-box reference the
tests check it against.

Noise on the candidate scores
-----------------------------
Algorithm 3 line 14 writes ``Lap(2/(p * eps_prt))``, which *reduces* noise
as the number of candidates grows and does not compose.  The default here
is **report-noisy-min** (scale ``2*s/eps_prt`` with s = 2), which is
``eps_prt``-DP for any ``p`` since only the argmin is released.  Both the
literal paper formula and per-candidate sequential composition are
available via ``split_noise`` for comparison; DESIGN.md documents the
substitution.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...core.exceptions import MethodError
from ...core.frequency_matrix import FrequencyMatrix, box_slices
from ...dp.mechanisms import laplace_noise, report_noisy_min
from .framework import DAFBase, NodeEntries, _intervals_from_cuts
from .node import DAFNode

#: Sensitivity of the homogeneity objective (Lemma 4.1).
OBJECTIVE_SENSITIVITY = 2.0

#: Upper bound on the (candidate, nonzero cell) deviations held in memory
#: at once while scoring (8 MB of float64).
_SCORE_BLOCK_ELEMENTS = 1 << 20


def homogeneity_objective(
    matrix: FrequencyMatrix, node_box, axis: int, cuts: List[int]
) -> float:
    """Eq. (22): summed absolute deviation from each sub-box's mean."""
    view = matrix.data[box_slices(node_box)]
    lo = node_box[axis][0]
    total = 0.0
    for ilo, ihi in _intervals_from_cuts(node_box[axis], cuts):
        sl = [slice(None)] * view.ndim
        sl[axis] = slice(ilo - lo, ihi - lo + 1)
        sub = view[tuple(sl)]
        total += float(np.abs(sub - sub.mean()).sum())
    return total


def homogeneity_scores(
    rows: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    row_cells: int,
    cuts: np.ndarray,
) -> np.ndarray:
    """Eq. (22) for ``p`` candidate cut sets at once, from nonzero cells.

    Parameters
    ----------
    rows:
        Row of each nonzero cell of the box along the split axis, counted
        from the box's first row (``0 <= rows < n_rows``).
    values:
        Those cells' values.
    n_rows:
        Extent of the box along the split axis.
    row_cells:
        Cells per row: the product of the box's other extents.
    cuts:
        ``(p, m - 1)`` interior cuts relative to the box's first row,
        strictly increasing within each candidate.

    Returns the ``(p,)`` objectives, equal to :func:`homogeneity_objective`
    of each candidate up to float summation order.
    """
    cuts = np.asarray(cuts, dtype=np.intp)
    p, m = cuts.shape[0], cuts.shape[1] + 1
    bounds = np.empty((p, m + 1), dtype=np.intp)
    bounds[:, 0] = 0
    bounds[:, 1:m] = cuts
    bounds[:, m] = n_rows
    lengths = (bounds[:, 1:] - bounds[:, :-1]).ravel()
    # Sub-box of every (candidate, row), numbered candidate-major; sub-box
    # sums and nonzero counts add up the per-row totals.
    sub_of_row = np.arange(p * m).repeat(lengths)
    row_sum = np.bincount(rows, weights=values, minlength=n_rows)
    row_nnz = np.bincount(rows, minlength=n_rows)
    sub_sum = np.bincount(sub_of_row, row_sum[None].repeat(p, 0).ravel(), p * m)
    sub_nnz = np.bincount(sub_of_row, row_nnz[None].repeat(p, 0).ravel(), p * m)
    n_cells = lengths * row_cells
    mean = sub_sum / n_cells
    scores = ((n_cells - sub_nnz) * np.abs(mean)).reshape(p, m).sum(axis=1)
    # |f - mean| over the nonzero cells, a bounded block of cells at a time.
    row_mean = mean[sub_of_row].reshape(p, n_rows)
    block = max(1, _SCORE_BLOCK_ELEMENTS // p)
    for start in range(0, rows.size, block):
        part = slice(start, start + block)
        deviation = row_mean.take(rows[part], axis=1)
        deviation -= values[part]
        scores += np.abs(deviation, out=deviation).sum(axis=1)
    return scores


class DAFHomogeneity(DAFBase):
    """Density-Aware Framework with homogeneity-optimized split points.

    Parameters
    ----------
    q:
        Fraction of each node's budget reserved for split selection
        (Eq. 20; the paper sets 0.3 experimentally).
    p:
        Number of randomized candidate cut sets per node.
    split_noise:
        ``"noisy_min"`` (default, correct for any p), ``"composed"``
        (eps_prt/p per candidate), or ``"paper"`` (the literal Algorithm 3
        line 14 scale — kept for comparison only).
    (plus all :class:`~repro.methods.daf.framework.DAFBase` parameters)
    """

    name = "daf_homogeneity"

    def __init__(
        self,
        q: float = 0.3,
        p: int = 8,
        split_noise: str = "noisy_min",
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not 0.0 < q < 1.0:
            raise MethodError(f"q must be in (0, 1), got {q}")
        if p < 1:
            raise MethodError(f"p must be >= 1, got {p}")
        if split_noise not in ("noisy_min", "composed", "paper"):
            raise MethodError(
                "split_noise must be 'noisy_min', 'composed' or 'paper', "
                f"got {split_noise!r}"
            )
        self.q = float(q)
        self.p = int(p)
        self.split_noise = split_noise

    # ------------------------------------------------------------------
    def _split_budget(self, eps_node: float):
        # Eq. (20): eps_prt = q * eps_i, eps_data = (1 - q) * eps_i.
        return (1.0 - self.q) * eps_node, self.q * eps_node

    def _choose_cuts(
        self,
        node: DAFNode,
        axis: int,
        m: int,
        eps_prt: float,
        entries: NodeEntries,
        rng: np.random.Generator,
    ) -> List[int]:
        uniform_cuts = super()._choose_cuts(node, axis, m, eps_prt, entries, rng)
        if len(uniform_cuts) == 0:
            return uniform_cuts  # fanout 1: nothing to optimize.
        if eps_prt <= 0.0:
            # The root's budget is fully devoted to its count (Algorithm 3
            # line 9 uses all of eps_tot/100); without a partitioning
            # budget we keep the uniform cuts.
            return uniform_cuts
        candidates = [
            self._draw_candidate(node, axis, uniform_cuts, rng)
            for _ in range(self.p)
        ]
        scores = self._score_candidates(node, axis, candidates, entries)
        best = self._pick_noisy_min(scores, eps_prt, rng)
        return candidates[best]

    def _score_candidates(
        self,
        node: DAFNode,
        axis: int,
        candidates: List[List[int]],
        entries: NodeEntries,
    ) -> List[float]:
        """Eq. (22) of every candidate cut set, in one pass over the
        node's nonzero cells (:func:`homogeneity_scores`)."""
        lo, hi = node.box[axis]
        n_rows = hi - lo + 1
        scores = homogeneity_scores(
            entries.positions - lo,
            entries.values,
            n_rows,
            node.n_cells // n_rows,
            np.asarray(candidates, dtype=np.intp) - lo,
        )
        return scores.tolist()

    # ------------------------------------------------------------------
    def _draw_candidate(
        self,
        node: DAFNode,
        axis: int,
        uniform_cuts: List[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """One candidate cut set: the i-th cut is uniform over the i-th
        interval of the uniform division (strictly increasing by
        construction, every sub-interval non-empty)."""
        lo, hi = node.box[axis]
        boundaries = [lo] + list(uniform_cuts) + [hi + 1]
        cuts: List[int] = []
        for i in range(len(uniform_cuts)):
            seg_lo = boundaries[i] + 1  # cut must leave interval i non-empty
            seg_hi = boundaries[i + 1]
            cuts.append(int(rng.integers(seg_lo, seg_hi + 1)))
        return cuts

    def _pick_noisy_min(
        self, scores: List[float], eps_prt: float, rng: np.random.Generator
    ) -> int:
        if self.split_noise == "noisy_min":
            return report_noisy_min(scores, OBJECTIVE_SENSITIVITY, eps_prt, rng)
        if self.split_noise == "composed":
            per_candidate = eps_prt / len(scores)
            noisy = [
                s + laplace_noise(OBJECTIVE_SENSITIVITY, per_candidate, rng)
                for s in scores
            ]
            return int(np.argmin(noisy))
        # "paper": the literal Algorithm 3 line 14 scale 2/(p * eps_prt).
        scale = 2.0 / (len(scores) * eps_prt)
        noisy = [s + float(rng.laplace(0.0, scale)) for s in scores]
        return int(np.argmin(noisy))

    def describe(self):
        base = super().describe()
        base.update({"name": self.name, "q": self.q, "p": self.p,
                     "split_noise": self.split_noise})
        return base
