"""The Density-Aware Framework's shared recursive engine (paper Section 4).

Both DAF variants walk the same tree (Algorithm 2 / Algorithm 3):

* nodes at depth ``i`` split dimension ``i`` of their box (0-based here;
  the paper's "(i+1)-th dimension" in 1-based notation);
* the root is sanitized with ``eps_0 = eps_tot/100`` (Eq. 33) and its noisy
  count sets both the root fanout and the budget-allocation constant
  ``m0``;
* internal nodes receive the geometric level budget of Eq. (32);
* fanout at every node is the entropy-balanced granularity of Eq. (19),
  applied to the *remaining* dimensions: ``m = (ncount * eps_left /
  sqrt(2))^(2 / (3 (d - depth)))``;
* a stop condition on the sanitized count may prune the subtree early, in
  which case the node is re-sanitized with all remaining budget (Algorithm
  2 lines 17-20);
* leaves' sanitized counts form the published partitioning.

The walk never rescans the dense matrix.  The matrix's nonzero cells are
listed once (the *entries*: per-axis coordinates plus values, in C
order), and each node holds the entries inside its box.  A node that
splits takes its children's true counts from one ``bincount`` of its
entries per row of the split axis, summed over each child's rows (exact
for the integer counts the paper's matrices hold).  C order sorts the
entries along axis 0, so the root's children own contiguous runs of
them; below the root, a lookup table over the split axis names each
entry's child and one stable sort regroups them, only when the children
are not at full depth.  Zero cells carry no information a count or a
split score needs beyond their number, which follows from the box, so
the work per node scales with its nonzero cells, not with its volume.

Subclasses customize only how a node's level budget is split between data
and partition selection, and where the split points go.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ...core.exceptions import MethodError
from ...core.frequency_matrix import FrequencyMatrix, full_box
from ...core.packed import PackedPartitioning, boxes_to_arrays
from ...core.private_matrix import PrivateFrequencyMatrix
from ...dp.allocation import level_budget, root_budget, uniform_level_budgets
from ...dp.budget import BudgetLedger
from ...dp.mechanisms import laplace_noise
from ..base import Sanitizer
from .node import DAFNode
from .stop import NoiseAdaptiveThreshold, StopCondition

#: Numeric floor guarding divisions by vanishing remaining budget.
_EPS_FLOOR = 1e-12

#: The entries of a node: a contiguous run of them, or their indices.
_Members = Union[slice, np.ndarray]


def daf_granularity(ncount: float, eps_left: float, remaining_dims: int) -> float:
    """Eq. (19) applied to the remaining dimensions (Algorithm 2 line 11/16).

    ``m = (ncount * eps_left / sqrt(2)) ** (2 / (3 * (d - d')))`` with the
    noisy count clamped at 1 (a negative noisy count means "essentially
    empty": do not split).
    """
    if remaining_dims < 1:
        raise MethodError(f"remaining_dims must be >= 1, got {remaining_dims}")
    if eps_left <= 0:
        return 1.0
    value = max(ncount, 1.0) * eps_left / math.sqrt(2.0)
    if value <= 1.0:
        return 1.0
    return value ** (2.0 / (3.0 * remaining_dims))


class DAFBase(Sanitizer):
    """Common engine for DAF-Entropy and DAF-Homogeneity.

    Parameters
    ----------
    stop_condition:
        Predicate on sanitized counts that prunes subtrees
        (default: :class:`NoiseAdaptiveThreshold` with factor 2).
    refine:
        What to do with the fresh estimate drawn when a node stops early:
        ``"replace"`` discards the earlier noisy count (Algorithm 2 line
        19, the paper's behaviour) while ``"average"`` combines both
        unbiased estimates with inverse-variance weights (an accuracy
        extension; same privacy cost).
    allocation:
        ``"geometric"`` applies Eq. (32); ``"uniform"`` splits the budget
        equally across levels (the ablation baseline).
    max_fanout:
        Safety cap on any single node's fanout (noisy counts can explode
        the closed-form m); defaults to 4096.
    tree_consistency:
        When True, apply hierarchical consistency boosting (see
        :mod:`repro.methods.daf.boosting`) before publishing the leaves:
        the internal-node estimates the recursion already paid for are
        folded back in by inverse-variance averaging.  Pure
        post-processing; same privacy cost.
    """

    name = "daf"

    def __init__(
        self,
        stop_condition: Optional[StopCondition] = None,
        refine: str = "replace",
        allocation: str = "geometric",
        max_fanout: int = 4096,
        tree_consistency: bool = False,
    ):
        if refine not in ("replace", "average"):
            raise MethodError(f"refine must be 'replace' or 'average', got {refine!r}")
        if allocation not in ("geometric", "uniform"):
            raise MethodError(
                f"allocation must be 'geometric' or 'uniform', got {allocation!r}"
            )
        if max_fanout < 1:
            raise MethodError(f"max_fanout must be >= 1, got {max_fanout}")
        self.stop_condition = stop_condition or NoiseAdaptiveThreshold(2.0)
        self.refine = refine
        self.allocation = allocation
        self.max_fanout = int(max_fanout)
        self.tree_consistency = bool(tree_consistency)

    # ------------------------------------------------------------------
    # Hooks customized by the two variants
    # ------------------------------------------------------------------
    def _split_budget(self, eps_node: float) -> Tuple[float, float]:
        """Split a node's level budget into ``(eps_data, eps_partition)``."""
        return eps_node, 0.0

    def _choose_cuts(
        self,
        node: DAFNode,
        axis: int,
        m: int,
        eps_prt: float,
        entries: "NodeEntries",
        rng: np.random.Generator,
    ) -> List[int]:
        """Interior cut points (absolute indices, strictly increasing) that
        split ``node.box[axis]`` into ``m`` intervals.  ``entries`` are the
        node's nonzero cells.  The base implementation cuts uniformly
        (DAF-Entropy)."""
        lo, hi = node.box[axis]
        size = hi - lo + 1
        cuts = np.linspace(0, size, m + 1).astype(np.int64)[1:-1]
        return sorted({int(c) + lo for c in cuts if 0 < c < size})

    # ------------------------------------------------------------------
    # The recursive engine
    # ------------------------------------------------------------------
    def _sanitize(
        self,
        matrix: FrequencyMatrix,
        ledger: BudgetLedger,
        rng: np.random.Generator,
    ) -> PrivateFrequencyMatrix:
        eps_tot = ledger.epsilon_total
        root = DAFNode(box=full_box(matrix.shape), depth=0, count=matrix.total)
        state = _TreeState(eps_tot, matrix)
        members = slice(0, state.values.size)
        self._visit(root, members, acc=0.0, state=state, rng=rng)

        # The true privacy cost is the maximum root-to-leaf charge sum
        # (parallel composition across disjoint sibling subtrees).
        spent = root.max_path_epsilon()
        if spent > eps_tot + 1e-6:
            raise MethodError(
                f"DAF spent {spent:g} along some path, exceeding budget {eps_tot:g}"
            )
        ledger.charge(min(spent, eps_tot), note="max root-to-leaf composition")

        if self.tree_consistency and not root.is_leaf:
            from .boosting import apply_boosting
            apply_boosting(root)

        leaves = list(root.iter_leaves())
        lows, highs = boxes_to_arrays([leaf.box for leaf in leaves])
        packed = PackedPartitioning(
            lows,
            highs,
            np.array([leaf.ncount for leaf in leaves], dtype=np.float64),
            matrix.shape,
            np.array([leaf.count for leaf in leaves], dtype=np.float64),
            validate=False,
        )
        metadata: Dict[str, object] = {
            "m0": state.m0,
            "n_partitions": len(leaves),
            "tree_height": root.height(),
            "n_stopped_early": sum(1 for n in root.iter_nodes() if n.stopped_early),
            "split_tree": root.to_public_dict(),
        }
        result = PrivateFrequencyMatrix.from_packed(
            packed,
            matrix.domain,
            epsilon=eps_tot,
            method=self.name,
            metadata=metadata,
        )
        #: expose the raw tree for tests / visualization (not serialized).
        self.tree_ = root
        return result

    def _visit(
        self,
        node: DAFNode,
        members: _Members,
        acc: float,
        state: "_TreeState",
        rng: np.random.Generator,
    ) -> None:
        """Sanitize ``node`` and recurse; ``members`` indexes the entries
        (nonzero cells) inside its box: a slice for a contiguous run."""
        d = state.ndim
        depth = node.depth
        eps_tot = state.eps_tot

        if depth == d:
            # Algorithm 2 lines 5-7: full depth, spend everything left.
            eps = max(eps_tot - acc, _EPS_FLOOR)
            node.ncount = node.count + laplace_noise(1.0, eps, rng)
            node.ncount_variance = 2.0 / (eps * eps)
            node.eps_spent += eps
            return

        if depth == 0:
            # Algorithm 2 lines 8-11: sanitize root, derive m0.
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
            # Algorithm 2 lines 12-16: geometric level budget (Eq. 32).
            eps_node = self._level_budget(state, depth)
            eps_data, eps_prt = self._split_budget(eps_node)
            node.ncount = node.count + laplace_noise(1.0, eps_data, rng)
            node.ncount_variance = 2.0 / (eps_data * eps_data)
            node.eps_spent += eps_node
            acc += eps_node
            m_raw = daf_granularity(node.ncount, eps_tot - acc, d - depth)
            m = self._clamp_fanout(m_raw, node, axis=depth)

        # Algorithm 2 lines 17-20: stop condition on the sanitized count.
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

        # Split dimension ``depth`` into m intervals and recurse.
        axis = depth
        entries = NodeEntries(
            state.coords[axis][members], state.values[members]
        )
        cuts = self._choose_cuts(node, axis, m, eps_prt, entries, rng)
        intervals = _intervals_from_cuts(node.box[axis], cuts)
        node.split_axis = axis
        node.fanout = len(intervals)
        n_children = len(intervals)
        lo, hi = node.box[axis]
        # Children's true counts: the entries' sums per row of the split
        # axis, summed over each child's rows.
        row_sums = np.bincount(
            entries.positions, weights=entries.values, minlength=hi + 1
        )
        child_counts = np.add.reduceat(row_sums, [lo, *cuts]).tolist()
        if depth + 1 == d:
            # Full-depth children only add noise to their counts.
            child_members = [slice(0, 0)] * n_children
        elif depth == 0:
            # The entries are in C order: each child's are a run of them.
            bounds = [0, *np.searchsorted(entries.positions, cuts).tolist()]
            bounds.append(entries.values.size)
            child_members = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        else:
            child_members = _group_by_child(
                members, entries.positions, cuts, hi + 1
            )
        for (ilo, ihi), ccount, cmembers in zip(
            intervals, child_counts, child_members
        ):
            child_box = tuple(
                (ilo, ihi) if a == axis else node.box[a] for a in range(d)
            )
            child = DAFNode(box=child_box, depth=depth + 1, count=ccount)
            node.children.append(child)
            self._visit(child, cmembers, acc, state, rng)

    # ------------------------------------------------------------------
    def _level_budget(self, state: "_TreeState", depth: int) -> float:
        eps_prime = state.eps_tot * (1.0 - 0.01)  # eps_tot - eps_0 (Eq. 33)
        if self.allocation == "uniform":
            return uniform_level_budgets(eps_prime, state.ndim)[depth - 1]
        return level_budget(eps_prime, float(max(state.m0, 1)), state.ndim, depth)

    def _clamp_fanout(self, m_raw: float, node: DAFNode, axis: int) -> int:
        lo, hi = node.box[axis]
        size = hi - lo + 1
        if not math.isfinite(m_raw):
            m_raw = float(self.max_fanout)
        return max(1, min(int(round(m_raw)), size, self.max_fanout))

    def _refine(
        self, old: float, old_var: float, fresh: float, fresh_var: float
    ) -> Tuple[float, float]:
        if self.refine == "replace":
            return fresh, fresh_var
        # Inverse-variance weighting of two unbiased estimates.
        w_old = 1.0 / old_var
        w_new = 1.0 / fresh_var
        value = (w_old * old + w_new * fresh) / (w_old + w_new)
        return value, 1.0 / (w_old + w_new)

    def describe(self):
        return {
            "name": self.name,
            "stop_condition": repr(self.stop_condition),
            "refine": self.refine,
            "allocation": self.allocation,
            "max_fanout": self.max_fanout,
            "tree_consistency": self.tree_consistency,
        }


class NodeEntries(NamedTuple):
    """A node's nonzero cells, as the split-point hook sees them."""

    #: Each cell's absolute index along the node's split axis.
    positions: np.ndarray
    #: Each cell's value (count).
    values: np.ndarray


class _TreeState:
    """Per-sanitization state shared down the recursion.

    ``coords[a]`` and ``values`` describe the matrix's nonzero cells in C
    order; coordinates are stored in the narrowest unsigned dtype that
    holds their axis.
    """

    __slots__ = ("eps_tot", "ndim", "m0", "coords", "values")

    def __init__(self, eps_tot: float, matrix: FrequencyMatrix):
        self.eps_tot = eps_tot
        self.ndim = matrix.ndim
        self.m0: int = 1
        cells = matrix.data.reshape(-1)
        # Through a boolean mask: on an 11^6 float64 matrix ~6x faster
        # than np.nonzero on the floats themselves.
        flat = np.flatnonzero(cells != 0)
        self.coords = tuple(
            c.astype(np.min_scalar_type(size - 1))
            for c, size in zip(np.unravel_index(flat, matrix.shape), matrix.shape)
        )
        self.values = cells[flat]


def _intervals_from_cuts(
    interval: Tuple[int, int], cuts: Sequence[int]
) -> List[Tuple[int, int]]:
    """Inclusive sub-intervals of ``interval`` delimited by interior cuts."""
    lo, hi = interval
    out: List[Tuple[int, int]] = []
    prev = lo
    for c in cuts:
        out.append((prev, c - 1))
        prev = c
    out.append((prev, hi))
    return out


def _group_by_child(
    members: _Members, positions: np.ndarray, cuts: List[int], end: int
) -> List[np.ndarray]:
    """Split ``members``, whose coordinates along the split axis are
    ``positions``, into one index array per interval that the interior
    ``cuts`` delimit below ``end``.

    A lookup table over the axis maps each entry to its child (cheaper
    than a ``searchsorted`` once a node holds more than a few hundred
    entries).  The stable sort keeps each child's entries in C order, and
    sorting keys of at most 16 bits is a radix sort, linear in the
    entries.
    """
    bounds = [0, *cuts, end]
    lookup = np.arange(len(bounds) - 1, dtype=np.min_scalar_type(len(cuts)))
    lookup = lookup.repeat([b - a for a, b in zip(bounds, bounds[1:])])
    child_of = lookup.take(positions)
    order = np.argsort(child_of, kind="stable")
    if isinstance(members, slice):
        grouped = order + members.start
    else:
        grouped = members[order]
    ends = np.cumsum(np.bincount(child_of, minlength=len(bounds) - 1)).tolist()
    return [grouped[a:b] for a, b in zip([0] + ends[:-1], ends)]
