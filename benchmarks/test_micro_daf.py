"""Microbenchmark: DAF sanitize on a 6-D OD matrix and a dense city grid.

DAF-Homogeneity (paper Algorithm 3) picks every node's cut set by
noisy-min over ``p`` candidates scored with Eq. (22).  The sanitizer walks
the matrix's nonzero cells and scores all candidates of a node in one
pass (:func:`~repro.methods.daf.homogeneity.homogeneity_scores`).  Two
substrates:

* the paper's subject, an OD matrix with one intermediate stop (11⁶
  cells, well under 1 % of them nonzero) built from simulated
  trajectories exactly as Fig. 8 builds it;
* a dense input, Fig. 6's 1000 × 1000 population grid of a city at the
  paper's 10⁶ points (about a third of the cells nonzero), where walking
  nonzero cells saves the least.

* **Speed** — ``speedup`` (OD) and ``dense_speedup`` (grid) are the
  sanitize time with candidates scored sub-box by sub-box on the node's
  dense view (:func:`~repro.methods.daf.homogeneity.homogeneity_objective`,
  the reference) over the shipped sanitize time, summed over the paper's
  three ε: the median over the rounds of each round's ratio, the two
  sides timed back to back within a round.  Both sides walk the same
  entries, so the ratio isolates the scoring.  Both floors are enforced.
  ``dense_entropy_seconds`` records DAF-Entropy's sanitize time on the
  grid for reference (not gated: an absolute time).
* **Exactness** — every timed round checks that both scorers publish
  bitwise the same partitions, and ``score_max_rel_diff`` (OD) and
  ``dense_score_max_rel_diff`` (grid) are the largest relative
  difference between the one-pass and the reference score over every
  candidate of every scored node (asserted ≤ 1e-9).

Results are written to ``BENCH_sanitize.json`` at the repository root
(each test updates its own keys); ``tools/bench_gate.py`` tracks
``speedup`` and ``dense_speedup`` (relative) and both exactness fields
(absolute ceiling).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.datagen.cities import get_city
from repro.datagen.movement import MovementSimulator
from repro.experiments.figures import PAPER_EPSILONS
from repro.methods import DAFEntropy, DAFHomogeneity
from repro.methods.daf.homogeneity import homogeneity_objective
from repro.trajectories.od import ODMatrixBuilder

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sanitize.json"

N_TRAJECTORIES = 100_000
N_STOPS = 1
OD_CELL_BUDGET = 2_000_000  # the paper scale's budget: 11 cells per axis
ROUNDS = 5

#: Enforced floor on reference-over-shipped sanitize time (measured
#: 5.3-7.9x over seven runs on a 2-core x86-64 VM).
SPEEDUP_FLOOR = 2.0

DENSE_CITY = "denver"
DENSE_POINTS = 1_000_000
DENSE_RESOLUTION = 1000
DENSE_ROUNDS = 3

#: Enforced floor on the grid's reference-over-shipped sanitize time.
DENSE_SPEEDUP_FLOOR = 1.5

MAX_REL_DIFF = 1e-9


class ReferenceScoring(DAFHomogeneity):
    """DAF-Homogeneity scoring each candidate sub-box by sub-box."""

    def _sanitize(self, matrix, ledger, rng):
        self._matrix = matrix
        return super()._sanitize(matrix, ledger, rng)

    def _score_candidates(self, node, axis, candidates, entries):
        return [
            homogeneity_objective(self._matrix, node.box, axis, cand)
            for cand in candidates
        ]


class ComparedScoring(ReferenceScoring):
    """Ships the one-pass scores, recording their largest relative
    difference from the reference."""

    max_rel_diff = 0.0

    def _score_candidates(self, node, axis, candidates, entries):
        want = np.asarray(
            super()._score_candidates(node, axis, candidates, entries)
        )
        got = np.asarray(
            DAFHomogeneity._score_candidates(
                self, node, axis, candidates, entries
            )
        )
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        self.max_rel_diff = max(self.max_rel_diff, float(rel.max()))
        return got.tolist()


def _od_matrix():
    city = get_city("new_york")
    dataset = MovementSimulator(city).sample(
        N_TRAJECTORIES, N_STOPS, np.random.default_rng(0)
    )
    builder = ODMatrixBuilder(city.grid, frames=None, cell_budget=OD_CELL_BUDGET)
    return builder.build(dataset)


def _dense_grid():
    return get_city(DENSE_CITY).population_matrix(
        DENSE_POINTS, DENSE_RESOLUTION, np.random.default_rng(0)
    )


def _sanitize_all(method_cls, matrix):
    return [
        method_cls().sanitize(matrix, eps, rng=i).packed
        for i, eps in enumerate(PAPER_EPSILONS)
    ]


def _timed(method_cls, matrix):
    start = time.perf_counter()
    released = _sanitize_all(method_cls, matrix)
    return time.perf_counter() - start, released


def _timed_rounds(matrix, rounds):
    """Shipped and reference seconds per round, timed back to back so a
    shift in machine load hits both sides of a round's ratio; every
    round's releases must match bitwise.  Returns the shipped seconds, the
    reference seconds and the shipped releases."""
    shipped, reference = [], []
    for _ in range(rounds):
        seconds, released = _timed(DAFHomogeneity, matrix)
        shipped.append(seconds)
        seconds, expected = _timed(ReferenceScoring, matrix)
        reference.append(seconds)
        for got, want in zip(released, expected):
            np.testing.assert_array_equal(got.lo, want.lo)
            np.testing.assert_array_equal(got.hi, want.hi)
            np.testing.assert_array_equal(got.noisy_counts, want.noisy_counts)
    return np.array(shipped), np.array(reference), released


def _max_rel_diff(matrix):
    worst = 0.0
    for i, eps in enumerate(PAPER_EPSILONS):
        compared = ComparedScoring()
        compared.sanitize(matrix, eps, rng=i)
        worst = max(worst, compared.max_rel_diff)
    return worst


def _record(update):
    """Merge ``update`` into the artifact, keeping the other test's keys."""
    result = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    result.update(update)
    ARTIFACT.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(update, indent=1))


def test_daf_homogeneity_sanitize_speedup_and_exactness():
    matrix = _od_matrix()
    assert matrix.shape == (11,) * 6

    max_rel_diff = _max_rel_diff(matrix)
    shipped_seconds, reference_seconds, shipped = _timed_rounds(matrix, ROUNDS)
    speedup = float(np.median(reference_seconds / shipped_seconds))
    result = {
        "shape": list(matrix.shape),
        "nonzero_cells": int(np.count_nonzero(matrix.data)),
        "n_trajectories": N_TRAJECTORIES,
        "epsilons": list(PAPER_EPSILONS),
        "rounds": ROUNDS,
        "n_partitions": [int(p.n_partitions) for p in shipped],
        "sanitize_seconds": float(np.median(shipped_seconds)),
        "reference_sanitize_seconds": float(np.median(reference_seconds)),
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "score_max_rel_diff": max_rel_diff,
    }
    _record(result)
    assert max_rel_diff <= MAX_REL_DIFF
    assert speedup >= SPEEDUP_FLOOR, result


def test_daf_sanitize_on_a_dense_city_grid():
    matrix = _dense_grid()
    assert matrix.shape == (DENSE_RESOLUTION,) * 2

    max_rel_diff = _max_rel_diff(matrix)
    shipped_seconds, reference_seconds, shipped = _timed_rounds(
        matrix, DENSE_ROUNDS
    )
    speedup = float(np.median(reference_seconds / shipped_seconds))
    entropy_seconds = [_timed(DAFEntropy, matrix)[0] for _ in range(DENSE_ROUNDS)]
    result = {
        "dense_shape": list(matrix.shape),
        "dense_nonzero_fraction": float(np.count_nonzero(matrix.data))
        / matrix.data.size,
        "dense_rounds": DENSE_ROUNDS,
        "dense_n_partitions": [int(p.n_partitions) for p in shipped],
        "dense_sanitize_seconds": float(np.median(shipped_seconds)),
        "dense_reference_sanitize_seconds": float(np.median(reference_seconds)),
        "dense_speedup": speedup,
        "dense_speedup_floor": DENSE_SPEEDUP_FLOOR,
        "dense_entropy_seconds": float(np.median(entropy_seconds)),
        "dense_score_max_rel_diff": max_rel_diff,
    }
    _record(result)
    assert max_rel_diff <= MAX_REL_DIFF
    assert speedup >= DENSE_SPEEDUP_FLOOR, result
