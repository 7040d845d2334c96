"""Internal query paths stay free of DeprecationWarnings.

The kwarg-era ``PrivateFrequencyMatrix.answer_arrays`` /
``answer_sharded`` shims are gone; :class:`repro.engine.Engine` is the
one query surface.  The paths the library itself takes — batch
answering, planning, workload evaluation under a sharded
``engine_config`` — must not emit a :class:`DeprecationWarning`.
"""

import warnings

import numpy as np
import pytest

from repro.core import FrequencyMatrix
from repro.methods import get_sanitizer

SHAPE = (32, 32)


@pytest.fixture(scope="module")
def private():
    rng = np.random.default_rng(3)
    matrix = FrequencyMatrix(rng.poisson(3.0, SHAPE).astype(float))
    return get_sanitizer("kdtree").sanitize(matrix, 0.5, 7)


class TestInternalPathsDoNotWarn:
    def test_answer_many_is_warning_free(self, private):
        boxes = [((0, 10), (0, 10)), ((5, 20), (4, 30))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            private.answer_many(boxes)
            private.plan_queries(
                np.array([[0, 0]], dtype=np.int64),
                np.array([[5, 5]], dtype=np.int64),
            )

    def test_evaluator_is_warning_free(self, private):
        from repro.engine import EngineConfig
        from repro.queries import WorkloadEvaluator, random_workload

        rng = np.random.default_rng(11)
        matrix = FrequencyMatrix(rng.poisson(3.0, SHAPE).astype(float))
        workload = random_workload(SHAPE, 20, rng=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            WorkloadEvaluator(
                matrix, engine_config=EngineConfig(n_shards=2)
            ).evaluate(private, workload)
