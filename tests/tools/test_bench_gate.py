"""Tests for tools/bench_gate.py — the CI benchmark-regression gate.

Run as a subprocess, exactly as CI invokes it: exit code 0 means the
fresh artifacts hold the line, 1 means a tracked speedup regressed (or a
tracked series silently disappeared).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[2] / "tools" / "bench_gate.py"

QUERY_BASELINE = {
    "kernel_speedup": 50.0,
    "auto_speedup": 4000.0,
    "pruned_speedup": 10.0,
    "kernel_max_abs_diff": 2e-10,
    "auto_max_abs_diff": 3e-10,
    "pruned_max_abs_diff": 1e-14,
    "prefix_build_max_abs_diff": 0.0,
}

PARALLEL_BASELINE = {
    "speedup": 2.2,
    "skipped_low_cores": False,
    "usable_cores": 8,
}

SHARDED_BASELINE = {
    "skip_rate": 0.875,
    "sharded_max_abs_diff": 2e-10,
    "n_shards": 4,
}

ASYNC_BASELINE = {
    "speedup": 3.0,
    "sync_speedup": 1.8,
    "async_max_abs_diff": 0.0,
    "batched_ticks": 1,
}

SANITIZE_BASELINE = {
    "speedup": 5.0,
    "score_max_rel_diff": 7e-16,
    "sanitize_seconds": 0.17,
    "dense_speedup": 3.0,
    "dense_score_max_rel_diff": 4e-16,
}

SERVING_BASELINE = {
    "responsiveness_ratio": 40.0,
    "serving_max_abs_diff": 0.0,
    "queries_per_second": 5000.0,
    "dropped_requests": 0,
}


def write_artifacts(directory, query=None, parallel=None, sharded=None,
                    async_batching=None, serving=None, sanitize=None):
    directory.mkdir(parents=True, exist_ok=True)
    if query is not None:
        (directory / "BENCH_query_engine.json").write_text(json.dumps(query))
    if parallel is not None:
        (directory / "BENCH_parallel_trials.json").write_text(
            json.dumps(parallel)
        )
    if sharded is not None:
        (directory / "BENCH_sharded.json").write_text(json.dumps(sharded))
    if async_batching is not None:
        (directory / "BENCH_async_batching.json").write_text(
            json.dumps(async_batching)
        )
    if serving is not None:
        (directory / "BENCH_serving.json").write_text(json.dumps(serving))
    if sanitize is not None:
        (directory / "BENCH_sanitize.json").write_text(json.dumps(sanitize))


def run_gate(baseline, fresh, *extra):
    return subprocess.run(
        [
            sys.executable, str(GATE),
            "--baseline", str(baseline),
            "--fresh", str(fresh),
            *extra,
        ],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def dirs(tmp_path):
    return tmp_path / "baseline", tmp_path / "fresh"


class TestSpeedupGate:
    def test_identical_artifacts_pass(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, QUERY_BASELINE, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout

    def test_small_regression_within_threshold_passes(self, dirs):
        baseline, fresh = dirs
        fresh_query = dict(QUERY_BASELINE, kernel_speedup=40.0)  # -20%
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout

    @pytest.mark.parametrize(
        "key", ["kernel_speedup", "auto_speedup", "pruned_speedup"]
    )
    def test_large_regression_fails(self, dirs, key):
        baseline, fresh = dirs
        fresh_query = dict(QUERY_BASELINE, **{key: QUERY_BASELINE[key] * 0.6})
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert f"FAIL  BENCH_query_engine.json:{key}" in result.stdout

    def test_parallel_regression_fails(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(
            fresh, QUERY_BASELINE, dict(PARALLEL_BASELINE, speedup=1.0)
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "BENCH_parallel_trials.json:speedup" in result.stdout

    def test_threshold_is_configurable(self, dirs):
        baseline, fresh = dirs
        fresh_query = dict(QUERY_BASELINE, kernel_speedup=40.0)  # -20%
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh, "--max-regression", "0.1")
        assert result.returncode == 1


class TestSkippedEntries:
    def test_skipped_low_cores_fresh_is_ignored(self, dirs):
        baseline, fresh = dirs
        skipped = {
            "skipped_low_cores": True,
            "usable_cores": 1,
            "serial_seconds": 3.7,
            "parallel_seconds": 5.0,
        }
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, QUERY_BASELINE, skipped)
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout
        assert "skipped_low_cores" in result.stdout

    def test_skipped_low_cores_baseline_is_ignored(self, dirs):
        baseline, fresh = dirs
        skipped = {"skipped_low_cores": True, "usable_cores": 1}
        write_artifacts(baseline, QUERY_BASELINE, skipped)
        write_artifacts(fresh, QUERY_BASELINE, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout


class TestShardedArtifact:
    """BENCH_sharded.json: an exactness ceiling, no tracked speedup."""

    def test_identical_sharded_artifacts_pass(self, dirs):
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE, SHARDED_BASELINE
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE, SHARDED_BASELINE
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout
        assert "BENCH_sharded.json:sharded_max_abs_diff" in result.stdout
        assert "BENCH_sharded.json:speedup" not in result.stdout

    def test_retired_sharded_series_not_required(self, dirs):
        # A baseline from before the shards ran only in-process still
        # carries the worker-pool series; the fresh artifact no longer
        # writes them, and that is not a disappearance.
        baseline, fresh = dirs
        old = dict(
            SHARDED_BASELINE, speedup=2.1, resident_max_abs_diff=0.0,
            skipped_low_cores=False, usable_cores=8,
        )
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE, old)
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE, SHARDED_BASELINE
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout
        assert "resident_max_abs_diff" not in result.stdout

    def test_sharded_exactness_ceiling_enforced_despite_skip_marker(self, dirs):
        # A skip marker excuses speedups only; merged answers diverging
        # from broadcast is a correctness bug on any machine.
        baseline, fresh = dirs
        skipped_but_wrong = dict(
            SHARDED_BASELINE,
            skipped_low_cores=True,
            usable_cores=1,
            sharded_max_abs_diff=1e-6,
        )
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE, SHARDED_BASELINE
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE, skipped_but_wrong
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "sharded_max_abs_diff" in result.stdout


class TestAsyncBatchingArtifact:
    """BENCH_async_batching.json: tracked speedup + exact-zero ceiling."""

    def test_identical_async_artifacts_pass(self, dirs):
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=ASYNC_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=ASYNC_BASELINE,
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout
        assert "BENCH_async_batching.json:speedup" in result.stdout

    def test_async_speedup_regression_fails(self, dirs):
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=ASYNC_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=dict(ASYNC_BASELINE, speedup=1.2),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "FAIL  BENCH_async_batching.json:speedup" in result.stdout

    def test_async_drift_fails_even_without_baseline(self, dirs):
        # The exactness ceiling is absolute; drift in the demultiplexed
        # answers is a correctness bug regardless of history.
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=dict(ASYNC_BASELINE, async_max_abs_diff=1e-7),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "async_max_abs_diff" in result.stdout

    def test_untracked_sync_speedup_ignored(self, dirs):
        # sync_speedup is context, not a gated series: it may collapse
        # without failing the gate.
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=ASYNC_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            async_batching=dict(ASYNC_BASELINE, sync_speedup=0.1),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout


class TestSanitizeArtifact:
    """BENCH_sanitize.json: tracked speedup + relative-score ceiling."""

    def test_sanitize_speedup_regression_fails(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, sanitize=SANITIZE_BASELINE)
        write_artifacts(fresh, QUERY_BASELINE, sanitize=SANITIZE_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout
        assert "BENCH_sanitize.json:speedup" in result.stdout
        write_artifacts(
            fresh, QUERY_BASELINE, sanitize=dict(SANITIZE_BASELINE, speedup=2.0)
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "FAIL  BENCH_sanitize.json:speedup" in result.stdout

    def test_score_drift_fails_even_without_baseline(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE)
        write_artifacts(
            fresh, QUERY_BASELINE,
            sanitize=dict(SANITIZE_BASELINE, score_max_rel_diff=1e-6),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "FAIL  BENCH_sanitize.json:score_max_rel_diff" in result.stdout

    def test_dense_grid_regression_and_drift_fail(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, sanitize=SANITIZE_BASELINE)
        write_artifacts(
            fresh, QUERY_BASELINE,
            sanitize=dict(SANITIZE_BASELINE, dense_speedup=1.5),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "FAIL  BENCH_sanitize.json:dense_speedup" in result.stdout
        write_artifacts(
            fresh, QUERY_BASELINE,
            sanitize=dict(SANITIZE_BASELINE, dense_score_max_rel_diff=1e-6),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "FAIL  BENCH_sanitize.json:dense_score_max_rel_diff" in result.stdout


class TestServingArtifact:
    """BENCH_serving.json: absolute responsiveness floor + exactness."""

    def test_identical_serving_artifacts_pass(self, dirs):
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=SERVING_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=SERVING_BASELINE,
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout
        assert "BENCH_serving.json:responsiveness_ratio" in result.stdout

    def test_ratio_below_absolute_floor_fails(self, dirs):
        # The floor is absolute, not baseline-relative: even if the
        # baseline ALSO sat below 5x, a fresh 3x must fail.
        baseline, fresh = dirs
        low = dict(SERVING_BASELINE, responsiveness_ratio=3.0)
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE, serving=low
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE, serving=low
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "FAIL  BENCH_serving.json:responsiveness_ratio" \
            in result.stdout

    def test_floor_enforced_without_baseline(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=dict(SERVING_BASELINE, responsiveness_ratio=4.9),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "responsiveness_ratio" in result.stdout

    def test_large_ratio_regression_passes_while_above_floor(self, dirs):
        # Unlike the relative speedup windows, the ratio may fall from
        # 40x to 6x without failing: the guarantee is >=5x, period.
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=SERVING_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=dict(SERVING_BASELINE, responsiveness_ratio=6.0),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout

    def test_serving_drift_fails(self, dirs):
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=SERVING_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=dict(SERVING_BASELINE, serving_max_abs_diff=1e-7),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "serving_max_abs_diff" in result.stdout

    def test_ratio_disappearing_fails(self, dirs):
        baseline, fresh = dirs
        gone = {
            k: v for k, v in SERVING_BASELINE.items()
            if k != "responsiveness_ratio"
        }
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=SERVING_BASELINE,
        )
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE, serving=gone
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "responsiveness_ratio: tracked series disappeared" \
            in result.stdout

    def test_missing_fresh_serving_artifact_fails(self, dirs):
        baseline, fresh = dirs
        write_artifacts(
            baseline, QUERY_BASELINE, PARALLEL_BASELINE,
            serving=SERVING_BASELINE,
        )
        write_artifacts(fresh, QUERY_BASELINE, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "BENCH_serving.json: fresh artifact missing" in result.stdout


class TestMissingData:
    def test_missing_fresh_artifact_fails(self, dirs):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, QUERY_BASELINE, None)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "fresh artifact missing" in result.stdout

    def test_tracked_series_disappearing_fails(self, dirs):
        baseline, fresh = dirs
        fresh_query = {
            k: v for k, v in QUERY_BASELINE.items() if k != "pruned_speedup"
        }
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "disappeared" in result.stdout

    def test_new_series_without_baseline_passes(self, dirs):
        baseline, fresh = dirs
        base_query = {
            k: v for k, v in QUERY_BASELINE.items() if k != "pruned_speedup"
        }
        write_artifacts(baseline, base_query, PARALLEL_BASELINE)
        write_artifacts(fresh, QUERY_BASELINE, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 0, result.stdout

    @pytest.mark.parametrize("side", ["baseline", "fresh"])
    def test_corrupt_artifact_fails(self, dirs, side):
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, QUERY_BASELINE, PARALLEL_BASELINE)
        broken = (baseline if side == "baseline" else fresh)
        (broken / "BENCH_query_engine.json").write_text("{not json")
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "unreadable JSON" in result.stdout

    def test_nothing_compared_fails(self, dirs):
        baseline, fresh = dirs
        baseline.mkdir()
        fresh.mkdir()
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "nothing compared" in result.stdout


class TestExactnessGate:
    def test_exactness_ceiling_enforced(self, dirs):
        baseline, fresh = dirs
        fresh_query = dict(QUERY_BASELINE, pruned_max_abs_diff=1e-6)
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "pruned_max_abs_diff" in result.stdout

    def test_prefix_build_drift_fails(self, dirs):
        # The prefix table must stay bit-identical to the np.cumsum build.
        baseline, fresh = dirs
        fresh_query = dict(QUERY_BASELINE, prefix_build_max_abs_diff=1e-6)
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert (
            "FAIL  BENCH_query_engine.json:prefix_build_max_abs_diff"
            in result.stdout
        )

    def test_exactness_series_disappearing_fails(self, dirs):
        # The disappearance rule covers exactness ceilings too: a fresh
        # artifact that stops emitting a tracked *_max_abs_diff must
        # fail, not silently drop the 1e-9 enforcement.
        baseline, fresh = dirs
        fresh_query = {
            k: v for k, v in QUERY_BASELINE.items()
            if k != "pruned_max_abs_diff"
        }
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(fresh, fresh_query, PARALLEL_BASELINE)
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "pruned_max_abs_diff: tracked series disappeared" \
            in result.stdout

    def test_exactness_enforced_without_baseline(self, dirs):
        # Ceilings are absolute: a brand-new artifact with no baseline
        # still has its exactness fields checked.
        baseline, fresh = dirs
        write_artifacts(baseline, QUERY_BASELINE, PARALLEL_BASELINE)
        write_artifacts(
            fresh, QUERY_BASELINE, PARALLEL_BASELINE,
            dict(SHARDED_BASELINE, sharded_max_abs_diff=1e-6),
        )
        result = run_gate(baseline, fresh)
        assert result.returncode == 1
        assert "sharded_max_abs_diff" in result.stdout
