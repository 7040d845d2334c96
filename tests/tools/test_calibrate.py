"""Tests for tools/calibrate.py — threshold suggestions, never applied."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
CALIBRATE = TOOLS / "calibrate.py"

_spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)

#: A synthetic artifact with easy round numbers.  Dense series: 10^3
#: cells, d=3, q=100, k=100; broadcast 0.3 s -> 1e-5 s per pair-dim;
#: prefix build 0.05 s -> 5 units per cell; dense fill 0.5 s -> 100
#: factor units per partition; gathers 0.016 s -> 2 units per corner.
FULL_ARTIFACT = {
    "shape": [100, 100],
    "n_partitions": 1000,
    "n_queries": 1000,
    "od_shape": [10, 10, 10],
    "od_n_partitions": 100,
    "od_n_queries": 100,
    "od_broadcast_seconds": 0.3,
    "prefix_build_seconds": 0.05,
    "dense_build_seconds": 0.5,
    "prefix_query_seconds": 0.016,
    "broadcast_seconds_small": 1.0,
    "pruned_seconds_small": 0.1,
    "small_query_candidate_fraction": 0.01,
}


class TestSuggest:
    def test_dense_factor_from_breakeven(self):
        out = calibrate.suggest(FULL_ARTIFACT)
        evidence = out["evidence"]
        assert evidence["broadcast_pair_dim_seconds"] == pytest.approx(1e-5)
        assert out["dense_switch_factor"] == pytest.approx(5.0)
        assert evidence["dense_fill_partition_cost"] == pytest.approx(100.0)
        assert evidence["dense_query_corner_cost"] == pytest.approx(2.0)

    def test_fitted_constants_shown_next_to_shipped(self):
        from repro.core.private_matrix import DENSE_QUERY_CORNER_COST

        report = calibrate.render(calibrate.suggest(FULL_ARTIFACT))
        assert (
            f"dense_query_corner_cost = 2 (shipped {DENSE_QUERY_CORNER_COST:g})"
            in report
        )

    def test_prune_factor_from_pair_ratio(self):
        out = calibrate.suggest(FULL_ARTIFACT)
        # est pairs = 0.01 * 1e6 + 1000 * 64 = 74_000; gathered pair
        # cost = 0.1 / 74e3; contiguous = 1.0 / 1e6.
        expected_ratio = (0.1 / 74_000.0) / (1.0 / 1_000_000.0)
        assert out["evidence"][
            "gathered_vs_contiguous_pair_ratio"
        ] == pytest.approx(expected_ratio, abs=0.01)
        assert out["prune_safety_factor"] == pytest.approx(
            expected_ratio * calibrate.PRUNE_HEADROOM, abs=0.02
        )

    def test_suggestions_floor_at_one(self):
        artifact = dict(FULL_ARTIFACT, prefix_build_seconds=1e-9,
                        pruned_seconds_small=1e-9)
        out = calibrate.suggest(artifact)
        assert out["dense_switch_factor"] >= 1.0
        assert out["prune_safety_factor"] >= 1.0

    def test_missing_series_skipped(self):
        partial = {
            k: v for k, v in FULL_ARTIFACT.items()
            if not k.startswith(("broadcast_", "pruned_", "small_"))
        }
        assert "prefix_build_seconds" in partial
        out = calibrate.suggest(partial)
        assert "dense_switch_factor" in out
        assert "prune_safety_factor" not in out
        assert "no suggestions" not in calibrate.render(out)

    def test_unmeasured_dense_stage_skips_dense_series(self):
        # A zero timing is a stage that was not measured, not a free one.
        out = calibrate.suggest(dict(FULL_ARTIFACT, od_broadcast_seconds=0.0))
        assert "dense_switch_factor" not in out
        assert "dense_query_corner_cost" not in out["evidence"]

    def test_empty_artifact_renders_no_suggestions(self):
        out = calibrate.suggest({})
        assert "no suggestions" in calibrate.render(out)

    def test_suggested_overrides_are_valid_engine_config(self):
        from repro.engine import EngineConfig

        out = calibrate.suggest(FULL_ARTIFACT)
        overrides = {k: v for k, v in out.items() if k != "evidence"}
        config = EngineConfig(**overrides)
        assert config.plan_cost().safety_factor == out["prune_safety_factor"]


class TestCommandLine:
    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(CALIBRATE), *args],
            capture_output=True, text=True,
        )

    def test_prints_suggestions_for_artifact(self, tmp_path):
        artifact = tmp_path / "BENCH_query_engine.json"
        artifact.write_text(json.dumps(FULL_ARTIFACT))
        proc = self.run_tool("--artifact", str(artifact))
        assert proc.returncode == 0
        assert "suggested EngineConfig(" in proc.stdout
        assert "--engine-config" in proc.stdout
        assert "REPRO_ENGINE_DENSE_SWITCH_FACTOR" in proc.stdout
        assert "nothing was applied" in proc.stdout

    def test_missing_artifact_fails_cleanly(self, tmp_path):
        proc = self.run_tool("--artifact", str(tmp_path / "nope.json"))
        assert proc.returncode == 1
        assert "no artifact" in proc.stderr

    def test_corrupt_artifact_fails_cleanly(self, tmp_path):
        bad = tmp_path / "BENCH_query_engine.json"
        bad.write_text("{not json")
        proc = self.run_tool("--artifact", str(bad))
        assert proc.returncode == 1
        assert "unreadable" in proc.stderr
