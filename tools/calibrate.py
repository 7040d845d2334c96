#!/usr/bin/env python
"""Dense-switch / pruning calibration from measured benchmark artifacts.

The dense-switch constants and the ``PRUNE_*`` constants were fitted on
one development machine; the right crossovers depend on the host's BLAS,
memory bandwidth, and core count.  This tool reads the measurements the
query-engine micro-benchmark already records (``BENCH_query_engine.json``
at the repository root) and prints *suggested*
:class:`repro.engine.EngineConfig` threshold overrides for this machine
— as an ``EngineConfig(...)`` call, a CLI ``--engine-config`` string,
and ``REPRO_ENGINE_*`` environment exports.  It never applies anything:
calibration output is a suggestion to a human, not a config mutation.

Model
-----
* **Dense switch.**  The engine densifies when
  ``q·k·d > build + c_q·q·2^d``, in broadcast pair-dimension units (one
  query scored against one partition on one axis), with
  ``build = dense_switch_factor·(cells + c_k·k)`` until the prefix table
  is cached.  The artifact times every term on one 11^6 substrate (the
  paper's OD size): the broadcast kernel on a ``q × k`` batch
  (``od_broadcast_seconds``) gives the unit ``u = seconds / (q·k·d)``;
  the prefix-table build (``prefix_build_seconds``) per cell is the
  factor, ``prefix_build_seconds / (u·cells)``; the dense fill
  (``dense_build_seconds``) per partition, in factor units, is ``c_k``;
  the table's gathers (``prefix_query_seconds``) per query corner are
  ``c_q``.  Only the factor is an :class:`~repro.engine.EngineConfig`
  field, so it is the suggestion; ``c_k`` and ``c_q`` are reported next
  to the shipped ``DENSE_FILL_PARTITION_COST`` /
  ``DENSE_QUERY_CORNER_COST`` as evidence.
* **Prune safety factor.**  The small-query case measures the broadcast
  kernel (``broadcast_seconds_small``) against the pruned gather
  (``pruned_seconds_small``) whose touched-pair estimate is
  ``candidate_fraction · q · k + q · overhead``.  The ratio of measured
  per-pair costs (gathered vs contiguous) is exactly what
  ``PRUNE_SAFETY_FACTOR`` models, so the suggestion is that ratio with
  head-room.

Usage::

    PYTHONPATH=src python tools/calibrate.py [--artifact BENCH_query_engine.json]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Head-room multiplier on the measured gathered-vs-contiguous pair-cost
#: ratio (the candidate bound is an over-estimate of *work*, not of
#: *savings*, so the raw ratio is too aggressive).
PRUNE_HEADROOM = 1.5

# The cost model's per-query gather overhead.  Prefer the value the
# artifact itself recorded (so a run measured under an override is
# interpreted with that override), then the live constant; the literal
# fallback only covers running this file standalone without PYTHONPATH.
try:
    from repro.core.interval_index import PRUNE_OVERHEAD_PAIRS
except ImportError:  # pragma: no cover - standalone invocation
    PRUNE_OVERHEAD_PAIRS = 64.0

# The shipped dense-switch module constants, printed next to their fits.
try:
    from repro.core.private_matrix import (
        DENSE_FILL_PARTITION_COST,
        DENSE_QUERY_CORNER_COST,
    )
    SHIPPED = {
        "dense_fill_partition_cost": DENSE_FILL_PARTITION_COST,
        "dense_query_corner_cost": DENSE_QUERY_CORNER_COST,
    }
except ImportError:  # pragma: no cover - standalone invocation
    SHIPPED = {}

REQUIRED_DENSE_KEYS = (
    "od_shape", "od_n_partitions", "od_n_queries", "od_broadcast_seconds",
    "dense_build_seconds", "prefix_build_seconds", "prefix_query_seconds",
)
REQUIRED_PRUNE_KEYS = (
    "broadcast_seconds_small", "pruned_seconds_small",
    "small_query_candidate_fraction", "n_queries", "n_partitions",
)


def suggest(artifact: dict) -> dict:
    """Suggested EngineConfig overrides from one artifact's measurements.

    Returns a dict with any of ``dense_switch_factor`` /
    ``prune_safety_factor`` plus the intermediate evidence under
    ``evidence`` (including the fitted dense-switch module constants,
    which no config field overrides).  Series whose inputs are missing
    are skipped (the artifact may predate them).
    """
    out: dict = {"evidence": {}}
    if all(k in artifact for k in REQUIRED_DENSE_KEYS):
        shape = artifact["od_shape"]
        d = len(shape)
        cells = float(math.prod(shape))
        q = float(artifact["od_n_queries"])
        k = float(artifact["od_n_partitions"])
        seconds = {
            key: float(artifact[key]) for key in REQUIRED_DENSE_KEYS[3:]
        }
        if all(value > 0 for value in seconds.values()):
            unit = seconds["od_broadcast_seconds"] / (q * k * d)
            # Floored at one unit per cell: a build cheaper than that is
            # a timing glitch, and would densify everything.
            factor = max(
                1.0, seconds["prefix_build_seconds"] / (unit * cells)
            )
            out["dense_switch_factor"] = round(factor, 2)
            evidence = out["evidence"]
            evidence["broadcast_pair_dim_seconds"] = unit
            evidence["dense_fill_partition_cost"] = round(
                seconds["dense_build_seconds"] / (unit * factor * k), 1
            )
            evidence["dense_query_corner_cost"] = round(
                seconds["prefix_query_seconds"] / (unit * q * 2**d), 2
            )
    if all(k in artifact for k in REQUIRED_PRUNE_KEYS):
        q = float(artifact["n_queries"])
        k = float(artifact["n_partitions"])
        broadcast = float(artifact["broadcast_seconds_small"])
        pruned = float(artifact["pruned_seconds_small"])
        fraction = float(artifact["small_query_candidate_fraction"])
        overhead = float(
            artifact.get("prune_overhead_pairs", PRUNE_OVERHEAD_PAIRS)
        )
        est_pairs = fraction * q * k + q * overhead
        if broadcast > 0 and pruned > 0 and est_pairs > 0:
            contiguous_pair = broadcast / (q * k)
            gathered_pair = pruned / est_pairs
            ratio = gathered_pair / contiguous_pair
            out["prune_safety_factor"] = round(
                max(1.0, ratio * PRUNE_HEADROOM), 2
            )
            out["evidence"]["gathered_vs_contiguous_pair_ratio"] = round(
                ratio, 2
            )
    return out


def render(suggestions: dict) -> str:
    """Human-facing report: evidence, then three override spellings."""
    overrides = {
        key: value for key, value in suggestions.items() if key != "evidence"
    }
    lines = []
    for key, value in sorted(suggestions.get("evidence", {}).items()):
        shipped = f" (shipped {SHIPPED[key]:g})" if key in SHIPPED else ""
        lines.append(f"measured  {key} = {value:g}{shipped}")
    if not overrides:
        lines.append(
            "no suggestions: artifact lacks the required measurement series"
        )
        return "\n".join(lines)
    kwargs = ", ".join(f"{k}={v:g}" for k, v in sorted(overrides.items()))
    pairs = ",".join(f"{k}={v:g}" for k, v in sorted(overrides.items()))
    lines.append(f"suggested EngineConfig({kwargs})")
    lines.append(f"suggested --engine-config \"{pairs}\"")
    for key, value in sorted(overrides.items()):
        lines.append(f"suggested export REPRO_ENGINE_{key.upper()}={value:g}")
    lines.append(
        "suggestions only — nothing was applied; re-measure with "
        "benchmarks/test_micro_query_engine.py before trusting them"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_query_engine.json",
        help="measured BENCH_query_engine.json (default: repository root)",
    )
    args = parser.parse_args(argv)
    if not args.artifact.is_file():
        print(f"no artifact at {args.artifact}; run the query-engine "
              f"micro-benchmark first", file=sys.stderr)
        return 1
    try:
        artifact = json.loads(args.artifact.read_text())
    except ValueError as exc:
        print(f"unreadable artifact {args.artifact}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(artifact, dict):
        print(f"unreadable artifact {args.artifact}: expected a JSON object",
              file=sys.stderr)
        return 1
    print(render(suggest(artifact)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
