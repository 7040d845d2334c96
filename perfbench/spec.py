"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one list of workloads,
metrics, units and bounds; this module only reads it.  The timings'
bound is the widest the format allows: on the 2-vCPU VM the benchmark
was built on, identical passes of one run differ by 10-20 % and the
machine's speed drifts by more than that over tens of minutes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

DESCRIPTOR = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_doc = json.loads(DESCRIPTOR.read_text())

#: Seconds one run measures (run.py's default ``--seconds``).
RUN_SECONDS: int = _doc["run_seconds"]

#: Workload name -> why it exists.
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in _doc["workloads"]}

#: (name, unit, better, bound): what a user of the system sees.
END_TO_END: List[Tuple[str, str, str, float]] = [
    (m["name"], m["unit"], m["better"], m["bound"]) for m in _doc["end_to_end"]
]

#: (name, unit, better): single layers, reported by a traced run.
PER_LAYER: List[Tuple[str, str, str]] = [
    (m["name"], m["unit"], m["better"]) for m in _doc["per_layer"]
]

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def _suffixes(prefix: str) -> Tuple[str, ...]:
    return tuple(n[len(prefix):] for n, _, _ in PER_LAYER if n.startswith(prefix))


#: Methods whose sanitize time and partition count are reported.
METHODS = _suffixes("methods.partitions.")

#: Engine plans counted per workload.
PLANS = _suffixes("engine.plans.")
