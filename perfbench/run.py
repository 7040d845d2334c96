"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-od --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1           # every workload, untraced

One run prints each metric with its unit, an environment stamp, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs span wrappers around every ``repro`` layer and
reports the per-layer metrics instead.  A run whose output checks fail
still prints its result (``"correct": false``) and exits with code 1.
The program is imported from ``src/`` next to this directory; without it
the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    from perfbench import paper, serving
    from perfbench.stamp import stamp

    env = stamp(ROOT, seed)
    if name == "paper-od":
        result = paper.run(name, seed, seconds, trace, log)
    else:
        result = serving.run(name, seed, seconds, trace, log)
    result["stamp"] = env
    return result


def report(result: dict, trace: bool) -> None:
    """Human-readable lines, then the one-line JSON result."""
    names = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    for name in names:
        print(f"{name:36s} {metrics[name]:14.6g} {spec.UNITS[name]}")
    for key in ("info", "stamp"):
        if key in result:
            print(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    for failure in result.get("failures", ()):
        print(f"CHECK FAILED: {failure}")
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            n: {"value": float(metrics[n]), "unit": spec.UNITS[n]} for n in names
        },
    }
    bad = [n for n, m in out["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics: {bad}")
    print(json.dumps(out), flush=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced; a summary table."""
    rows = {}
    for name in spec.WORKLOADS:
        log(f"== {name}")
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        # Code 1 with a result line is a run whose checks failed.
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            log(f"{name} exited with code {proc.returncode} and no result")
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])
    header = f"{'metric':16s}{'unit':>6s}" + "".join(f"{n:>14s}" for n in rows)
    print(header)
    for name, unit, _, _ in spec.END_TO_END:
        print(f"{name:16s}{unit:>6s}" + "".join(
            f"{r['metrics'][name]['value']:14.5g}" for r in rows.values()))
    print(f"{'correct':22s}" + "".join(f"{str(r['correct']):>14s}" for r in rows.values()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and tabulate")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
