"""Record the reference MRE tables the paper workload is checked against.

    python3 -m perfbench.record --workload paper-od --seeds 1-10

Runs one grid pass per seed and stores its MRE table in
``perfbench/reference/<workload>.json``.  Record on the commit whose
results are the reference, and only when a change is meant to alter them.
"""

from __future__ import annotations

import argparse
import sys

from perfbench import run as entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["paper-od"])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = parser.parse_args(argv)
    entry.import_program()
    from perfbench import paper

    first, _, last = args.seeds.partition("-")
    wl = paper.workloads()[args.workload]
    for seed in range(int(first), int(last or first) + 1):
        rows, _ = paper.run_pass(wl, paper.setup(wl, seed))
        table = paper.mre_table(rows)
        paper.record_reference(args.workload, seed, table)
        entry.log(f"{args.workload} seed {seed}: {len(table)} rows recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
