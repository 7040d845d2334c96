"""The serving workloads' server process.

    python3 -m perfbench.server --matrix released.npz --report out.json [--trace]

Loads a released partitioning (``lo``/``hi``/``noisy_counts``/``shape``
arrays), serves it through the public :class:`~repro.engine.Engine` and
:class:`~repro.engine.EngineServer` with the ``repro serve`` defaults
(auto plan, off-loop kernels), prints ``serving on <url>`` once ready,
and on SIGTERM (or EOF on stdin) drains and writes ``--report``: the
final ``/statz`` payload, the process's peak RSS and, with ``--trace``,
every span.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def load_engine(path: str):
    import numpy as np
    from repro.core.packed import PackedPartitioning
    from repro.core.private_matrix import PrivateFrequencyMatrix
    from repro.engine import Engine, EngineConfig

    with np.load(path) as z:
        packed = PackedPartitioning(z["lo"], z["hi"], z["noisy_counts"],
                                    tuple(int(s) for s in z["shape"]))
        private = PrivateFrequencyMatrix.from_packed(
            packed, epsilon=float(z["epsilon"]), method=str(z["method"])
        )
    # Not EngineConfig.from_env(): the benchmark serves the defaults.
    return Engine(private, EngineConfig())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--matrix", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.engine.server import EngineServer

    from perfbench.trace import Tracer, install_layers

    tracer = install_layers(Tracer()) if args.trace else None
    # The `repro serve --port` defaults (see repro.cli._run_server).
    server = EngineServer(
        load_engine(args.matrix), host="127.0.0.1", port=0, off_loop=True,
        max_pending_requests=1024, max_batch_queries=100_000,
        request_timeout=30.0,
    )

    async def serve() -> dict:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        # The benchmark holds the other end of stdin: EOF means it died
        # without stopping us, so stop anyway.
        loop.add_reader(sys.stdin.fileno(), stop.set)
        await server.start()
        print(f"serving on {server.url}", flush=True)
        try:
            await stop.wait()
        finally:
            loop.remove_reader(sys.stdin.fileno())
            await server.shutdown()
        return server.statz()

    statz = asyncio.run(serve())
    report = {
        "statz": statz,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        snap = tracer.take()
        report["spans"] = [[s.id, s.parent, s.name, s.start, s.end]
                           for s in snap.spans]
        report["notes"] = {str(k): v for k, v in snap.notes.items()}
        report["counts"] = dict(snap.counts)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
