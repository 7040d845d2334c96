"""The environment a result was measured in, stamped onto every result."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def _git(root: Path, *args: str) -> str:
    # The ceiling keeps git from reading a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def stamp(root: Path, seed: int) -> dict:
    """Git sha and dirty flag, interpreter, numpy, BLAS, usable cores,
    load average at start and the workload seed, plus a short hash of
    everything but the seed (equal hashes = comparable environments)."""
    import numpy as np

    sha = _git(root, "rev-parse", "HEAD")
    env = {
        # Outside a git checkout (an exported copy) sha reads "none".
        "git_sha": sha or "none",
        "git_dirty": bool(_git(root, "status", "--porcelain")) if sha else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    env["env_hash"] = hashlib.sha256(
        json.dumps(env, sort_keys=True).encode()
    ).hexdigest()[:12]
    env["loadavg_1m"] = os.getloadavg()[0]
    env["seed"] = int(seed)
    env["argv"] = sys.argv[1:]
    return env
