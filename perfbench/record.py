"""The run record stamped on every result, and the host-speed probe.

The probe is the fastest of several passes over a constant pure-Python
plus NumPy loop, taken before and after the measured work.  It tells a
reader whether the host drifted during a run; no metric is divided by
it.  This VM exposes no hardware counters, so instruction counts are
not available in its place.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path


def host_probe(passes: int = 7) -> float:
    """Seconds taken by the fastest pass of a fixed CPU loop."""
    import numpy as np

    data = np.arange(200_000, dtype=np.float64)[::-1].copy()
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(10):
            np.sort(data)
        best = min(best, time.perf_counter() - start)
    return best


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_record(root: Path, workload: str, seed: int, sizes: dict) -> dict:
    """Host, versions and inputs of one benchmark run: the program's own
    report host block plus what it leaves out."""
    import numpy
    import scipy

    from repro.core.runtime import host_block

    return {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        **host_block(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }
