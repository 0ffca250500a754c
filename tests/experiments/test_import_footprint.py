"""The Appendix fits and the correlation claim load no heavy SciPy package.

From SciPy the analysis path needs only ``scipy.special``;
``scipy.stats`` and ``scipy.optimize`` would add tens of MiB to every
``experiment all`` process.  The check runs in a fresh interpreter, so
the SciPy oracles this test session imports cannot hide a stray import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import contextlib, io, json, sys

import repro.core.fitting as fitting
from repro.cli import main

solves = []
nelder_mead = fitting._nelder_mead

def counted(*args, **kwargs):
    solves.append(1)
    return nelder_mead(*args, **kwargs)

fitting._nelder_mead = counted
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(["experiment", "TA1", "TA2", "TA3", "TA4", "TA5", "FA1", "C1",
               "--stream", "--days", "0.1", "--rate", "1.26", "--shard-hours", "6",
               "--no-cache"])
heavy = sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize")))
print(json.dumps({"rc": rc, "heavy": heavy, "solves": len(solves), "stdout": out.getvalue()}))
"""


def test_fits_and_correlations_leave_scipy_stats_and_optimize_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["heavy"] == []
    # The guard means something only if the truncated fits and the
    # Spearman correlations actually ran.
    assert result["solves"] > 0
    assert "spearman_rho" in result["stdout"]
