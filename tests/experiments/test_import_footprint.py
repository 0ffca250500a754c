"""No run-time path imports SciPy.

SciPy is a test-only oracle: the normal special functions are a Cephes
port (:mod:`repro.core.special`), the Nelder-Mead solver and the
Spearman correlation are NumPy ports, and every one of them is pinned
to SciPy's output by a test.  The checks here run the CLI in fresh
interpreters whose import system refuses ``scipy``, so neither a stray
import nor the SciPy modules this test session itself loads can hide.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: Refuses every ``scipy`` import and imports the CLI's ``main``; each run
#: script below appends what it runs.
PRELUDE = """
import contextlib, io, json, sys


class RefuseSciPy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} refused: SciPy is a test-only oracle")
        return None


sys.meta_path.insert(0, RefuseSciPy())
from repro.cli import main


def loaded_scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

CLI_RUN = PRELUDE + """
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "scipy": loaded_scipy(), "stdout": out.getvalue()}))
"""

#: ``serve`` on an ephemeral port in a thread, the ``loadtest`` client in
#: the main thread, both in the refusing interpreter.
SERVE_RUN = PRELUDE + """
import re, threading, time

out = io.StringIO()
codes = {}
serve_args = ["serve", "--peers", "60", "--window-seconds", "600",
              "--batch-sessions", "32", "--frames", "4"]
with contextlib.redirect_stdout(out):
    server = threading.Thread(target=lambda: codes.update(serve=main(serve_args)))
    server.start()
    for _ in range(600):
        match = re.search(r"on 127\\.0\\.0\\.1:(\\d+)", out.getvalue())
        if match:
            break
        time.sleep(0.05)
    codes["loadtest"] = main(["loadtest", "--port", match.group(1), "--clients", "1"])
    server.join(timeout=60)
rc = 0 if codes == {"serve": 0, "loadtest": 0} else 1
print(json.dumps({"rc": rc, "scipy": loaded_scipy(), "stdout": out.getvalue()}))
"""


def run_refusing_scipy(script, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["scipy"] == []
    assert result["rc"] == 0, result["stdout"]
    return result["stdout"]


def run_cli(*args):
    return run_refusing_scipy(CLI_RUN, json.dumps(list(args)))


TINY = ("--days", "0.05", "--rate", "1.26", "--shard-hours", "0.6")


def test_no_module_under_src_imports_scipy():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


def test_streamed_synthesis_experiments_and_figures_run_without_scipy(tmp_path):
    cache = ("--cache-dir", str(tmp_path / "cache"))
    out = run_cli("synthesize", "--stream", *TINY, *cache)
    assert "shard(s)" in out
    out = run_cli("experiment", "all", "--stream", *TINY, *cache)
    # The truncated fits (ndtr) and the lognormal CDFs (erf) ran.
    assert "TA1" in out and "FA1" in out
    run_cli("figures", "--stream", *TINY, *cache, "--outdir", str(tmp_path / "figs"))
    assert sorted((tmp_path / "figs").glob("*.svg"))


@pytest.mark.parametrize("args", [
    ("generate", "--peers", "50", "--hours", "1"),
    ("overlay", "--peers", "100", "--hours", "0.25"),
])
def test_generator_and_overlay_run_without_scipy(args):
    assert run_cli(*args)


def test_serve_and_loadtest_run_without_scipy():
    out = run_refusing_scipy(SERVE_RUN)
    assert "broadcast complete" in out and "1 client(s)" in out


SOLVER_RUN = """
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
heavy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"rc": rc, "heavy": heavy, "solves": len(solves), "stdout": out.getvalue()}))
"""


def test_fits_and_correlations_leave_scipy_stats_and_optimize_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SOLVER_RUN],
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
