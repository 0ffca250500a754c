"""Each CLI command loads only the modules it runs, and never SciPy.

SciPy is a test-only oracle: the normal special functions are a Cephes
port (:mod:`repro.core.special`), the Nelder-Mead solver and the
Spearman correlation are NumPy ports, and every one of them is pinned
to SciPy's output by a test.  The checks here run the CLI in fresh
interpreters whose import system refuses ``scipy``, so neither a stray
import nor the SciPy modules this test session itself loads can hide.

The same runs pin, per command, the exact set of ``repro`` modules
loaded when the command returns (:data:`ALLOWED`).  Every module a
launch loads is compiled and executed on every launch, so the set is
set-up time: a change that makes a command load a new module updates
its list here and names the module in CHANGES.md.
"""

import ast
import json
import os
import subprocess
import sys
from itertools import takewhile
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


def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)


def report(rc, out):
    print(json.dumps({
        "rc": rc, "scipy": loaded("scipy"), "repro": loaded("repro"),
        "pools": sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)),
        "stdout": out.getvalue(),
    }))
"""

CLI_RUN = PRELUDE + """
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(json.loads(sys.argv[1]))
report(rc, out)
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
report(rc, out)
"""

#: The ``repro`` modules (without the ``repro.`` prefix) each command has
#: loaded when it returns, exactly.  What the experiment commands load
#: beyond the streaming pass -- ``measurement.trace``, ``core.events``,
#: ``filtering.pipeline``, ``analysis.active`` -- is the record model,
#: reached through the result types the pass shares with it.
ALLOWED = {
    "synthesize": """
        _lazy agents agents.diurnal agents.population agents.user_model cli core
        core.distributions core.events core.kernels core.kernels.npz
        core.kernels.sampling core.kernels.segmented core.kernels.sharding
        core.kernels.setops
        core.model core.parameters core.popularity core.regions core.runtime
        core.special geoip geoip.database gnutella gnutella.clients measurement
        measurement.columnar measurement.shards measurement.trace synthesis
        synthesis.cache synthesis.columnar_engine synthesis.config synthesis.hits
        synthesis.scenarios synthesis.synthesizer
    """,
    "compare": """
        _lazy cli core core.distributions core.events core.parameters core.regions
        core.special core.validation filtering filtering.pipeline filtering.rules
        measurement measurement.trace
    """,
    "synthesize --stream": """
        _lazy agents agents.diurnal agents.population agents.user_model cli core
        core.distributions core.events core.kernels
        core.kernels.npz core.kernels.sampling core.kernels.segmented
        core.kernels.setops
        core.kernels.sharding core.model core.parameters core.popularity
        core.regions core.runtime core.special geoip geoip.database gnutella
        gnutella.clients measurement measurement.columnar
        measurement.shards measurement.trace synthesis
        synthesis.cache synthesis.columnar_engine synthesis.config synthesis.hits
        synthesis.scenarios synthesis.synthesizer
    """,
    "experiment all --stream": """
        _lazy analysis analysis.active analysis.availability analysis.caching
        analysis.common analysis.correlations analysis.geographic analysis.hits
        analysis.load analysis.passive analysis.popularity analysis.shared_files
        analysis.streaming analysis.summary cli core core.distributions core.events
        core.fitting core.generator core.generator_columnar core.kernels
        core.kernels.npz core.kernels.sampling
        core.kernels.segmented core.kernels.sharding core.model core.parameters
        core.kernels.setops
        core.popularity core.regions core.runtime core.special core.stats
        core.validation experiments experiments.base experiments.exp_active
        experiments.exp_correlations experiments.exp_fits experiments.exp_generator
        experiments.exp_geography experiments.exp_hits experiments.exp_passive
        experiments.exp_popularity experiments.exp_systems experiments.exp_tables
        experiments.exp_transfers experiments.registry filtering filtering.columnar
        filtering.pipeline filtering.rules filtering.streaming measurement
        measurement.columnar measurement.shards measurement.trace synthesis
        synthesis.cache synthesis.config synthesis.scenarios transfers
        transfers.analysis transfers.bandwidth transfers.downloads
    """,
    "figures --stream": """
        _lazy analysis analysis.active analysis.availability analysis.common
        analysis.correlations analysis.geographic analysis.load analysis.passive
        analysis.popularity analysis.shared_files analysis.streaming cli core
        core.distributions core.events core.fitting core.kernels
        core.kernels.npz core.kernels.sampling core.kernels.segmented
        core.kernels.setops
        core.kernels.sharding core.parameters core.popularity core.regions
        core.runtime core.special core.stats experiments experiments.base filtering
        filtering.columnar filtering.pipeline filtering.rules filtering.streaming
        measurement measurement.columnar measurement.shards measurement.trace
        synthesis synthesis.cache synthesis.config synthesis.scenarios viz viz.axes
        viz.figures viz.plot viz.svg
    """,
    "generate": """
        _lazy cli core core.distributions core.events core.generator
        core.generator_columnar core.kernels
        core.kernels.sampling core.kernels.segmented core.kernels.sharding
        core.model core.parameters core.popularity core.regions core.runtime
        core.special core.workload_io
    """,
    "overlay": """
        _lazy cli core core.distributions core.events core.generator
        core.generator_columnar core.kernels
        core.kernels.sampling core.kernels.segmented core.kernels.setops
        core.kernels.sharding core.model core.parameters core.popularity
        core.regions core.runtime core.special gnutella
        gnutella.columnar_overlay gnutella.overlay_bench gnutella.qrp
        gnutella.topology
    """,
    "serve + loadtest": """
        _lazy cli core core.distributions core.events core.generator_columnar
        core.kernels core.kernels.sampling
        core.kernels.segmented core.kernels.sharding core.model core.parameters
        core.popularity core.regions core.runtime core.special
        service service.client service.framing service.loadtest service.rate
        service.server service.stream
    """,
}


def check_footprint(command, result):
    """The run loaded exactly the allowed ``repro`` modules."""
    allowed = {"repro"} | {f"repro.{name}" for name in ALLOWED[command].split()}
    loaded = set(result["repro"])
    assert loaded == allowed, (
        f"{command}: loads {sorted(loaded - allowed)} beyond its allowlist and no "
        f"longer loads {sorted(allowed - loaded)}; a new module goes on the list "
        f"and into CHANGES.md"
    )


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
    return result


def run_cli(*args, allowlist=None):
    """One command in a fresh refusing interpreter, checked against its
    allowlist; a serial command never loads a process pool either."""
    result = run_refusing_scipy(CLI_RUN, json.dumps(list(args)))
    # By default the command words and --stream name the allowlist.
    command = takewhile(lambda a: a == "--stream" or not a.startswith("--"), args)
    check_footprint(allowlist or " ".join(command), result)
    assert result["pools"] == []
    return result["stdout"]


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


def test_archived_trace_compare_runs_without_scipy(tmp_path):
    # JSON lines stay the interchange format: synthesize --out writes
    # one, and compare (its one reader) runs on it without SciPy.
    archive = str(tmp_path / "a.jsonl")
    out = run_cli("synthesize", "--days", "0.05", "--rate", "1.26", "--no-cache",
                  "--out", archive)
    assert "trace written" in out
    out = run_cli("compare", archive, archive, allowlist="compare")
    assert "3/3 measures within tolerance" in out


@pytest.mark.parametrize("args", [
    ("generate", "--peers", "50", "--hours", "1"),
    ("overlay", "--peers", "100", "--hours", "0.25"),
])
def test_generator_and_overlay_run_without_scipy(args):
    assert run_cli(*args)


def test_serve_and_loadtest_run_without_scipy():
    result = run_refusing_scipy(SERVE_RUN)
    assert "broadcast complete" in result["stdout"] and "1 client(s)" in result["stdout"]
    check_footprint("serve + loadtest", result)
    # asyncio loads concurrent.futures; no process pool is ever built.
    assert "multiprocessing" not in result["pools"]


IMPORT_RUN = """
import json, sys

{statement}

print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("repro", "multiprocessing", "concurrent"))))
"""


def loaded_by(statement):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_RUN.format(statement=statement)],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_repro_loads_no_subpackage():
    assert loaded_by("import repro") == ["repro", "repro._lazy"]


def test_kernels_load_no_pool():
    assert loaded_by("import repro.core.kernels") == [
        "repro", "repro._lazy", "repro.core", "repro.core.kernels",
    ]
    # Every kernel module, sharding's pool_map among them: the pool
    # modules load only when a pool is built (workers > 1).
    loaded = loaded_by("from repro.core.kernels import *")
    assert "repro.core.kernels.sharding" in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("multiprocessing", "concurrent")]


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
