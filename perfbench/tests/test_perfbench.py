"""Self-test of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Each workload must emit every metric BENCHMARK.json names, with its
unit, pass its output checks on the default and a held-out seed, and
repeat its exact counts across two traced runs.  Without the program
next to it, the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from run import DEFAULT_SEEDS, EXACT_COUNTS, Failure, check_layer_times  # noqa: E402
from tracer import Tracer  # noqa: E402

HELD_OUT_SEED = 271828


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(DEFAULT_SEEDS)


@pytest.mark.parametrize("workload", list(DEFAULT_SEEDS))
def test_end_to_end_metrics_on_default_and_held_out_seed(workload):
    for seed in (DEFAULT_SEEDS[workload], HELD_OUT_SEED):
        metrics = result_of(bench(workload, seed, 0))["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == units("end_to_end")
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(DEFAULT_SEEDS))
def test_traced_runs_repeat_exact_counts(workload):
    first, second = (result_of(bench(workload, HELD_OUT_SEED, 1))["metrics"] for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == units("per_layer")
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["trace.spans"]["value"] > 0


def test_self_time_excludes_children():
    tracer = Tracer(run_id="t")
    tracer.spans = [["root", 0, 100, -1], ["a", 10, 60, 0], ["b", 20, 30, 1]]
    assert tracer.span_self_ns() == [50, 40, 10]
    assert tracer.self_times() == {"root": 50e-9, "a": 40e-9, "b": 10e-9}


def test_layer_times_must_fit_their_stage():
    result = {"command": "overlay", "launch_ns": 0,
              "marks": {"first": 1_000_000_000, "end": 3_000_000_000},
              "layer_s": {"setup": 0.4, "work": 1.9}}
    check_layer_times(result)
    for stage, seconds in (("setup", 1.2), ("work", 2.1)):
        with pytest.raises(Failure, match=stage):
            check_layer_times({**result, "layer_s": {**result["layer_s"], stage: seconds}})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("overlay-flood", 11, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
