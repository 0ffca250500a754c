"""Shared benchmark fixtures.

One bench-scale trace is synthesized per session and shared by every
per-figure benchmark; each benchmark times the analysis step that
regenerates its table/figure and prints the paper-vs-measured rows.
"""

from __future__ import annotations

import pytest

from repro.core import host_block
from repro.experiments import ExperimentContext
from repro.synthesis import SynthesisConfig


def pytest_report_header(config):
    """Stamp the same host block the JSON bench reports carry."""
    block = host_block()
    return "bench host: " + ", ".join(f"{k}={v}" for k, v in block.items())

#: Bench scale: 2 days at 0.35 conn/s gives ~60k connections -- large
#: enough for stable distributions, synthesized once in ~20 s.
BENCH_CONFIG = SynthesisConfig(days=2.0, mean_arrival_rate=0.35, seed=20040315)


@pytest.fixture(scope="session")
def ctx():
    context = ExperimentContext(BENCH_CONFIG)
    # Materialize the shared trace and its streaming pass, the X1-X4
    # query columns included, outside any timer.
    context._plan(True)
    context.streaming
    return context


def run_and_render(benchmark, runner, context):
    """Time one full regeneration of the artifact and print its rows."""
    result = benchmark.pedantic(runner, args=(context,), rounds=1, iterations=1)
    print()
    print(result.render())
    return result
