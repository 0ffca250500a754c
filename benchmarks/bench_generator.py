"""Benchmark G1: Figure 12 generator: closed-loop validation of the synthetic workload.

Regenerates the paper artifact from the shared bench-scale synthesized
trace and prints paper-vs-measured rows; the timed section is the
analysis that produces the artifact (synthesis is shared and untimed).
"""

from repro.experiments.exp_generator import run_generator_validation

from conftest import run_and_render


def test_generator(ctx, benchmark):
    result = run_and_render(benchmark, run_generator_validation, ctx)
    assert result.rows
