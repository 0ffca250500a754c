"""Analysis-path throughput measurement, shared by benchmarks and smoke tests.

:func:`measure_analysis` times the performance-critical paths downstream
of synthesis -- the warm columnar ``.npz`` trace load, the rules 1-5
filter plus the analysis measures that sit on its output (record loop
vs. the streaming pass over the columnar trace as one chunk), and the
``run_all`` experiment fan-out at different worker counts -- and
returns a plain dict of timing figures.  It also asserts
that the streaming pass reproduces the record-loop Table 2 accounting
*exactly*; a benchmark that got a different answer faster would be
worthless.

The real benchmark suite (``benchmarks/bench_analysis.py``) runs it at
bench scale; the tier-1 smoke test runs the same code at tiny scale so
the measurement path is exercised on every test run.  Both emit the
same ``BENCH_analysis.json`` report shape via
:func:`repro.synthesis.bench.write_bench_report`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis import active_sessions, run_streaming
from repro.analysis.popularity import daily_region_counts
from repro.core import host_block, peak_rss_mb
from repro.filtering import apply_filters
from repro.synthesis import SynthesisConfig, TraceCache, load_or_synthesize
from repro.synthesis.cache import effective_shard_count

__all__ = ["measure_analysis"]


def measure_analysis(
    days: float = 0.5,
    mean_arrival_rate: float = 0.35,
    seed: int = 20040315,
    run_all_jobs: Sequence[int] = (1, 4),
    cache_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Time warm trace loads, the filter+analysis stage, and ``run_all``.

    Returns a report dict shaped like the substrate one: per-run entries
    under ``"runs"`` with seconds and derived speedups.  ``cache_dir``
    holds the trace cache the warm load reads; a temporary directory is
    required, so ``None`` raises.
    ``run_all_jobs`` lists the worker counts to fan the experiment
    registry out over (empty to skip that — it runs all 26 experiments
    per entry); the host core count is recorded so scaling numbers on
    small machines are interpretable.
    """
    if cache_dir is None:
        raise ValueError("measure_analysis needs a cache_dir for the warm load")
    cache_dir = Path(cache_dir)
    config = SynthesisConfig(days=days, mean_arrival_rate=mean_arrival_rate, seed=seed)
    report = {
        "scale": {"days": days, "mean_arrival_rate": mean_arrival_rate, "seed": seed},
        "host": host_block(),
        "runs": {},
    }

    def timed(label, fn, repeat=3, **extra):
        best, value = None, None
        for _ in range(repeat):
            t0 = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        report["runs"][label] = {"seconds": round(best, 4), **extra}
        return value

    # -- warm columnar .npz trace load ------------------------------------
    cache_npz = TraceCache(cache_dir / "npz")
    trace = load_or_synthesize(config, cache=cache_npz)
    columnar = timed("trace_load_npz", lambda: cache_npz.load_columnar(config))

    # -- filter + analysis stage: record loop vs. the streaming pass ------
    def loop_stage():
        filtered = apply_filters(trace.sessions)
        daily_region_counts(filtered.sessions)
        active_sessions(filtered)
        filtered.interarrival_times()
        return filtered

    filtered = timed("filter_analysis_loop", loop_stage)
    streamed = timed("filter_analysis_columnar", lambda: run_streaming([columnar]))
    _speedup(report, "filter_analysis_columnar", "filter_analysis_loop")

    # The speedup only counts if the answers agree: Table 2 must be
    # reproduced exactly by the streaming pass.
    loop_table2 = filtered.report.as_dict()
    columnar_table2 = streamed.report.as_dict()
    if loop_table2 != columnar_table2:
        raise AssertionError(
            f"streaming pass diverged from the record loop: "
            f"{loop_table2} != {columnar_table2}"
        )
    report["table2"] = dict(loop_table2)
    report["table2_identical"] = True

    # -- run_all fan-out ---------------------------------------------------
    if run_all_jobs:
        from repro.experiments import ExperimentContext, run_all
        from repro.experiments.registry import ALL_EXPERIMENTS, effective_run_jobs

        # One untimed run first: the first run_all in a process pays its
        # cold imports and caches, which a timed baseline would report
        # as a speedup of every later entry.
        run_all(ExperimentContext(config, cache=cache_npz))
        baseline = None
        for jobs in run_all_jobs:
            label = f"run_all_jobs{int(jobs)}"
            ctx = ExperimentContext(config, cache=cache_npz)

            # The effective worker count (CPU- and task-capped) is what
            # actually ran; recording it keeps "jobs=8 was no faster"
            # interpretable on a 2-core host.
            effective = effective_run_jobs(int(jobs), len(ALL_EXPERIMENTS))
            timed(label, lambda c=ctx, j=int(jobs): run_all(c, jobs=j),
                  repeat=1, jobs=int(jobs), effective_jobs=effective)
            # A speedup exists only between different worker counts: two
            # runs on the same effective workers differ by noise alone.
            if baseline is None:
                baseline = (label, effective)
            elif effective != baseline[1]:
                _speedup(report, label, baseline[0])

    # Memory joins speed in the perf trajectory: the high-water RSS over
    # all the runs above, and the shard grid the benched config implies.
    report["host"]["peak_rss_mb"] = round(peak_rss_mb(), 1)
    report["host"]["shard_count"] = effective_shard_count(config)
    return report


def _speedup(report: dict, fast_label: str, slow_label: str) -> None:
    fast = report["runs"][fast_label]["seconds"]
    slow = report["runs"][slow_label]["seconds"]
    report["runs"][fast_label][f"speedup_vs_{slow_label}"] = round(
        slow / max(fast, 1e-9), 1
    )
