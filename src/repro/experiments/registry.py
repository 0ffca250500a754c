"""Registry of all experiments, keyed by the DESIGN.md experiment ids.

``run_many``/``run_all`` can fan experiments out across a process pool
(``jobs``): the trace is synthesized or loaded **once** in the parent,
shared with the workers through a content-addressed cache file (the
fast columnar ``.npz`` format, so each worker's warm load is array
reads, not JSON parsing), and the result list always comes back in
registry order regardless of worker scheduling.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import available_cpus
from repro.synthesis import SynthesisConfig, TraceCache

from .base import ExperimentContext, ExperimentResult
from .exp_active import run_fig6, run_fig7, run_fig8, run_fig9
from .exp_correlations import run_correlations
from .exp_fits import (
    run_figA1,
    run_tableA1,
    run_tableA2,
    run_tableA3,
    run_tableA4,
    run_tableA5,
)
from .exp_generator import run_generator_validation
from .exp_geography import run_fig1, run_fig2, run_fig3
from .exp_hits import run_hit_rate
from .exp_passive import run_fig4, run_fig5
from .exp_popularity import run_fig10, run_fig11
from .exp_systems import run_availability, run_caching
from .exp_tables import run_table1, run_table2, run_table3
from .exp_transfers import run_downloads

__all__ = [
    "ALL_EXPERIMENTS",
    "effective_run_jobs",
    "run_all",
    "run_experiment",
    "run_many",
]

ALL_EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "T1": run_table1,
    "T2": run_table2,
    "T3": run_table3,
    "F1": run_fig1,
    "F2": run_fig2,
    "F3": run_fig3,
    "F4": run_fig4,
    "F5": run_fig5,
    "F6": run_fig6,
    "F7": run_fig7,
    "F8": run_fig8,
    "F9": run_fig9,
    "F10": run_fig10,
    "F11": run_fig11,
    "TA1": run_tableA1,
    "TA2": run_tableA2,
    "TA3": run_tableA3,
    "TA4": run_tableA4,
    "TA5": run_tableA5,
    "FA1": run_figA1,
    "G1": run_generator_validation,
    "X1": run_hit_rate,
    "X2": run_downloads,
    "X3": run_caching,
    "X4": run_availability,
    "C1": run_correlations,
}


def run_experiment(experiment_id: str, ctx: ExperimentContext) -> ExperimentResult:
    """Run one experiment by id against a shared context."""
    try:
        runner = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(ALL_EXPERIMENTS)}"
        ) from None
    return runner(ctx)


def effective_run_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Worker count a ``jobs=``-parameterized fan-out will actually use.

    Requested workers are capped at the task count and at the CPUs this
    process may run on -- oversubscribing a small host with fork+import
    overhead per worker is strictly slower than running in process.  A
    result of 1 means "stay sequential".
    """
    if jobs is None:
        return 1
    return max(1, min(int(jobs), n_tasks, available_cpus()))


def run_many(
    ids: Sequence[str],
    ctx: ExperimentContext,
    jobs: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run the given experiments against one shared trace.

    Every experiment reads the context's one streaming pass
    (:attr:`ExperimentContext.streaming`), which runs on first use.
    ``jobs`` > 1 fans the experiments out across a process pool.  The
    parent synthesizes (or cache-loads) the trace exactly once and
    publishes it as a cache entry; each worker runs the streaming pass
    over it once and reuses it for every experiment the pool hands that
    worker.  Results come back in ``ids``
    order either way.  The effective worker count is
    :func:`effective_run_jobs` -- a request for more workers than CPUs
    (or tasks) falls back to what the host can actually parallelize,
    including fully sequential on a single-CPU host.
    """
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; known: {sorted(ALL_EXPERIMENTS)}"
        )
    workers = effective_run_jobs(jobs, len(ids))
    if workers <= 1:
        return [run_experiment(experiment_id, ctx) for experiment_id in ids]
    return _run_parallel(list(ids), ctx, workers)


def run_all(
    ctx: ExperimentContext, jobs: Optional[int] = None
) -> List[ExperimentResult]:
    """Run every experiment against one shared trace (see :func:`run_many`)."""
    return run_many(list(ALL_EXPERIMENTS), ctx, jobs=jobs)


#: Per-worker-process context, built once by :func:`_init_worker`; the
#: trace comes out of the shared cache entry, and the lazily run
#: streaming pass is reused by every experiment the pool hands this
#: process.
_WORKER_CTX: Optional[ExperimentContext] = None


def _init_worker(config: SynthesisConfig, cache_root: str, stream: bool = False) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ExperimentContext(config, cache=TraceCache(cache_root), stream=stream)


def _run_one(experiment_id: str) -> ExperimentResult:
    assert _WORKER_CTX is not None, "worker used before initialization"
    return run_experiment(experiment_id, _WORKER_CTX)


def _run_parallel(
    ids: List[str], ctx: ExperimentContext, jobs: int
) -> List[ExperimentResult]:
    cache = ctx.cache
    tmpdir: Optional[str] = None
    if cache is None:
        # Hermetic contexts get a private throwaway cache directory: the
        # workers still share one trace file, and nothing leaks into the
        # user-visible cache.
        tmpdir = tempfile.mkdtemp(prefix="repro-p2p-run-many-")
        cache = TraceCache(tmpdir)
    try:
        if ctx.stream:
            # Sharded store: workers re-open the shard directory with
            # memory-mapped loads; no full trace is ever resident.
            if cache.load_sharded(ctx.config) is None:
                cache.adopt_sharded(ctx.config, ctx.shards)
        elif not cache.contains(ctx.config):
            # Columnar store: the fast-path arrays go straight to .npz
            # without materializing per-record objects in the parent.
            cache.store_columnar(ctx.config, ctx.columnar)
        # One task per experiment (dynamic balancing: a heavy experiment
        # never gates a whole pre-assigned chunk); map() returns results
        # in submission order, so ordering is deterministic by design.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(ctx.config, str(cache.root), ctx.stream),
        ) as pool:
            return list(pool.map(_run_one, ids))
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
