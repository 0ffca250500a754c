"""Shard planning, per-shard RNG streams, and worker-pool fan-out.

Shard layout is part of output identity: a run is byte-reproducible for
a fixed (config, seed, shard plan), and worker counts must never leak
into results.  These kernels centralize the three pieces every engine
needs to honor that contract:

* deterministic shard plans (:func:`shard_sizes`, :func:`time_windows`);
* independent per-shard RNG streams spawned from one root seed
  (:func:`spawn_shard_streams`);
* order-preserving process-pool dispatch (:func:`pool_map`,
  :func:`pool_map_windowed`) with the worker count capped at the CPUs
  actually available (:func:`resolve_workers`), falling back to a
  serial loop where a pool could only lose.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import available_cpus

__all__ = [
    "shard_sizes",
    "time_windows",
    "spawn_shard_streams",
    "resolve_workers",
    "pool_map",
    "pool_map_windowed",
]


def shard_sizes(total: int, n_shards: int) -> List[int]:
    """Split ``total`` items into ``n_shards`` near-equal deterministic sizes.

    The first ``total % n_shards`` shards get one extra item -- the
    fixed plan the generator's slot grid is defined by.
    """
    base, rem = divmod(int(total), int(n_shards))
    return [base + (1 if i < rem else 0) for i in range(int(n_shards))]


def time_windows(end: float, n_shards: int) -> List[Tuple[float, float]]:
    """Equal-width ``[start, end)`` windows covering ``[0, end)``."""
    bounds = np.linspace(0.0, float(end), int(n_shards) + 1)
    return [(float(bounds[i]), float(bounds[i + 1])) for i in range(int(n_shards))]


def spawn_shard_streams(
    seed: int,
    n_shards: int,
    index: Optional[int] = None,
    substreams: Optional[int] = None,
):
    """Per-shard RNG seed material spawned from one root seed.

    Spawns ``SeedSequence(seed)`` into one child per shard -- streams
    are statistically independent and stable against the worker count.
    ``index=None`` returns the full list of shard sequences; an integer
    ``index`` returns that shard's sequence, or -- with ``substreams`` --
    its first ``substreams`` children (e.g. the synthesis engine's
    population/behavior/arrivals/engine quadruple).
    """
    children = np.random.SeedSequence(seed).spawn(int(n_shards))
    if index is None:
        if substreams is not None:
            raise ValueError("substreams requires an explicit shard index")
        return children
    child = children[index]
    if substreams is None:
        return child
    return child.spawn(int(substreams))


def resolve_workers(jobs: int, n_tasks: int) -> int:
    """Process count for a shard fan-out: never more than the tasks or
    the CPUs this process may actually run on (a pool on fewer cores
    than workers loses to the serial loop it replaces)."""
    return min(int(jobs), int(n_tasks), available_cpus())


def _process_pool(workers: int):
    """A ``workers``-process pool, forking where available (spawn
    re-imports numpy and every ``repro`` module the task needs in each
    worker); the platform default elsewhere.

    ``multiprocessing`` and ``concurrent.futures`` are imported here, so
    the serial path (``workers <= 1``, every single-CPU run) never loads
    them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def pool_map(fn: Callable, tasks: Sequence, workers: int) -> List:
    """Run ``fn`` over ``tasks`` preserving task order.

    Serial when ``workers <= 1`` -- identical results either way; the
    pool only changes wall-clock.
    """
    if workers <= 1:
        return [fn(task) for task in tasks]
    with _process_pool(workers) as pool:
        return list(pool.map(fn, tasks))


def pool_map_windowed(
    fn: Callable, tasks: Iterable, workers: int, consume: Callable
) -> None:
    """Bounded in-flight pool: at most ``workers + 1`` results buffered.

    Feeds each completed result to ``consume`` *in task order* -- the
    out-of-core writer's contract -- without ever submitting the whole
    task list (which would buffer every completed shard in the pool and
    defeat the RSS budget).  Serial loop when ``workers <= 1``.
    """
    if workers <= 1:
        for task in tasks:
            consume(fn(task))
        return
    with _process_pool(workers) as pool:
        task_iter = iter(tasks)
        pending = deque(
            pool.submit(fn, task)
            for task in itertools.islice(task_iter, workers + 1)
        )
        while pending:
            pending[0].result()  # wait for the oldest; a worker's error raises here
            nxt = next(task_iter, None)
            if nxt is not None:
                pending.append(pool.submit(fn, nxt))
            # No local keeps the result, so ``consume`` can release it.
            consume(pending.popleft().result())
