"""Service throughput/latency measurement behind ``BENCH_service.json``.

The evaluation idiom the related measurement literature uses for
long-running collectors, applied to this repo's own service:

* **strong scaling** -- one fixed stream, a growing subscriber cohort:
  aggregate delivered events/s and end-to-end latency percentiles vs
  client count (fan-out cost at fixed offered load);
* **weak scaling** -- offered load grows with the server's generator
  worker count (peers scale with workers): sustained events/s vs
  workers (does more hardware buy a proportionally heavier stream);
* **reproducibility** -- the deterministic frame concatenation received
  by a subscriber must be byte-identical across runs and across worker
  counts, the service-layer restatement of the PR 5 jobs-invariance
  contract.

Server and subscribers share one event loop and one process here: the
numbers are a local fan-out measurement (loopback TCP, real framing,
real decode), directly comparable across commits like the other five
BENCH files.  This module is a timing entry point (DET201
per-path-allow in pyproject).
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

from repro.core.runtime import available_cpus, host_block, peak_rss_mb

from .client import collect_stream
from .framing import FRAME_STAMP
from .loadtest import LoadtestConfig, run_loadtest
from .server import ServerConfig, WorkloadStreamServer
from .stream import StreamConfig

__all__ = ["measure_service", "run_cohort", "stream_bytes"]


async def _serve_and_run(server: WorkloadStreamServer, coro):
    """Run one broadcast concurrently with its subscriber cohort."""
    await server.start()
    assert server.port is not None
    serve_task = asyncio.ensure_future(server.serve())
    try:
        result = await coro(server.port)
    finally:
        await serve_task
    return result, server.stats


def run_cohort(
    stream: StreamConfig,
    clients: int,
    rate_events_per_s: Optional[float] = None,
    buffer_frames: int = 32,
    stamps: bool = True,
) -> dict:
    """One broadcast to ``clients`` subscribers; the loadtest report."""

    async def _run() -> dict:
        server = WorkloadStreamServer(
            stream,
            ServerConfig(
                start_clients=clients,
                buffer_frames=buffer_frames,
                rate_events_per_s=rate_events_per_s,
                stamps=stamps,
            ),
        )

        async def _cohort(port: int) -> dict:
            return await run_loadtest(
                LoadtestConfig(host="127.0.0.1", port=port, clients=clients)
            )

        report, stats = await _serve_and_run(server, _cohort)
        report["server"] = stats.snapshot()
        return report

    return asyncio.run(_run())


def stream_bytes(stream: StreamConfig, buffer_frames: int = 32) -> bytes:
    """The deterministic frame concatenation one subscriber receives."""

    async def _run() -> bytes:
        server = WorkloadStreamServer(
            stream, ServerConfig(start_clients=1, buffer_frames=buffer_frames)
        )

        async def _one(port: int):
            return await collect_stream("127.0.0.1", port)

        receipt, _ = await _serve_and_run(server, _one)
        return receipt.deterministic_bytes(exclude_kinds=(FRAME_STAMP,))

    return asyncio.run(_run())


def measure_service(
    clients: Sequence[int] = (1, 2, 4, 8),
    workers: Sequence[int] = (1, 2),
    n_peers: int = 2000,
    window_seconds: float = 900.0,
    batch_sessions: int = 2048,
    n_frames: int = 48,
    seed: int = 404,
    repro_frames: int = 8,
) -> dict:
    """The full service measurement: scaling curves + contracts.

    Returns a report dict in the shared BENCH schema: a ``host`` block
    (host and lint ruleset stamped by
    :func:`~repro.core.runtime.host_block`), ``strong_scaling`` /
    ``weak_scaling`` curves, the reproducibility flags, and the
    headline ``sustained`` entry (the best aggregate throughput at the
    largest cohort).
    """
    stream = StreamConfig(
        n_peers=n_peers,
        seed=seed,
        window_seconds=window_seconds,
        batch_sessions=batch_sessions,
        n_frames=n_frames,
    )
    report: dict = {
        "scale": {
            "n_peers": n_peers,
            "window_seconds": window_seconds,
            "batch_sessions": batch_sessions,
            "n_frames": n_frames,
            "seed": seed,
            "clients": list(clients),
            "workers": list(workers),
            "effective_workers": [min(w, available_cpus()) for w in workers],
        },
        "host": host_block(),
        "strong_scaling": {},
        "weak_scaling": {},
    }

    # Strong scaling: fixed offered load, growing cohort.
    for n_clients in clients:
        run = run_cohort(stream, n_clients)
        report["strong_scaling"][f"clients_{n_clients}"] = {
            "clients": n_clients,
            "events_total": run["events_total"],
            "seconds": run["seconds"],
            "events_per_second": run["events_per_second"],
            "mib_per_second": run["mib_per_second"],
            "latency": run["latency"],
            "complete_clients": run["complete_clients"],
            "backpressure_waits": run["server"]["backpressure_waits"],
        }

    # Weak scaling: offered load grows with the generator worker pool.
    for n_workers in workers:
        weak_stream = StreamConfig(
            n_peers=n_peers * n_workers,
            seed=seed,
            window_seconds=window_seconds,
            batch_sessions=batch_sessions,
            n_frames=n_frames,
            jobs=n_workers,
        )
        run = run_cohort(weak_stream, clients=4)
        report["weak_scaling"][f"workers_{n_workers}"] = {
            "workers": n_workers,
            "n_peers": n_peers * n_workers,
            "events_total": run["events_total"],
            "seconds": run["seconds"],
            "events_per_second": run["events_per_second"],
            "mib_per_second": run["mib_per_second"],
            "latency": run["latency"],
        }

    # Reproducibility: byte-identical stream across runs and workers.
    repro_stream = StreamConfig(
        n_peers=n_peers,
        seed=seed,
        window_seconds=window_seconds,
        batch_sessions=batch_sessions,
        n_frames=repro_frames,
    )
    first = stream_bytes(repro_stream)
    report["stream_bytes"] = len(first)
    report["rerun_identical"] = stream_bytes(repro_stream) == first
    pooled = StreamConfig(
        n_peers=n_peers,
        seed=seed,
        window_seconds=window_seconds,
        batch_sessions=batch_sessions,
        n_frames=repro_frames,
        jobs=2,
    )
    report["workers_identical"] = stream_bytes(pooled) == first

    largest = max(clients)
    headline = report["strong_scaling"][f"clients_{largest}"]
    report["sustained"] = {
        "clients": largest,
        "events_per_second": headline["events_per_second"],
        "latency": headline["latency"],
    }
    report["host"]["peak_rss_mb"] = round(peak_rss_mb(), 1)
    return report
