"""The load-test client: N concurrent subscribers, measured.

Each subscriber reads the broadcast, decodes every data frame down to
its column arrays (so the measured path includes real deserialization
work, not just byte shoveling), counts delivered events, and -- when
the server interleaves STAMP probes -- records end-to-end frame latency
as ``decode-complete monotonic time - server send stamp``.  STAMP and
subscriber clocks compare cleanly because ``time.monotonic_ns`` is the
system-wide CLOCK_MONOTONIC on the platforms CI runs on and the server
is on the same host in every supported deployment of this harness.

This module is a timing entry point: it carries the scoped DET201
per-path-allow in pyproject.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .client import read_frames
from .framing import (
    FRAME_DATA,
    FRAME_END,
    FRAME_HELLO,
    FRAME_STAMP,
    HEADER_SIZE,
    decode_json,
    decode_stamp,
)
from .stream import decode_batch

__all__ = ["LoadtestConfig", "run_loadtest", "run_loadtest_sync"]


@dataclass(frozen=True)
class LoadtestConfig:
    host: str = "127.0.0.1"
    port: int = 0
    clients: int = 4
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")


async def _subscriber(config: LoadtestConfig, index: int) -> dict:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(config.host, config.port),
        timeout=config.connect_timeout,
    )
    sessions = queries = frames = bytes_received = 0
    latencies_ns: List[int] = []
    manifest: Optional[dict] = None
    summary: Optional[dict] = None
    pending_stamp: Optional[int] = None
    started_ns = time.monotonic_ns()
    try:
        async for kind, payload in read_frames(reader):
            bytes_received += HEADER_SIZE + len(payload)
            if kind == FRAME_STAMP:
                _, pending_stamp = decode_stamp(payload)
            elif kind == FRAME_DATA:
                batch = decode_batch(payload)
                sessions += batch.n_sessions
                queries += batch.n_queries
                frames += 1
                if pending_stamp is not None:
                    latencies_ns.append(time.monotonic_ns() - pending_stamp)
                    pending_stamp = None
            elif kind == FRAME_HELLO:
                manifest = decode_json(payload)
            elif kind == FRAME_END:
                summary = decode_json(payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    finished_ns = time.monotonic_ns()
    return {
        "client": index,
        "sessions": sessions,
        "queries": queries,
        "events": sessions + queries,
        "frames": frames,
        "bytes": bytes_received,
        "seconds": (finished_ns - started_ns) / 1e9,
        "started_ns": started_ns,
        "finished_ns": finished_ns,
        "latencies_ns": latencies_ns,
        "manifest": manifest,
        "summary": summary,
        "complete": summary is not None,
    }


def _percentiles_ms(latencies_ns: List[int]) -> Dict[str, float]:
    if not latencies_ns:
        return {}
    values = np.asarray(latencies_ns, dtype=np.float64) / 1e6
    return {
        "p50_ms": round(float(np.percentile(values, 50)), 3),
        "p95_ms": round(float(np.percentile(values, 95)), 3),
        "p99_ms": round(float(np.percentile(values, 99)), 3),
        "max_ms": round(float(values.max()), 3),
        "samples": int(values.size),
    }


async def run_loadtest(config: LoadtestConfig) -> dict:
    """Drive ``config.clients`` concurrent subscribers; aggregate the stats.

    Aggregate throughput counts every event delivered to every client
    over the cohort's wall-clock span (first connect to last END) --
    the "serve N clients at once" number, not a per-client mean.
    """
    results = await asyncio.gather(
        *(_subscriber(config, i) for i in range(config.clients))
    )
    span_ns = max(r["finished_ns"] for r in results) - min(
        r["started_ns"] for r in results
    )
    span_s = max(span_ns / 1e9, 1e-9)
    events_total = sum(r["events"] for r in results)
    bytes_total = sum(r["bytes"] for r in results)
    all_latencies: List[int] = []
    for r in results:
        all_latencies.extend(r.pop("latencies_ns"))
    report = {
        "clients": config.clients,
        "complete_clients": sum(1 for r in results if r["complete"]),
        "events_total": events_total,
        "frames_total": sum(r["frames"] for r in results),
        "bytes_total": bytes_total,
        "seconds": round(span_s, 4),
        "events_per_second": round(events_total / span_s, 1),
        "mib_per_second": round(bytes_total / span_s / (1024 * 1024), 2),
        "latency": _percentiles_ms(all_latencies),
        "per_client": [
            {k: v for k, v in r.items() if k not in ("manifest", "summary")}
            for r in results
        ],
        "manifest": results[0]["manifest"],
    }
    return report


def run_loadtest_sync(config: LoadtestConfig) -> dict:
    """Blocking wrapper for the CLI."""
    return asyncio.run(run_loadtest(config))
