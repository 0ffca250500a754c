"""Loadtest client against an in-process server."""

import asyncio

import pytest

from repro.service.loadtest import LoadtestConfig, run_loadtest
from repro.service.server import ServerConfig, WorkloadStreamServer
from repro.service.stream import StreamConfig

STREAM = StreamConfig(
    n_peers=80, seed=21, window_seconds=600.0, batch_sessions=32, n_frames=8
)


def run_cohort(stream, clients, *, stamps=False):
    async def scenario():
        server = WorkloadStreamServer(
            stream, ServerConfig(start_clients=clients, stamps=stamps)
        )
        await server.start()
        serving = asyncio.create_task(server.serve())
        report = await run_loadtest(
            LoadtestConfig(port=server.port, clients=clients)
        )
        stats = await asyncio.wait_for(serving, 30.0)
        return report, stats

    return asyncio.run(scenario())


class TestLoadtest:
    def test_counts_match_the_server(self):
        report, stats = run_cohort(STREAM, clients=3)
        assert report["complete_clients"] == 3
        assert report["frames_total"] == 3 * STREAM.n_frames
        assert report["events_total"] == 3 * stats.events_produced
        # Every client saw the full byte stream, headers included.
        assert report["bytes_total"] == 3 * stats.bytes_produced
        assert report["events_per_second"] > 0
        assert report["manifest"] == STREAM.manifest()

    def test_per_client_results_agree(self):
        report, _ = run_cohort(STREAM, clients=2)
        a, b = report["per_client"]
        for key in ("sessions", "queries", "events", "frames", "bytes"):
            assert a[key] == b[key]
        assert a["complete"] and b["complete"]
        # manifest/summary are reported once at top level, not per client.
        assert "summary" not in a
        assert "manifest" not in a

    def test_latency_percentiles_with_stamps(self):
        report, _ = run_cohort(STREAM, clients=2, stamps=True)
        latency = report["latency"]
        assert latency["samples"] == 2 * STREAM.n_frames
        assert 0 <= latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert latency["p99_ms"] <= latency["max_ms"]

    def test_no_stamps_no_latency_block(self):
        report, _ = run_cohort(STREAM, clients=1)
        assert report["latency"] == {}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LoadtestConfig(clients=0)
