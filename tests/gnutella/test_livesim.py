"""Tests for the measurement-in-the-overlay validation run."""

import pytest

from gnutella_reference.livesim import MONITOR_ID, LiveOverlayMeasurement


@pytest.fixture(scope="module")
def run():
    sim = LiveOverlayMeasurement(seed=77)
    sessions = sim.run(duration_seconds=1800.0, mean_arrival_gap=20.0)
    return sim, sessions


class TestLiveMeasurement:
    def test_peers_connected_and_recorded(self, run):
        sim, sessions = run
        assert sim.stats.peers_connected > 10
        assert len(sessions) == sim.stats.peers_connected

    def test_every_stream_query_observed_at_hop1(self, run):
        """The paper's attribution claim: a directly connected peer's
        queries all reach the monitor with hop count exactly 1."""
        sim, _ = run
        assert sim.stats.stream_queries_sent > 0
        assert sim.stats.hop1_queries_observed == sim.stats.stream_queries_sent

    def test_relayed_queries_have_higher_hops(self, run):
        sim, _ = run
        for hops, count in sim.stats.hop_histogram.items():
            assert hops >= 1
        assert sim.stats.hop_histogram.get(1, 0) == sim.stats.hop1_queries_observed

    def test_sessions_match_monitor_semantics(self, run):
        sim, sessions = run
        for session in sessions:
            assert session.duration > 0
            times = [q.timestamp for q in session.queries]
            assert times == sorted(times)
            for t in times:
                assert session.start <= t <= session.end

    def test_monitor_is_overlay_node(self, run):
        sim, _ = run
        node = sim.overlay.nodes[MONITOR_ID]
        assert node.is_ultrapeer
        assert node.neighbours  # still connected to the backbone

    def test_departed_peers_removed(self, run):
        sim, _ = run
        # After the run, only backbone + monitor (and possibly a few
        # still-connected churn peers closed by finalize) remain wired.
        for node_id, node in sim.overlay.nodes.items():
            for neighbour in node.neighbours:
                assert neighbour in sim.overlay.nodes or neighbour == MONITOR_ID

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            LiveOverlayMeasurement(seed=1).run(0.0)
