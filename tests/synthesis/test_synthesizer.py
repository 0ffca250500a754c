"""Tests for the trace synthesizer."""

import numpy as np
import pytest

from repro.core.regions import Region
from repro.synthesis import BACKGROUND_RATIOS, SynthesisConfig, TraceSynthesizer, synthesize_trace


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthesisConfig(days=0.0)
        with pytest.raises(ValueError):
            SynthesisConfig(mean_arrival_rate=-1.0)
        with pytest.raises(ValueError):
            SynthesisConfig(bye_prob=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quick_query_prob", -0.2),
            ("quick_query_prob", 1.5),
            ("background_samples_per_hour", -5),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthesisConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quick_query_prob", 0.0),
            ("quick_query_prob", 1.0),
            ("background_samples_per_hour", 0),
        ],
    )
    def test_range_boundaries_accepted(self, field, value):
        assert getattr(SynthesisConfig(**{field: value}), field) == value


class TestTraceShape:
    def test_sessions_within_window(self, small_trace):
        for s in small_trace.sessions:
            assert 0.0 <= s.start < small_trace.end_time
            assert s.end <= small_trace.end_time + 31.0  # idle overshoot at edge

    def test_unique_peer_ips(self, small_trace):
        ips = [s.peer_ip for s in small_trace.sessions]
        assert len(set(ips)) == len(ips)

    def test_quick_disconnect_band(self, small_trace):
        durations = np.array([s.duration for s in small_trace.sessions])
        frac = (durations < 64.0).mean()
        assert frac == pytest.approx(0.70, abs=0.05)

    def test_quick_disconnect_profile(self, small_trace):
        """Section 3.3: 29% of connections end <10 s, another 32% in 10-35 s."""
        durations = np.array([s.duration for s in small_trace.sessions])
        assert (durations < 10.0).mean() == pytest.approx(0.29, abs=0.05)
        assert ((durations >= 10.0) & (durations < 35.0)).mean() == pytest.approx(0.32, abs=0.06)

    def test_counters_present(self, small_trace):
        for key in ("query_messages", "ping_messages", "pong_messages",
                    "queryhit_messages", "direct_connections", "hop1_query_messages"):
            assert key in small_trace.counters

    def test_background_ratios_applied(self, small_trace):
        counters = small_trace.counters
        hop1 = counters["hop1_query_messages"]
        relayed = counters["query_messages"] - hop1
        assert relayed / hop1 == pytest.approx(
            BACKGROUND_RATIOS["relayed_queries_per_hop1"], rel=0.01
        )

    def test_pong_samples_cover_all_hours(self, small_trace):
        hours = {int(p.timestamp // 3600) % 24 for p in small_trace.pongs}
        assert len(hours) == 24

    def test_ultrapeer_mix(self, small_trace):
        frac = np.mean([s.ultrapeer for s in small_trace.sessions])
        assert frac == pytest.approx(0.40, abs=0.05)  # Section 3.1

    def test_queries_sorted_within_sessions(self, small_trace):
        for s in small_trace.sessions:
            times = [q.timestamp for q in s.queries]
            assert times == sorted(times)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = synthesize_trace(days=0.05, mean_arrival_rate=0.2, seed=99)
        b = synthesize_trace(days=0.05, mean_arrival_rate=0.2, seed=99)
        assert a.n_connections == b.n_connections
        assert a.hop1_query_count() == b.hop1_query_count()
        assert [s.peer_ip for s in a.sessions] == [s.peer_ip for s in b.sessions]

    def test_different_seed_differs(self):
        a = synthesize_trace(days=0.05, mean_arrival_rate=0.2, seed=1)
        b = synthesize_trace(days=0.05, mean_arrival_rate=0.2, seed=2)
        assert [s.start for s in a.sessions] != [s.start for s in b.sessions]


class TestSlotCap:
    def test_unbounded_never_rejects(self, small_trace):
        assert small_trace.counters["rejected_connections"] == 0
