"""Sharded synthesis: window math, determinism, and statistical equivalence."""

import io
import heapq

import numpy as np
import pytest

from repro.core.validation import ccdf_max_gap
from repro.filtering import apply_filters
from repro.synthesis import SynthesisConfig, TraceSynthesizer, shard_windows, synthesize_trace
from repro.synthesis.event_engine import EventShardEngine
from repro.synthesis.synthesizer import SHARD_IP_STRIDE


def _jsonl_bytes(trace, tmp_path, name):
    path = tmp_path / name
    trace.to_jsonl(path)
    return path.read_bytes()


class TestShardWindows:
    def test_sequential_config_is_one_window(self):
        cfg = SynthesisConfig(days=2.0)
        assert shard_windows(cfg) == [(0.0, 2.0 * 86400.0)]

    def test_jobs_split_is_equal_width_and_covering(self):
        cfg = SynthesisConfig(days=2.0, jobs=4)
        windows = shard_windows(cfg)
        assert len(windows) == 4
        assert windows[0][0] == 0.0
        assert windows[-1][1] == pytest.approx(2.0 * 86400.0)
        widths = [end - start for start, end in windows]
        assert all(w == pytest.approx(43200.0) for w in widths)
        # contiguous: each window starts where the previous ended
        for (_, prev_end), (start, _) in zip(windows, windows[1:]):
            assert start == prev_end

    def test_shard_days_overrides_jobs(self):
        cfg = SynthesisConfig(days=1.0, jobs=2, shard_days=0.25)
        assert len(shard_windows(cfg)) == 4

    def test_shard_days_partial_last_shard(self):
        cfg = SynthesisConfig(days=1.0, shard_days=0.4)
        windows = shard_windows(cfg)
        assert len(windows) == 3
        assert windows[-1][1] == pytest.approx(86400.0)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SynthesisConfig(jobs=0)
        with pytest.raises(ValueError):
            SynthesisConfig(shard_days=-1.0)


class TestShardedDeterminism:
    DAYS = 0.1

    def test_same_config_same_bytes(self, tmp_path):
        a = synthesize_trace(days=self.DAYS, jobs=3)
        b = synthesize_trace(days=self.DAYS, jobs=3)
        assert _jsonl_bytes(a, tmp_path, "a.jsonl") == _jsonl_bytes(b, tmp_path, "b.jsonl")

    def test_worker_count_does_not_change_content(self, tmp_path):
        """jobs only sets parallelism; the shard count decides content."""
        a = synthesize_trace(days=self.DAYS, jobs=1, shard_days=self.DAYS / 3)
        b = synthesize_trace(days=self.DAYS, jobs=3, shard_days=self.DAYS / 3)
        assert _jsonl_bytes(a, tmp_path, "a.jsonl") == _jsonl_bytes(b, tmp_path, "b.jsonl")

    def test_different_shard_count_changes_realization(self):
        a = synthesize_trace(days=self.DAYS, jobs=1)
        b = synthesize_trace(days=self.DAYS, jobs=3)
        assert [s.start for s in a.sessions] != [s.start for s in b.sessions]

    def test_ips_unique_across_shards(self):
        trace = synthesize_trace(days=self.DAYS, jobs=3)
        ips = [s.peer_ip for s in trace.sessions] + [p.ip for p in trace.pongs]
        assert len(ips) == len(set(ips))

    def test_sessions_merged_in_time_order(self):
        trace = synthesize_trace(days=self.DAYS, jobs=3)
        starts = [s.start for s in trace.sessions]
        assert starts == sorted(starts)
        stamps = [p.timestamp for p in trace.pongs]
        assert stamps == sorted(stamps)

    def test_sessions_can_straddle_shard_boundaries(self):
        """A session arriving near a shard's end survives past the boundary."""
        cfg = SynthesisConfig(days=self.DAYS, jobs=4)
        boundaries = [end for _, end in shard_windows(cfg)[:-1]]
        trace = TraceSynthesizer(cfg).run()
        straddlers = [
            s for s in trace.sessions
            if any(s.start < b < s.end for b in boundaries)
        ]
        assert straddlers, "expected at least one boundary-straddling session"

    def test_sharded_sessions_truncate_at_global_end(self):
        """No session outlives the trace beyond the monitor's 30 s idle
        detection overshoot (same bound as the sequential path)."""
        from repro.measurement import IDLE_CLOSE_SECONDS, IDLE_PROBE_SECONDS

        trace = synthesize_trace(days=self.DAYS, jobs=3)
        bound = trace.end_time + IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS
        assert all(s.end <= bound for s in trace.sessions)


class TestShardFallbacks:
    def test_max_slots_forces_single_shard(self):
        cfg = SynthesisConfig(days=0.02, jobs=2, max_slots=50)
        with pytest.warns(RuntimeWarning, match="slot caps"):
            synth = TraceSynthesizer(cfg)
        assert synth.n_shards == 1

    def test_custom_population_forces_single_shard(self):
        from repro.agents import PeerPopulation

        cfg = SynthesisConfig(days=0.02, jobs=2)
        with pytest.warns(RuntimeWarning, match="population"):
            synth = TraceSynthesizer(cfg, population=PeerPopulation(seed=7))
        assert synth.n_shards == 1

    def test_single_shard_ip_range_unrestricted(self):
        cfg = SynthesisConfig(days=0.02)
        synth = TraceSynthesizer(cfg)
        assert synth.n_shards == 1
        assert synth.population._allocator._counter_limit is None


class TestStatisticalEquivalence:
    """1-shard and N-shard runs are different realizations of the same
    process: headline distributions must agree within KS tolerance."""

    DAYS = 0.3
    GAP = 0.05

    @pytest.fixture(scope="class")
    def seq_and_sharded(self):
        seq = synthesize_trace(days=self.DAYS, jobs=1)
        sharded = synthesize_trace(days=self.DAYS, jobs=4)
        return seq, sharded

    def test_connection_volume_close(self, seq_and_sharded):
        seq, sharded = seq_and_sharded
        assert sharded.n_connections == pytest.approx(seq.n_connections, rel=0.05)

    def test_session_durations_ks_equivalent(self, seq_and_sharded):
        seq, sharded = seq_and_sharded
        dur_a = [s.duration for s in seq.sessions]
        dur_b = [s.duration for s in sharded.sessions]
        assert ccdf_max_gap(dur_a, dur_b) < self.GAP

    def test_query_interarrivals_ks_equivalent(self, seq_and_sharded):
        seq, sharded = seq_and_sharded
        gap_a = apply_filters(seq.sessions).interarrival_times()
        gap_b = apply_filters(sharded.sessions).interarrival_times()
        # Fewer samples than durations, so use the two-sample KS critical
        # value at the 1% level instead of a fixed gap.
        n, m = len(gap_a), len(gap_b)
        critical = 1.63 * np.sqrt((n + m) / (n * m))
        assert ccdf_max_gap(gap_a, gap_b) < critical

    def test_counters_close(self, seq_and_sharded):
        seq, sharded = seq_and_sharded
        for name in ("hop1_query_messages", "ping_messages", "pong_messages"):
            assert sharded.counters[name] == pytest.approx(
                seq.counters[name], rel=0.10
            ), name


class TestEventDrain:
    """Regression for the heap-drain boundary bug: an out-of-window event
    must be skipped, not treated as a stop signal."""

    @staticmethod
    def _drain(events, end_time):
        return list(EventShardEngine._drain_events(events, end_time))

    def test_out_of_window_head_does_not_drop_later_events(self):
        end = 100.0
        # Not a valid heap: heappop returns the out-of-window event first.
        # Under the old `break` semantics the in-window event at t=1.0
        # would be silently dropped.
        events = [(end + 1.0, 0, "close", (1,)), (1.0, 1, "query", (2,))]
        drained = self._drain(events, end)
        assert drained == [(1.0, "query", (2,))]

    def test_interleaved_out_of_window_events_skipped(self):
        end = 50.0
        events = []
        for seq, when in enumerate([10.0, 60.0, 20.0, 70.0, 30.0]):
            heapq.heappush(events, (when, seq, "query", (seq,)))
        drained = self._drain(events, end)
        assert [w for w, _, _ in drained] == [10.0, 20.0, 30.0]

    def test_boundary_event_excluded(self):
        events = [(50.0, 0, "close", (1,)), (49.9, 1, "close", (2,))]
        heapq.heapify(events)
        drained = self._drain(events, 50.0)
        assert [w for w, _, _ in drained] == [49.9]

    def test_drains_heap_in_time_order(self):
        events = []
        rng = np.random.default_rng(7)
        for seq, when in enumerate(rng.random(64) * 100.0):
            heapq.heappush(events, (float(when), seq, "q", (seq,)))
        drained = self._drain(events, 100.0)
        assert [w for w, _, _ in drained] == sorted(w for w, _, _ in drained)
        assert len(drained) == 64
