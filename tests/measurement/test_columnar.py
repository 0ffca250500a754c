"""Columnar trace backend: conversions, .npz persistence, and parity.

The columnar path only earns its speed if it is lossless: every test
here pins some face of ``Trace == to_trace(from_trace(Trace))``, directly,
through the ``.npz`` archive, and through sharded synthesis.
"""

import numpy as np
import pytest

from repro.core.events import QueryRecord, SessionRecord
from repro.core.regions import Region
from repro.measurement import (
    COLUMNAR_SCHEMA_VERSION,
    ColumnarTrace,
    PongObservation,
    QueryHitObservation,
    Trace,
    normalize_keywords,
)
from repro.synthesis import SynthesisConfig, TraceSynthesizer


def make_trace(offset=0.0):
    trace = Trace(start_time=offset, end_time=offset + 86400.0)
    trace.sessions.append(
        SessionRecord(
            peer_ip="64.1.1.1", region=Region.NORTH_AMERICA,
            start=offset + 10.0, end=offset + 200.0,
            queries=(
                QueryRecord(timestamp=offset + 50.0, keywords="abc def", sha1=True),
                QueryRecord(timestamp=offset + 60.0, keywords="ghi", hops=2,
                            ttl=5, automated=True, hits=3),
            ),
            user_agent="LimeWire/3.8.10", ultrapeer=True, shared_files=3,
        )
    )
    trace.sessions.append(
        SessionRecord(
            peer_ip="80.9.9.9", region=Region.EUROPE,
            start=offset + 20.0, end=offset + 30.0,
            queries=(), user_agent="BearShare/4.6", ultrapeer=False, shared_files=0,
        )
    )
    trace.pongs.append(
        PongObservation(offset + 5.0, "80.1.1.1", Region.EUROPE, 12, one_hop=False)
    )
    trace.queryhits.append(
        QueryHitObservation(offset + 6.0, "58.2.2.2", Region.ASIA, one_hop=True)
    )
    trace.bump("ping_messages", 42)
    trace.bump("query_messages", 7)
    return trace


class TestNormalizeKeywords:
    def test_canonical_form(self):
        assert normalize_keywords("The  Beatles  the") == "beatles the"
        assert normalize_keywords("b a") == normalize_keywords("a  B")

    def test_empty_iff_blank(self):
        assert normalize_keywords("") == ""
        assert normalize_keywords("   ") == ""
        assert normalize_keywords("x") != ""


class TestRecordRoundTrip:
    def test_to_trace_inverts_from_trace(self):
        trace = make_trace()
        back = ColumnarTrace.from_trace(trace).to_trace()
        assert back.sessions == trace.sessions
        assert back.pongs == trace.pongs
        assert back.queryhits == trace.queryhits
        assert back.counters == trace.counters
        assert back.start_time == trace.start_time
        assert back.end_time == trace.end_time

    def test_empty_trace(self):
        trace = Trace(start_time=0.0, end_time=3600.0)
        columnar = ColumnarTrace.from_trace(trace)
        assert columnar.n_sessions == 0
        assert columnar.n_queries == 0
        back = columnar.to_trace()
        assert back.sessions == [] and back.pongs == [] and back.queryhits == []

    def test_query_offsets_and_session_index(self):
        columnar = ColumnarTrace.from_trace(make_trace())
        assert columnar.query_offsets.tolist() == [0, 2, 2]
        assert columnar.query_session_index().tolist() == [0, 0]
        assert columnar.n_sessions == 2
        assert columnar.n_queries == 2

    @pytest.mark.parametrize("field, value", [("hops", 256), ("ttl", 300)])
    def test_hops_and_ttl_outside_a_header_byte_rejected(self, field, value):
        # Hops and TTL are stored at wire width (uint8); a value that
        # does not fit is refused, never wrapped (records already refuse
        # negative ones).
        trace = make_trace()
        session = trace.sessions[0]
        query = QueryRecord(timestamp=100.0, keywords="x", **{field: value})
        trace.sessions[0] = SessionRecord(
            session.peer_ip, session.region, session.start, session.end,
            session.queries + (query,), session.user_agent, session.ultrapeer,
            session.shared_files,
        )
        with pytest.raises(ValueError, match="0-255"):
            ColumnarTrace.from_trace(trace)

    def test_hops_and_ttl_are_header_bytes(self):
        columnar = ColumnarTrace.from_trace(make_trace())
        assert columnar.query_hops.dtype == np.uint8
        assert columnar.query_ttl.dtype == np.uint8
        assert columnar.query_hops.tolist() == [1, 2]
        assert columnar.query_ttl.tolist() == [7, 5]
        assert ColumnarTrace(0.0, 1.0).query_hops.dtype == np.uint8

    def test_synthesized_trace_round_trips(self, small_trace):
        back = ColumnarTrace.from_trace(small_trace).to_trace()
        assert back.sessions == small_trace.sessions
        assert back.pongs == small_trace.pongs
        assert back.queryhits == small_trace.queryhits
        assert back.counters == small_trace.counters


class TestNpzRoundTrip:
    def test_npz_round_trip_byte_identical_jsonl(self, tmp_path):
        trace = make_trace()
        direct = tmp_path / "direct.jsonl"
        trace.to_jsonl(direct)

        npz = tmp_path / "trace.npz"
        ColumnarTrace.from_trace(trace).save_npz(npz)
        hopped = tmp_path / "hopped.jsonl"
        ColumnarTrace.load_npz(npz).to_trace().to_jsonl(hopped)

        assert direct.read_bytes() == hopped.read_bytes()

    def test_npz_round_trip_synthesized(self, small_trace, tmp_path):
        npz = tmp_path / "trace.npz"
        ColumnarTrace.from_trace(small_trace).save_npz(npz)
        loaded = ColumnarTrace.load_npz(npz)
        assert loaded.counters == small_trace.counters
        back = loaded.to_trace()
        assert back.sessions == small_trace.sessions
        assert back.pongs == small_trace.pongs
        assert back.queryhits == small_trace.queryhits

    def test_schema_version_mismatch_rejected(self, tmp_path, monkeypatch):
        npz = tmp_path / "trace.npz"
        ColumnarTrace.from_trace(make_trace()).save_npz(npz)
        monkeypatch.setattr(
            "repro.measurement.columnar.COLUMNAR_SCHEMA_VERSION",
            COLUMNAR_SCHEMA_VERSION + 1,
        )
        with pytest.raises(ValueError, match="schema"):
            ColumnarTrace.load_npz(npz)

    def test_no_pickled_objects_in_archive(self, tmp_path):
        # allow_pickle=False on load is only safe if save never needs it.
        npz = tmp_path / "trace.npz"
        ColumnarTrace.from_trace(make_trace()).save_npz(npz)
        with np.load(npz, mmap_mode=None, allow_pickle=False) as data:
            for name in data.files:
                assert data[name].dtype != object, name


class TestMergeParity:
    def test_sharded_synthesis_merge_parity(self, tmp_path):
        """Columnarizing a sharded synthesis output equals the direct trace."""
        config = SynthesisConfig(days=0.1, mean_arrival_rate=0.3, seed=7, jobs=2)
        trace = TraceSynthesizer(config).run()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace.to_jsonl(a)
        ColumnarTrace.from_trace(trace).to_trace().to_jsonl(b)
        assert a.read_bytes() == b.read_bytes()
