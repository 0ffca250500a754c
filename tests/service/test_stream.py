"""The deterministic frame source: identity, slicing, and round trips."""

import weakref

import numpy as np
import pytest

from repro.core.generator_columnar import generate_columnar_workload
from repro.core.model import WorkloadModel
from repro.core.popularity import QueryUniverse
from repro.service.framing import (
    FRAME_DATA,
    FRAME_END,
    FRAME_HELLO,
    HEADER_SIZE,
    MANIFEST_FORMAT,
    decode_json,
    parse_header,
)
from repro.service.stream import (
    StreamConfig,
    WorkloadFrameSource,
    batch_events,
    decode_batch,
    window_seed,
)

CFG = StreamConfig(
    n_peers=60, seed=11, window_seconds=900.0, batch_sessions=64, n_frames=5
)


def frames_of(config):
    return list(WorkloadFrameSource(config).frames())


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(n_peers=0)
        with pytest.raises(ValueError):
            StreamConfig(window_seconds=0)
        with pytest.raises(ValueError):
            StreamConfig(batch_sessions=0)
        with pytest.raises(ValueError):
            StreamConfig(n_frames=0)
        with pytest.raises(ValueError):
            StreamConfig(jobs=0)
        # Data frames have one payload codec, so it is not configurable.
        with pytest.raises(TypeError):
            StreamConfig(codec="columnar")

    def test_manifest_excludes_jobs(self):
        # jobs must never change the bytes, so it cannot be in the HELLO.
        manifest = StreamConfig(jobs=4).manifest()
        assert "jobs" not in manifest
        assert manifest == StreamConfig(jobs=1).manifest()

    def test_hello_keeps_the_columnar_codec_tag(self):
        # The HELLO still names the (only) codec, so its bytes -- and the
        # stream digests recorded against them -- stay as they were.
        manifest = CFG.manifest()
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["codec"] == "columnar"
        hello = frames_of(CFG)[0][0]
        assert b'"codec":"columnar"' in hello[HEADER_SIZE:]


class TestWindowSeed:
    def test_deterministic_and_distinct(self):
        assert window_seed(11, 0) == window_seed(11, 0)
        seeds = {window_seed(11, w) for w in range(32)}
        assert len(seeds) == 32
        assert window_seed(11, 0) != window_seed(12, 0)


class TestFrameSequence:
    def test_shape_hello_data_end(self):
        frames = frames_of(CFG)
        kinds = [parse_header(f[:HEADER_SIZE])[0] for f, _ in frames]
        assert kinds[0] == FRAME_HELLO
        assert kinds[-1] == FRAME_END
        assert kinds[1:-1] == [FRAME_DATA] * CFG.n_frames

    def test_control_frames_carry_zero_events(self):
        frames = frames_of(CFG)
        assert frames[0][1] == 0 and frames[-1][1] == 0
        assert all(events > 0 for _, events in frames[1:-1])

    def test_end_summary_totals_match_data_frames(self):
        frames = frames_of(CFG)
        sessions = queries = 0
        for frame, _ in frames[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            sessions += batch.n_sessions
            queries += batch.n_queries
        summary = decode_json(frames[-1][0][HEADER_SIZE:])
        assert summary == {
            "frames": CFG.n_frames, "sessions": sessions, "queries": queries,
            "events": sessions + queries,
        }

    def test_replay_is_byte_identical(self):
        source = WorkloadFrameSource(CFG)
        first = [f for f, _ in source.frames()]
        second = [f for f, _ in source.frames()]
        assert first == second

    def test_a_source_builds_its_generator_tables_once(self, monkeypatch):
        # Every window of every replay samples from one build of the
        # model's tables (the TestBoundedUniverse digest pins the bytes).
        from repro.core.generator_columnar import GeneratorTables

        builds = []
        from_model = GeneratorTables.from_model.__func__

        def counted(cls, model, universe):
            builds.append(universe)
            return from_model(cls, model, universe)

        monkeypatch.setattr(GeneratorTables, "from_model", classmethod(counted))
        config = StreamConfig(
            n_peers=30, seed=7, window_seconds=600.0, batch_sessions=10**6, n_frames=3
        )
        source = WorkloadFrameSource(config)
        first = [f for f, _ in source.frames()]
        assert len(first) == 5  # HELLO, one DATA frame per window, END
        assert len(builds) == 1
        assert [f for f, _ in source.frames()] == first
        assert len(builds) == 1

    def test_jobs_do_not_change_bytes(self):
        pooled = StreamConfig(
            n_peers=CFG.n_peers, seed=CFG.seed, window_seconds=CFG.window_seconds,
            batch_sessions=CFG.batch_sessions, n_frames=CFG.n_frames, jobs=2,
        )
        assert [f for f, _ in frames_of(CFG)] == [f for f, _ in frames_of(pooled)]

    def test_batches_reassemble_the_generated_window(self):
        # Concatenating the first window's batches must equal the
        # generator's own output for that window, column for column.
        config = StreamConfig(
            n_peers=40, seed=3, window_seconds=600.0, batch_sessions=16,
            n_frames=50,
        )
        universe = QueryUniverse()
        window = generate_columnar_workload(
            WorkloadModel.paper(), universe, n_peers=40,
            seed=window_seed(3, 0), duration_seconds=600.0, start_time=0.0,
        )
        frames = frames_of(config)
        sessions = 0
        collected = {name: [] for name in window.ARRAY_FIELDS}
        for frame, _ in frames[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            for name in window.ARRAY_FIELDS:
                column = getattr(batch, name)
                if name == "query_session":
                    column = column + sessions  # un-rebase
                collected[name].append(column)
            sessions += batch.n_sessions
            if sessions >= window.n_sessions:
                break
        for name in window.ARRAY_FIELDS:
            got = np.concatenate(collected[name])[: getattr(window, name).size]
            np.testing.assert_array_equal(got, getattr(window, name))

    def test_batch_events_counts_connect_plus_queries(self):
        frames = frames_of(CFG)
        for frame, events in frames[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            assert events == batch_events(batch) == batch.n_sessions + batch.n_queries

    def test_decoded_batches_validate(self):
        for frame, _ in frames_of(CFG)[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            batch.validate()
            assert batch.n_sessions <= CFG.batch_sessions


class TestBoundedUniverse:
    """A long stream holds only the days its later windows can reach."""

    #: 300 peers, 1-day windows, one frame per window: 20 days of stream.
    LONG = StreamConfig(
        n_peers=300, seed=404, window_seconds=86400.0, batch_sessions=1_000_000,
        n_frames=20,
    )
    #: SHA-256 of LONG's frames, recorded while the universe kept every day.
    LONG_DIGEST = "bd8eba0e84d46bc8c136b2854c226d80b2c3a85d26249d75d57bca0f94f8a9eb"

    def test_long_stream_keeps_its_bytes_and_drops_past_days(self, monkeypatch):
        import hashlib

        import repro.service.stream as stream

        generate = stream.generate_columnar_workload
        held = []

        def spy(model, universe, **kwargs):
            held.append((int(kwargs["start_time"] // 86400), universe.held_days()))
            return generate(model, universe, **kwargs)

        monkeypatch.setattr(stream, "generate_columnar_workload", spy)
        digest = hashlib.sha256()
        for frame, _ in WorkloadFrameSource(self.LONG).frames():
            digest.update(frame)
        assert digest.hexdigest() == self.LONG_DIGEST
        assert [day for day, _ in held] == list(range(20))
        assert all(days for _, days in held[1:])
        for start_day, days in held:
            assert all(day >= start_day for day in days), (start_day, days)

    def test_a_shared_universe_is_never_dropped(self):
        universe = QueryUniverse()
        config = StreamConfig(
            n_peers=30, seed=5, window_seconds=86400.0, batch_sessions=10**6, n_frames=3
        )
        first = [f for f, _ in WorkloadFrameSource(config, universe=universe).frames()]
        assert 0 in universe.held_days()
        again = [f for f, _ in WorkloadFrameSource(config, universe=universe).frames()]
        assert first == again


class TestOneWindowResident:
    """Window w and every view of it are released before w + 1 is generated."""

    def test_a_window_is_dead_when_the_next_is_generated(self, monkeypatch):
        import repro.service.stream as stream

        generate = stream.generate_columnar_workload
        windows = []  # a weakref to each window's session_start
        alive = []  # per request: which earlier windows are still alive

        def spy(model, universe, **kwargs):
            alive.append([ref() is not None for ref in windows])
            workload = generate(model, universe, **kwargs)
            windows.append(weakref.ref(workload.session_start))
            return workload

        monkeypatch.setattr(stream, "generate_columnar_workload", spy)
        config = StreamConfig(
            n_peers=300, seed=404, window_seconds=900.0, batch_sessions=200, n_frames=12
        )
        for _ in WorkloadFrameSource(config).frames():
            pass
        assert alive == [[], [False], [False, False]]
