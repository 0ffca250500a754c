"""The deterministic frame source: Fig. 12 waves sliced into wire frames.

Pure (no sockets, no wall clock): a :class:`WorkloadFrameSource` is an
iterator of pre-encoded frames whose byte sequence is a function of the
:class:`StreamConfig` alone.  Successive *windows* of the steady-state
workload are generated with the columnar engine -- window ``w`` covers
``[w * window_seconds, (w+1) * window_seconds)`` with its own derived
seed -- so the stream is unbounded in time but bounded in memory.  One
window of sessions is resident at a time: window ``w``, its query
index and the last batch view of it are released before window
``w + 1`` is generated.  Beside it lives the query universe, which
holds each drawn day's rankings as int32 pool indices and drops the
days no later window can reach.  On perfbench's bench stream (20,000
peers, 900 s windows, 256 frames of 2,048 sessions) the frame source
peaks at 52 MiB in-process on a 2-CPU host, where keeping window ``w``
alive through window ``w + 1``'s generation, with rankings held as
strings, peaked at 68 MiB.  Each window is sliced into batches of
``batch_sessions`` sessions and every batch is serialized exactly once;
the server fans the same immutable bytes out to every subscriber.

Reproducibility contract
------------------------

``generate_columnar_workload`` is byte-identical for any ``jobs`` value
(the PR 5 invariant), the per-window seeds depend only on
``(seed, window)``, and the framing codec is deterministic -- so the
concatenation of HELLO + DATA... + END frames is byte-identical across
runs *and* across server worker counts for a fixed config.  ``jobs``
is deliberately absent from the HELLO manifest for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.generator_columnar import (
    ColumnarWorkload,
    GeneratorTables,
    generate_columnar_workload,
)
from repro.core.model import WorkloadModel
from repro.core.popularity import QueryUniverse

from .framing import (
    FRAME_DATA,
    FRAME_END,
    FRAME_HELLO,
    MANIFEST_FORMAT,
    encode_columns,
    encode_frame,
    encode_json_frame,
)

__all__ = [
    "MANIFEST_FORMAT",
    "StreamConfig",
    "WorkloadFrameSource",
    "batch_events",
    "decode_batch",
    "encode_batch",
    "window_seed",
]


@dataclass(frozen=True)
class StreamConfig:
    """Everything that defines the stream's bytes (and only that).

    ``jobs`` sizes the generator's worker pool and is excluded from the
    identity: output is byte-identical for any value.
    """

    n_peers: int = 200
    seed: int = 42
    window_seconds: float = 3600.0
    batch_sessions: int = 1024
    n_frames: int = 64
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_peers < 1:
            raise ValueError(f"n_peers must be >= 1, got {self.n_peers}")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.batch_sessions < 1:
            raise ValueError("batch_sessions must be >= 1")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def manifest(self) -> dict:
        """The HELLO payload: the stream identity, canonically ordered.

        ``codec`` is always ``"columnar"``, the only data-frame payload;
        the field stays so the HELLO bytes, and with them the stream's
        bytes, do not change.
        """
        return {
            "format": MANIFEST_FORMAT,
            "codec": "columnar",
            "n_peers": self.n_peers,
            "seed": self.seed,
            "window_seconds": self.window_seconds,
            "batch_sessions": self.batch_sessions,
            "n_frames": self.n_frames,
        }


def window_seed(seed: int, window: int) -> int:
    """The derived integer seed for stream window ``window``.

    ``SeedSequence([seed, window])`` keys the window into the root
    seed's stream without any arithmetic collisions between nearby
    seeds; the first generated word is the integer seed the columnar
    generator re-expands into its own shard spawn layout.
    """
    return int(np.random.SeedSequence([int(seed), int(window)]).generate_state(1)[0])


def batch_events(batch: ColumnarWorkload) -> int:
    """Events a batch delivers: one connect per session plus its queries."""
    return batch.n_sessions + batch.n_queries


def encode_batch(batch: ColumnarWorkload) -> bytes:
    """One DATA frame: the batch's columns, serialized once.

    ``query_session`` is batch-local (the stream layer re-bases it when
    slicing), so a subscriber can reconstruct each batch independently.
    """
    columns = {name: getattr(batch, name) for name in ColumnarWorkload.ARRAY_FIELDS}
    return encode_frame(FRAME_DATA, encode_columns(columns))


def decode_batch(payload: bytes) -> ColumnarWorkload:
    """Rebuild the batch from a DATA payload (zero-copy array views)."""
    from .framing import decode_columns

    columns = decode_columns(payload)
    missing = [n for n in ColumnarWorkload.ARRAY_FIELDS if n not in columns]
    if missing:
        raise ValueError(f"data frame missing columns {missing}")
    return ColumnarWorkload(
        **{name: columns[name] for name in ColumnarWorkload.ARRAY_FIELDS}
    ).validate()


def _slice_batch(
    workload: ColumnarWorkload, query_index: np.ndarray, lo: int, hi: int
) -> ColumnarWorkload:
    """Sessions ``[lo, hi)`` as a standalone batch with re-based queries."""
    q_lo, q_hi = int(query_index[lo]), int(query_index[hi])
    return ColumnarWorkload(
        session_region=workload.session_region[lo:hi],
        session_start=workload.session_start[lo:hi],
        session_duration=workload.session_duration[lo:hi],
        session_passive=workload.session_passive[lo:hi],
        query_session=workload.query_session[q_lo:q_hi] - lo,
        query_offset=workload.query_offset[q_lo:q_hi],
        query_rank=workload.query_rank[q_lo:q_hi],
        query_class=workload.query_class[q_lo:q_hi],
        query_keywords=workload.query_keywords[q_lo:q_hi],
    )


class WorkloadFrameSource:
    """Iterate the stream's frames: HELLO, ``n_frames`` DATA, END.

    Yields ``(frame_bytes, n_events)`` pairs -- control frames carry
    zero events.  The source is restartable: each call to
    :meth:`frames` replays the identical byte sequence.
    """

    def __init__(
        self,
        config: StreamConfig,
        model: Optional[WorkloadModel] = None,
        universe: Optional[QueryUniverse] = None,
    ) -> None:
        self.config = config
        self.model = model or WorkloadModel.paper()
        self._universe = universe
        self._tables: Optional[GeneratorTables] = None

    def _batches(self) -> Iterator[ColumnarWorkload]:
        config = self.config
        # The universe memoizes per-day rankings as they are drawn; a
        # fresh instance per replay keeps draw order (hence bytes)
        # independent of how often the source was iterated before.
        # Window w's queries land on days >= w * window_seconds / 86400,
        # so an owned universe forgets the days before that as it goes.
        owned = self._universe is None
        universe = QueryUniverse() if owned else self._universe
        # The sampling tables depend on the model and on the universe's
        # fixed class tables only (not on its drawn days), so one build
        # serves every window of every replay.
        if self._tables is None:
            self._tables = GeneratorTables.from_model(self.model, universe)
        window = 0
        while True:
            if owned:
                universe.drop_days_before(int(window * config.window_seconds // 86400))
            workload = generate_columnar_workload(
                self.model,
                universe,
                n_peers=config.n_peers,
                seed=window_seed(config.seed, window),
                duration_seconds=config.window_seconds,
                start_time=window * config.window_seconds,
                jobs=config.jobs,
                tables=self._tables,
            )
            query_index = workload.query_index()
            for lo in range(0, workload.n_sessions, config.batch_sessions):
                hi = min(lo + config.batch_sessions, workload.n_sessions)
                yield _slice_batch(workload, query_index, lo, hi)
            # Window w is gone before window w + 1 is generated.
            del workload, query_index
            window += 1

    def frames(self) -> Iterator[Tuple[bytes, int]]:
        """The full frame sequence, each frame encoded exactly once."""
        config = self.config
        yield encode_json_frame(FRAME_HELLO, config.manifest()), 0
        sessions = queries = 0
        batches = self._batches()
        for _ in range(config.n_frames):
            batch = next(batches)
            sessions += batch.n_sessions
            queries += batch.n_queries
            frame, events = encode_batch(batch), batch_events(batch)
            # A batch is a view of its window: dropping it lets the window
            # go before the next one is generated.
            del batch
            yield frame, events
        summary = {
            "frames": config.n_frames,
            "sessions": sessions,
            "queries": queries,
            "events": sessions + queries,
        }
        yield encode_json_frame(FRAME_END, summary), 0
