"""Experiment plumbing: results, formatting, and the shared context.

Every experiment (one per paper table/figure) produces an
:class:`ExperimentResult`: a list of row dicts pairing the paper's value
with the measured one, plus free-form notes.  The benchmarks print these
rows; EXPERIMENTS.md is generated from them.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis import run_streaming
from repro.analysis.streaming import StreamingAnalysis
from repro.measurement import ColumnarTrace, ShardedTrace
from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    load_or_synthesize_columnar,
    load_or_synthesize_sharded,
)

__all__ = ["ExperimentResult", "ExperimentContext", "format_rows"]


@dataclass
class ExperimentResult:
    """Outcome of reproducing one paper artifact."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **row: object) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        """Human-readable table of the result."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_rows(self.rows))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def format_rows(rows: List[Dict[str, object]]) -> str:
    """Align row dicts into a fixed-width text table."""
    if not rows:
        return "  (no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  " + "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    body = [
        "  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered
    ]
    return "\n".join([header] + body)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


class ExperimentContext:
    """The shared trace source and its one streaming pass, for a batch of
    experiments.

    Synthesis and the streaming pass run lazily, once, and every
    experiment and figure reads the pass's products -- the same way the
    paper derives all of them from one trace.

    ``jobs`` overrides the config's synthesis worker count; ``cache``
    selects the content-addressed trace cache (True for the default
    location, a :class:`~repro.synthesis.TraceCache` for a specific one,
    False -- the default -- to always synthesize fresh, keeping library
    and test runs hermetic; the CLI opts in).

    The context holds three things: the config, the trace source
    (:attr:`source`) and :attr:`streaming`, the single pass that yields
    the filter report, the Figure 1-11 reducers and the query columns of
    the extensions X1-X4.  In-memory contexts take the trace as columns
    (:attr:`columnar`) and run the pass over it as one chunk.
    ``stream=True`` switches to the out-of-core pipeline: synthesis
    spills time-ordered shards to disk (:attr:`shards`) and the pass
    visits them one at a time, so no whole-trace view is built.  Both
    modes print identical results.  ``shard_hours`` sets the shard window
    width (the config's ``shard_days`` drives both sharded synthesis and
    shard granularity).
    """

    #: Default scale: big enough for stable distributions, small enough
    #: to synthesize in tens of seconds.
    DEFAULT = SynthesisConfig(days=2.0, mean_arrival_rate=0.35, seed=20040315)

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        jobs: Optional[int] = None,
        cache: Union[bool, TraceCache] = False,
        stream: bool = False,
        shard_hours: Optional[float] = None,
    ):
        self.config = config or self.DEFAULT
        if jobs is not None:
            self.config = replace(self.config, jobs=jobs)
        if shard_hours is not None:
            self.config = replace(self.config, shard_days=float(shard_hours) / 24.0)
        self.cache = TraceCache() if cache is True else (cache or None)
        self.stream = bool(stream)

    @property
    def source(self) -> Union[ColumnarTrace, ShardedTrace]:
        """The trace source: :attr:`shards` in stream mode, else
        :attr:`columnar`.  Both carry the Table 1 totals
        (``n_connections``, ``counters``, ``hop1_query_count()``)."""
        return self.shards if self.stream else self.columnar

    @cached_property
    def columnar(self) -> ColumnarTrace:
        """The whole trace as columns, the in-memory source.

        The columnar synthesis engine emits this directly (no per-event
        Python loop) and a warm ``.npz`` cache entry loads it as plain
        array bundles.
        """
        if self.cache is None:
            return load_or_synthesize_columnar(self.config, use_cache=False)
        return load_or_synthesize_columnar(self.config, cache=self.cache)

    @cached_property
    def shards(self) -> ShardedTrace:
        """The trace as time-ordered on-disk shards (stream mode).

        Hermetic (cache-less) contexts synthesize into a private
        temporary directory that lives as long as the context; cached
        contexts synthesize straight into (or open) the shared sharded
        cache entry.
        """
        if self.cache is None:
            self._shard_dir = tempfile.TemporaryDirectory(prefix="repro-p2p-shards-")
            return load_or_synthesize_sharded(
                self.config, use_cache=False, workdir=Path(self._shard_dir.name) / "trace"
            )
        return load_or_synthesize_sharded(self.config, cache=self.cache)

    @cached_property
    def streaming(self) -> StreamingAnalysis:
        """Single-pass filter, Figure 1-11 reducers and X1-X4 query
        columns, over :attr:`shards` in stream mode and over
        :attr:`columnar` as one chunk otherwise."""
        chunks = self.shards if self.stream else [self.columnar]
        return run_streaming(chunks, query_columns=True)
