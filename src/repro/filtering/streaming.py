"""Single-pass streaming port of the Section 3.3 filter rules.

:class:`StreamingFilter` consumes a time-ordered sequence of
:class:`~repro.measurement.columnar.ColumnarTrace` chunks (typically the
shards of a :class:`~repro.measurement.shards.ShardedTrace`) and applies
rules 1-5 to each, carrying only the running Table 2 totals between
chunks.  The summed :class:`FilterReport` is bit-identical to running
:func:`apply_filters_columnar` over the whole trace at once, because
every rule is strictly per-session:

* rules 1-3 are per-query/per-session masks and per-session sums;
* rules 4-5 look only at adjacent surviving queries *within* a session.

So filtering whole sessions chunk by chunk changes nothing.  Shards
produced by ``TraceSynthesizer.run_sharded`` always hold whole sessions
(a session lives in the shard its *arrival* falls in, however long it
lasts), as one ultrapeer sees each session whole.  A chunk that cuts a
session apart would have each piece filtered as a session of its own,
which silently changes rules 2, 4 and 5, so :meth:`StreamingFilter.push`
refuses any chunk holding a session that starts before the chunk does.
"""

from __future__ import annotations

from repro.measurement.columnar import ColumnarTrace

from .columnar import ColumnarFilterResult, apply_filters_columnar
from .pipeline import FilterReport

__all__ = ["StreamingFilter"]


class StreamingFilter:
    """Applies rules 1-5 one chunk at a time, summing the Table 2 report.

    ``push`` returns the chunk's :class:`ColumnarFilterResult`.  Chunks
    must arrive in time order and hold whole sessions: ``push`` raises
    ``ValueError`` for a chunk with a session that starts before the
    chunk's ``start_time``.
    """

    def __init__(self):
        self.report = FilterReport()

    def push(self, chunk: ColumnarTrace) -> ColumnarFilterResult:
        if chunk.n_sessions:
            start, first = float(chunk.start_time), float(chunk.session_start.min())
            if first < start:
                raise ValueError(
                    f"chunk starting at {start!r} holds a session "
                    f"that starts at {first!r}: a session cut at a chunk "
                    f"edge cannot be filtered whole"
                )
        result = apply_filters_columnar(chunk)
        self._accumulate(result.report)
        return result

    def finish(self) -> None:
        """Nothing is held between chunks, so there is nothing to flush."""
        return None

    def _accumulate(self, report: FilterReport) -> None:
        for name, value in report.as_dict().items():
            setattr(self.report, name, getattr(self.report, name) + value)
