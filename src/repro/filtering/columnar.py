"""Vectorized Section 3.3 filtering over a :class:`ColumnarTrace`.

Implements rules 1-5 as flat-array reductions producing *bit-identical*
:class:`~repro.filtering.pipeline.FilterReport` numbers to the
per-session loop in :func:`~repro.filtering.pipeline.apply_filters`
(asserted by ``tests/filtering/test_columnar.py`` on synthesized
traces).  The float arithmetic is the same IEEE-754 sequence the loop
performs — ``t[i+1] - t[i]`` subtractions and epsilon comparisons — so
"identical" holds exactly, not just to rounding.

Rule mapping onto arrays (queries are session-major, so "within a
session" is "adjacent rows with equal session index"):

* **Rule 1** — boolean mask: not SHA1 and non-empty normalized keywords
  (a normalized key is empty exactly when ``keywords.strip()`` is).
* **Rule 2** — first occurrence of each ``(session, keyword set)`` pair,
  via ``np.unique(..., return_index=True)`` over combined integer keys.
* **Rule 3** — session-duration mask; per-session surviving-query
  counts come from ``np.bincount`` over the owning-session index.
* **Rule 4** — both members of every sub-second adjacent pair are
  marked, by or-ing a shifted ``diff(t) < 1s`` mask into both endpoints.
* **Rule 5** — a rule-4 survivor is removed when its two preceding
  *raw* survivor gaps repeat within epsilon; with survivors kept in
  flat order this is a pure stencil over ``t[2:], t[1:-1], t[:-2]``
  guarded by segment equality.

Rules 1-2 read the query string only through its code: the normalized
identity (:func:`~repro.measurement.columnar.norm_keys_array`) is taken
once per ``keyword_vocab`` entry and gathered per row as an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.events import QueryRecord, SessionRecord
from repro.core.kernels import segment_ids
from repro.measurement.columnar import REGION_ORDER, ColumnarTrace, norm_keys_array

from .pipeline import FilterReport, FilterResult
from .rules import INTERARRIVAL_EPSILON, MIN_INTERARRIVAL_SECONDS
from repro.core.parameters import MIN_SESSION_SECONDS

__all__ = ["ColumnarFilterResult", "apply_filters_columnar"]


@dataclass
class ColumnarFilterResult:
    """Masks over the original columnar trace, plus the Table 2 report.

    ``query_mask`` marks queries surviving rules 1-3 (false everywhere in
    a rule-3-dropped session); ``eligible_mask`` is the rule-4/5 eligible
    subset feeding the interarrival measure.  Both index the *original*
    flat query table, so any analysis can combine them with other
    columns without re-materializing records.
    """

    trace: ColumnarTrace
    session_mask: np.ndarray    # rule-3 survivors (len n_sessions)
    query_mask: np.ndarray      # rules 1-3 kept (len n_queries)
    eligible_mask: np.ndarray   # rules 4-5 eligible (len n_queries)
    report: FilterReport
    session_index: np.ndarray  # owning session per flat query row

    def interarrival_times(self) -> np.ndarray:
        """All eligible interarrival gaps, across sessions, in flat order.

        Equal (element by element) to
        ``FilterResult.interarrival_times()`` on the loop path.
        """
        ts = self.trace.query_timestamp[self.eligible_mask]
        if ts.size < 2:
            return np.empty(0, dtype=np.float64)
        seg = self.session_index[self.eligible_mask]
        gaps = np.diff(ts)
        return gaps[seg[1:] == seg[:-1]]

    def to_filter_result(self) -> FilterResult:
        """Materialize the record-oriented :class:`FilterResult`.

        Produces value-equal sessions/queries to the loop pipeline; used
        where downstream code still wants dataclasses (and by the parity
        tests).
        """
        trace = self.trace
        surviving_rows = np.flatnonzero(self.session_mask)
        kept_queries = _materialize_queries(trace, np.flatnonzero(self.query_mask))
        eligible_queries = _materialize_queries(trace, np.flatnonzero(self.eligible_mask))

        kept_counts = np.bincount(
            self.session_index[self.query_mask], minlength=trace.n_sessions
        )[surviving_rows]
        eligible_counts = np.bincount(
            self.session_index[self.eligible_mask], minlength=trace.n_sessions
        )[surviving_rows]
        kept_offsets = np.concatenate(([0], np.cumsum(kept_counts))).tolist()
        eligible_offsets = np.concatenate(([0], np.cumsum(eligible_counts))).tolist()

        sessions = [
            SessionRecord(
                ip, REGION_ORDER[code], start, end,
                tuple(kept_queries[kept_offsets[i]:kept_offsets[i + 1]]),
                agent, up, files,
            )
            for i, (ip, code, start, end, agent, up, files) in enumerate(
                zip(
                    trace.session_peer_ip[surviving_rows].tolist(),
                    trace.session_region[surviving_rows].tolist(),
                    trace.session_start[surviving_rows].tolist(),
                    trace.session_end[surviving_rows].tolist(),
                    trace.session_user_agents(surviving_rows).tolist(),
                    trace.session_ultrapeer[surviving_rows].tolist(),
                    trace.session_shared_files[surviving_rows].tolist(),
                )
            )
        ]
        interarrival: List[Tuple[QueryRecord, ...]] = [
            tuple(eligible_queries[eligible_offsets[i]:eligible_offsets[i + 1]])
            for i in range(len(surviving_rows))
        ]
        return FilterResult(
            sessions=sessions,
            interarrival_queries=interarrival,
            report=self.report,
        )


def _materialize_queries(trace: ColumnarTrace, rows: np.ndarray) -> List[QueryRecord]:
    return [
        QueryRecord(*row)
        for row in zip(
            trace.query_timestamp[rows].tolist(),
            trace.query_keywords(rows).tolist(),
            trace.query_sha1[rows].tolist(),
            trace.query_hops[rows].tolist(),
            trace.query_ttl[rows].tolist(),
            trace.query_automated[rows].tolist(),
            trace.query_hits[rows].tolist(),
        )
    ]


def _keyword_sets(vocab: np.ndarray):
    """Per vocabulary entry: is its normalized key non-empty, and the
    code of that key (equal codes exactly for equal keyword sets)."""
    norm = norm_keys_array(vocab)
    identity = np.unique(norm, return_inverse=True)[1]
    return norm != "", identity.astype(np.int64)


def apply_filters_columnar(trace: ColumnarTrace) -> ColumnarFilterResult:
    """Run rules 1-5 over a columnar trace, in the paper's order."""
    n_queries = trace.n_queries
    n_sessions = trace.n_sessions
    sess_idx = segment_ids(np.diff(trace.query_offsets))
    report = FilterReport(initial_queries=n_queries, initial_sessions=n_sessions)
    nonempty, identity = _keyword_sets(trace.keyword_vocab)
    keyword = np.asarray(trace.query_keyword)

    # Rule 1: SHA1 extension or empty keywords.
    kept1 = ~trace.query_sha1 & nonempty[keyword]
    report.rule1_removed_queries = int(n_queries - np.count_nonzero(kept1))

    # Rule 2: keep the first occurrence of each (session, keyword set).
    idx1 = np.flatnonzero(kept1)
    kept2 = np.zeros(n_queries, dtype=bool)
    if idx1.size:
        key_codes = identity[keyword[idx1]]
        combined = sess_idx[idx1] * np.int64(identity.size) + key_codes
        # return_index points at the first occurrence; idx1 is ascending,
        # so "first in combined" is "first in query order".
        first_rows = np.unique(combined, return_index=True)[1]
        kept2[idx1[first_rows]] = True
    report.rule2_removed_queries = int(idx1.size - np.count_nonzero(kept2))

    # Rule 3: drop short sessions along with their remaining queries.
    kept2_per_session = np.bincount(sess_idx[kept2], minlength=n_sessions)
    short = (trace.session_end - trace.session_start) < MIN_SESSION_SECONDS
    session_mask = ~short
    report.rule3_removed_sessions = int(np.count_nonzero(short))
    report.rule3_removed_queries = int(kept2_per_session[short].sum())
    report.final_sessions = int(np.count_nonzero(session_mask))
    report.final_queries = int(kept2_per_session[session_mask].sum())

    query_mask = kept2 & session_mask[sess_idx] if n_queries else kept2

    # Rule 4: mark both members of every sub-second adjacent pair.
    idx3 = np.flatnonzero(query_mask)
    ts3 = trace.query_timestamp[idx3]
    seg3 = sess_idx[idx3]
    removed4 = np.zeros(idx3.size, dtype=bool)
    if idx3.size > 1:
        close = (np.diff(ts3) < MIN_INTERARRIVAL_SECONDS) & (seg3[1:] == seg3[:-1])
        removed4[:-1] |= close
        removed4[1:] |= close
    report.rule4_removed_queries = int(np.count_nonzero(removed4))

    # Rule 5: survivor j goes when its two preceding raw survivor gaps
    # repeat within epsilon (metronome re-queries).
    idx4 = idx3[~removed4]
    ts4 = ts3[~removed4]
    seg4 = seg3[~removed4]
    repeated = np.zeros(idx4.size, dtype=bool)
    if idx4.size > 2:
        same_session = (seg4[2:] == seg4[1:-1]) & (seg4[1:-1] == seg4[:-2])
        gap_prev = ts4[2:] - ts4[1:-1]
        gap_prev2 = ts4[1:-1] - ts4[:-2]
        repeated[2:] = same_session & (np.abs(gap_prev - gap_prev2) <= INTERARRIVAL_EPSILON)
    report.rule5_removed_queries = int(np.count_nonzero(repeated))

    eligible_mask = np.zeros(n_queries, dtype=bool)
    eligible_mask[idx4[~repeated]] = True
    report.final_interarrival_queries = int(idx4.size - np.count_nonzero(repeated))

    return ColumnarFilterResult(
        trace=trace,
        session_mask=session_mask,
        query_mask=query_mask,
        eligible_mask=eligible_mask,
        report=report,
        session_index=sess_idx,
    )
