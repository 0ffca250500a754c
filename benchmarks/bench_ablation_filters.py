"""Ablation: what happens to the headline measures without the filters.

DESIGN.md calls out the paper's first key observation -- "automated
re-queries generated by the client software have a significant impact on
most workload measures and thus have to be filtered" -- as the design
choice to ablate.  This bench recomputes the Figure 11 Zipf exponent and
the queries-per-session median with each filter rule disabled, showing
the distortion each rule prevents.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import fit_class_popularity
from repro.core.popularity import QueryClassId
from repro.core.regions import Region
from repro.filtering import apply_filters
from repro.filtering.rules import rule1_sha1, rule3_short_sessions

from conftest import run_and_render  # noqa: F401  (shared fixtures)


def _zipf_alpha(sessions):
    return fit_class_popularity(sessions, QueryClassId.NA_ONLY).fit.alpha


def _median_queries(sessions):
    counts = [s.query_count for s in sessions if s.queries]
    return float(np.median(counts)) if counts else 0.0


def _without_rule2(raw_sessions):
    """Apply rules 1 and 3 but keep the automated duplicate re-queries --
    isolating the distortion the paper attributes to re-queries."""
    cleaned = []
    for session in raw_sessions:
        kept, _ = rule1_sha1(session.queries)
        cleaned.append(session.with_queries(tuple(kept)))
    surviving, _, _ = rule3_short_sessions(cleaned)
    return surviving


def test_filter_ablation(ctx, benchmark):
    raw = ctx.shards.concat().to_trace().sessions

    def ablate():
        filtered = apply_filters(raw).sessions
        unfiltered = _without_rule2(raw)  # re-queries left in the stream
        return {
            "alpha_filtered": _zipf_alpha(filtered),
            "alpha_unfiltered": _zipf_alpha(unfiltered),
            "queries_filtered": _median_queries(filtered),
            "queries_unfiltered": _median_queries(unfiltered),
        }

    out = benchmark.pedantic(ablate, rounds=1, iterations=1)
    print()
    print("== Ablation: filtering rules 1-2 (automated client traffic) ==")
    print(f"  median queries/active session: filtered {out['queries_filtered']:.1f} vs "
          f"unfiltered {out['queries_unfiltered']:.1f}")
    print(f"  Zipf alpha (NA class): filtered {out['alpha_filtered']:.3f} vs "
          f"unfiltered {out['alpha_unfiltered']:.3f}")
    print("  paper: every per-session measure is inflated by automated traffic; "
          "the companion caching bench (X3) shows the popularity-side distortion "
          "(raw-stream cache hit rates an order of magnitude above user-stream)")
    print("  note: reproducing Sripanidkulchai's alpha ~1.0 on the raw stream "
          "would additionally require popularity-correlated re-query behaviour, "
          "which the paper does not parameterize")
    # Robust ablation claim: automated traffic inflates query counts ~2x.
    assert out["queries_unfiltered"] >= 1.5 * out["queries_filtered"]
