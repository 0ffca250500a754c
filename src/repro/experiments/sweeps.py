"""Parameter sweeps: sensitivity of the reproduced measures to the
calibrated knobs.

DESIGN.md documents several calibrated parameters (hot-set persistence,
client re-query intervals, quick-disconnect probability).  These sweeps
show how the paper-anchored outputs move as each knob moves -- the
evidence that the chosen values are the ones that reproduce the paper,
not arbitrary:

* :func:`sweep_persistence` -- universe persistence rho vs. the Figure 10
  drift statistic;
* :func:`sweep_requery_interval` -- client re-query interval vs. the
  Table 2 rule-2 removal fraction;
* :func:`sweep_arrival_rate` -- synthesis scale vs. distribution anchors
  (scale invariance).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis import run_streaming
from repro.core.popularity import QueryClassId, QueryUniverse, top_n_overlap
from repro.core.regions import Region
from repro.filtering import apply_filters_columnar
from repro.synthesis import SynthesisConfig, TraceSynthesizer

__all__ = ["sweep_persistence", "sweep_requery_interval", "sweep_arrival_rate"]


def sweep_persistence(
    rhos: Sequence[float] = (0.0, 0.3, 0.55, 0.8),
    days: int = 25,
    seed: int = 17,
) -> List[Dict[str, float]]:
    """Drift statistic vs. the hot-set persistence parameter.

    Returns rows of (rho, mean top-10 retention in next-day top-100,
    fraction of days with <= 4 retained).  The paper's Figure 10 anchor
    is ~80% of days at <= 4; rho = 0.55 is the calibrated default.
    """
    rows = []
    for rho in rhos:
        universe = QueryUniverse(seed=seed, persistence=rho)
        overlaps = [
            top_n_overlap(
                universe.daily_ranking(day, QueryClassId.NA_ONLY),
                universe.daily_ranking(day + 1, QueryClassId.NA_ONLY),
                (1, 10), 100,
            )
            for day in range(days)
        ]
        rows.append({
            "rho": rho,
            "mean_retained": float(np.mean(overlaps)),
            "frac_days_le4": float(np.mean([o <= 4 for o in overlaps])),
        })
    return rows


def sweep_requery_interval(
    scale_factors: Sequence[float] = (0.5, 1.0, 2.0),
    days: float = 0.15,
    rate: float = 0.3,
    seed: int = 23,
) -> List[Dict[str, float]]:
    """Rule-2 removal fraction vs. the client re-query interval.

    Scales every profile's ``requery_interval_seconds`` by a factor and
    measures Table 2's rule-2 fraction (paper: ~64% of the post-rule-1
    stream).  Shorter intervals -> more duplicates -> larger fraction.
    """
    import dataclasses

    from repro.agents import PeerPopulation
    from repro.gnutella.clients import CLIENT_PROFILES

    rows = []
    for factor in scale_factors:
        scaled = tuple(
            dataclasses.replace(
                profile,
                requery_interval_seconds=profile.requery_interval_seconds * factor,
            )
            for profile in CLIENT_PROFILES
        )
        config = SynthesisConfig(days=days, mean_arrival_rate=rate, seed=seed)
        population = PeerPopulation(seed=seed + 2, profiles=scaled)
        trace = TraceSynthesizer(config, population=population).run_columnar()
        report = apply_filters_columnar(trace).report
        after_rule1 = report.initial_queries - report.rule1_removed_queries
        rows.append({
            "interval_scale": factor,
            "rule2_fraction": report.rule2_removed_queries / max(after_rule1, 1),
        })
    return rows


def sweep_arrival_rate(
    rates: Sequence[float] = (0.15, 0.3, 0.45),
    days: float = 0.5,
    seed: int = 29,
) -> List[Dict[str, float]]:
    """Distribution anchors vs. the synthesis scale (invariance check)."""
    rows = []
    for rate in rates:
        trace = TraceSynthesizer(
            SynthesisConfig(days=days, mean_arrival_rate=rate, seed=seed)
        ).run_columnar()
        analysis = run_streaming([trace])
        eu = analysis.active.queries_per_session_ccdf().get(Region.EUROPE)
        # Passive sessions among the rule-3 survivors.
        passive = analysis.passive.duration.size / max(analysis.report.final_sessions, 1)
        rows.append({
            "rate": rate,
            "sessions": trace.n_connections,
            "passive_fraction": passive,
            "eu_p_ge5_queries": float(eu.at(4.5)) if eu else float("nan"),
        })
    return rows
