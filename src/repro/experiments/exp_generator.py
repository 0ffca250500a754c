"""Experiment G1: closed-loop validation of the Figure 12 generator.

Generates a synthetic workload directly from the paper model (no client
noise, no measurement, no filtering) and checks that the generated
sessions reproduce the model's own anchors -- the paper's stated purpose
for the whole characterization ("constructing representative synthetic
workloads").  A second phase refits the model families to the generated
data and confirms the parameters round-trip.

The experiment consumes the generator's native
:class:`~repro.core.generator_columnar.ColumnarWorkload` arrays; no
per-session Python objects are ever materialized.
"""

from __future__ import annotations

import numpy as np

from repro.core import Region, SyntheticWorkloadGenerator
from repro.core.fitting import fit_lognormal_discrete
from repro.core.generator_columnar import WORKLOAD_REGION_CODE
from repro.core.parameters import _PASSIVE_FRACTION  # noqa: F401  (band reference)
from repro.core.popularity import CLASS_ORDER, QueryClassId
from repro.core.validation import compare_models

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_generator_validation"]

_MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)


def _session_gaps(workload, session_mask: np.ndarray) -> np.ndarray:
    """Interarrival gaps within each selected session, one flat array."""
    if workload.n_queries == 0:
        return np.empty(0, dtype=np.float64)
    same_session = np.diff(workload.query_session) == 0
    selected = session_mask[workload.query_session[1:]]
    keep = same_session & selected
    return np.diff(workload.query_offset)[keep]


def run_generator_validation(ctx: ExperimentContext) -> ExperimentResult:
    """G1: the Fig. 12 generator reproduces its input distributions."""
    result = ExperimentResult("G1", "Synthetic workload generator (closed loop)")
    generator = SyntheticWorkloadGenerator(n_peers=300, seed=ctx.config.seed)
    workload = generator.generate_columnar(duration_seconds=86400.0)
    n = workload.n_sessions
    result.note(f"generated {n} sessions from 300 steady-state peers over 1 day")

    passive = workload.session_passive
    result.add(
        measure="passive fraction (all regions)",
        paper="0.75-0.90",
        ours=float(passive.mean()),
    )
    counts = workload.query_counts()
    for region in _MAJOR:
        mask = ~passive & (workload.session_region == WORKLOAD_REGION_CODE[region])
        region_counts = counts[mask]
        if region_counts.size < 30:
            continue
        fit = fit_lognormal_discrete(region_counts.astype(float))
        result.add(
            measure=f"queries/session mu ({region.short})",
            paper={"NA": -0.0673, "EU": 0.520, "AS": -1.029}[region.short],
            ours=fit.mu,
        )
    # Interarrival anchor: EU < 100 s should be ~90%.
    eu_active = ~passive & (
        workload.session_region == WORKLOAD_REGION_CODE[Region.EUROPE]
    )
    eu_gaps = _session_gaps(workload, eu_active)
    if eu_gaps.size:
        result.add(
            measure="EU P[interarrival < 100s]",
            paper=0.90,
            ours=float(np.mean(eu_gaps < 100)),
        )
    # Query classes: ~97% of a region's queries come from its own class.
    na_mask = (
        workload.session_region[workload.query_session]
        == WORKLOAD_REGION_CODE[Region.NORTH_AMERICA]
    )
    if na_mask.any():
        own_code = CLASS_ORDER.index(QueryClassId.NA_ONLY)
        result.add(
            measure="NA queries in own class",
            paper=0.97,
            ours=float((workload.query_class[na_mask] == own_code).mean()),
        )
    # Steady state: sessions run back to back per slot.
    result.note(
        f"generation is steady-state: first/last session starts at "
        f"{workload.session_start[0]:.0f}s / {workload.session_start[-1]:.0f}s"
    )
    # Two independent seeds of the same generator must produce the same
    # distributions -- a max-CCDF-gap check on the core measures.
    other = SyntheticWorkloadGenerator(n_peers=300, seed=ctx.config.seed + 17)
    workload_b = other.generate_columnar(duration_seconds=86400.0)
    counts_b = workload_b.query_counts()

    verdicts = compare_models(
        {
            "passive duration": (
                workload.session_duration[passive],
                workload_b.session_duration[workload_b.session_passive],
            ),
            "queries/session": (
                counts[~passive].astype(float),
                counts_b[~workload_b.session_passive].astype(float),
            ),
        },
        tolerance=0.06,
    )
    for verdict in verdicts:
        result.note(f"seed-stability {verdict}")
    return result
