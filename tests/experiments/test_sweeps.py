"""Tests for the sensitivity sweeps."""

import dataclasses

import numpy as np
import pytest

from repro.agents import PeerPopulation
from repro.analysis import active_sessions, queries_per_session_ccdf
from repro.core.regions import Region
from repro.experiments.sweeps import (
    sweep_arrival_rate,
    sweep_persistence,
    sweep_requery_interval,
)
from repro.filtering import apply_filters
from repro.gnutella.clients import CLIENT_PROFILES
from repro.synthesis import SynthesisConfig, TraceSynthesizer


class TestPersistenceSweep:
    def test_retention_monotone_in_rho(self):
        rows = sweep_persistence(rhos=(0.0, 0.55, 0.9), days=15, seed=2)
        retained = [row["mean_retained"] for row in rows]
        assert retained == sorted(retained)

    def test_default_rho_hits_paper_band(self):
        rows = sweep_persistence(rhos=(0.55,), days=30, seed=3)
        assert 0.5 <= rows[0]["frac_days_le4"] <= 0.95

    def test_row_schema(self):
        rows = sweep_persistence(rhos=(0.3,), days=5, seed=1)
        assert set(rows[0]) == {"rho", "mean_retained", "frac_days_le4"}


class TestRequeryIntervalSweep:
    def test_shorter_interval_more_duplicates(self):
        rows = sweep_requery_interval(scale_factors=(0.5, 2.0), days=0.1, rate=0.3, seed=4)
        assert rows[0]["rule2_fraction"] > rows[1]["rule2_fraction"]

    def test_fractions_are_probabilities(self):
        rows = sweep_requery_interval(scale_factors=(1.0,), days=0.08, rate=0.3, seed=5)
        assert 0.0 <= rows[0]["rule2_fraction"] <= 1.0


class TestArrivalRateSweep:
    def test_scale_invariance_of_passive_fraction(self):
        rows = sweep_arrival_rate(rates=(0.15, 0.4), days=0.4, seed=6)
        passives = [row["passive_fraction"] for row in rows]
        assert max(passives) - min(passives) < 0.06

    def test_sessions_scale_with_rate(self):
        rows = sweep_arrival_rate(rates=(0.15, 0.45), days=0.2, seed=7)
        assert rows[1]["sessions"] == pytest.approx(3 * rows[0]["sessions"], rel=0.15)


class TestRecordPathReference:
    """The sweeps read columns; on the same trace their rows equal the
    record trace filtered and reduced by the ``SessionRecord`` functions."""

    def test_requery_rows_equal_record_path(self):
        days, rate, seed = 0.08, 0.3, 5
        (row,) = sweep_requery_interval(scale_factors=(0.5,), days=days, rate=rate, seed=seed)
        scaled = tuple(
            dataclasses.replace(
                profile, requery_interval_seconds=profile.requery_interval_seconds * 0.5
            )
            for profile in CLIENT_PROFILES
        )
        trace = TraceSynthesizer(
            SynthesisConfig(days=days, mean_arrival_rate=rate, seed=seed),
            population=PeerPopulation(seed=seed + 2, profiles=scaled),
        ).run()
        report = apply_filters(trace.sessions).report
        after_rule1 = report.initial_queries - report.rule1_removed_queries
        assert row["rule2_fraction"] == report.rule2_removed_queries / after_rule1

    def test_arrival_rate_rows_equal_record_path(self):
        days, seed = 0.2, 6
        rows = sweep_arrival_rate(rates=(0.15, 0.4), days=days, seed=seed)
        for row in rows:
            trace = TraceSynthesizer(
                SynthesisConfig(days=days, mean_arrival_rate=row["rate"], seed=seed)
            ).run()
            filtered = apply_filters(trace.sessions)
            eu = queries_per_session_ccdf(active_sessions(filtered))[Region.EUROPE]
            assert row == {
                "rate": row["rate"],
                "sessions": trace.n_connections,
                "passive_fraction": float(np.mean([s.is_passive for s in filtered.sessions])),
                "eu_p_ge5_queries": float(eu.at(4.5)),
            }
