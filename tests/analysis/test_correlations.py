"""Tests for the correlation analysis."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.analysis.correlations import CorrelationResult, session_correlations, spearman
from repro.analysis.active import ActiveSession
from repro.core.regions import Region


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.random(2000)
        b = rng.random(2000)
        assert abs(spearman(a, b)) < 0.06

    def test_rank_based_robust_to_outliers(self):
        a = [1, 2, 3, 4, 1e12]
        b = [1, 2, 3, 4, 5]
        assert spearman(a, b) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2])


def scipy_spearman(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ConstantInputWarning
        return spearmanr(a, b)[0]


class TestSpearmanMatchesScipy:
    """``spearman`` is scipy's ``spearmanr`` statistic, bit for bit."""

    @pytest.mark.parametrize("a,b", [
        ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]),
        ([1.0, 1.0, 2.0], [5.0, 6.0, 6.0]),
        ([2.0, 2.0, 2.0, 1.0, 1.0], [0.5, 0.25, 0.5, 0.25, 1.0]),
        ([0.0, -0.0, 1.0, math.inf], [-math.inf, 1.0, 2.0, 2.0]),
    ])
    def test_small_and_tied(self, a, b):
        assert spearman(a, b) == scipy_spearman(a, b)

    @pytest.mark.parametrize("seed", range(40))
    def test_drawn_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 5000))
        a = np.round(rng.lognormal(size=n), int(rng.integers(0, 3)))
        b = np.ceil(a * rng.lognormal(size=n)) if seed % 2 else rng.integers(1, 8, size=n)
        assert spearman(a, b) == scipy_spearman(a, b)

    @pytest.mark.parametrize("a,b", [
        ([4.0, 4.0, 4.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0, 4.0], [7.0, 7.0, 7.0, 7.0]),
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
        ([math.nan, math.nan, math.nan], [1.0, 2.0, 3.0]),
    ])
    def test_constant_or_nan_input_is_nan(self, a, b):
        assert math.isnan(scipy_spearman(a, b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(spearman(a, b))


def view(region, duration, gaps, after=100.0):
    n = len(gaps) + 1
    return ActiveSession(
        region=region, start=0.0, duration=duration, n_queries=n,
        n_queries_unfiltered=n, time_until_first=10.0, time_after_last=after,
        interarrivals=tuple(gaps), start_period=None, last_query_hour=0,
    )


class TestSessionCorrelations:
    def make_views(self, rng):
        views = []
        for _ in range(200):
            n_gaps = int(rng.integers(0, 9))
            gaps = list(rng.exponential(30.0, n_gaps))
            # Duration grows with query count (the paper's correlation).
            duration = 100.0 + 50.0 * n_gaps + rng.exponential(50.0)
            views.append(view(Region.NORTH_AMERICA, duration, gaps))
        return views

    def test_duration_correlation_detected(self):
        rng = np.random.default_rng(4)
        results = {c.name: c for c in session_correlations(self.make_views(rng))}
        duration = results["duration vs #queries"]
        assert duration.rho > 0.5
        assert duration.significant

    def test_gap_correlation_absent_when_independent(self):
        rng = np.random.default_rng(4)
        results = {c.name: c for c in session_correlations(self.make_views(rng))}
        gaps = results["median interarrival vs #queries"]
        assert abs(gaps.rho) < 0.25

    def test_region_filter(self):
        rng = np.random.default_rng(5)
        views = self.make_views(rng)
        assert session_correlations(views, region=Region.ASIA) == []

    def test_too_few_views(self):
        assert session_correlations([]) == []

    def test_significance_threshold(self):
        weak = CorrelationResult(name="x", rho=0.05, n=400)
        strong = CorrelationResult(name="x", rho=0.5, n=400)
        tiny_sample = CorrelationResult(name="x", rho=0.9, n=5)
        assert not weak.significant
        assert strong.significant
        assert not tiny_sample.significant

    def test_on_shared_trace(self, context):
        results = session_correlations(context.views, region=Region.NORTH_AMERICA)
        by_name = {c.name: c for c in results}
        duration = by_name["duration vs #queries"]
        gaps = by_name["median interarrival vs #queries"]
        # Paper intro claim 4 (reproduced in experiment C1).
        assert duration.significant
        assert duration.rho > abs(gaps.rho)
