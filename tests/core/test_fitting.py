"""Parameter-recovery tests for every fitter, and SciPy as a test-only
oracle for the code that replaced it in the truncated fitters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import ndtr
from scipy.stats import norm

from repro.core import fitting
from repro.core.distributions import Lognormal, Pareto, Truncated, Weibull, Zipf
from repro.core.fitting import (
    fit_lognormal,
    fit_lognormal_discrete,
    fit_lognormal_truncated,
    fit_pareto,
    fit_spliced,
    fit_weibull,
    fit_weibull_truncated,
    fit_zipf,
    fit_zipf_body_tail,
    ks_distance,
)
from repro.core.parameters import (
    PASSIVE_BODY_BOUNDARY,
    first_query_model,
    passive_duration_model,
)
from repro.core.regions import Region

RNG = np.random.default_rng(99)


class TestLognormalFit:
    def test_recovers_parameters(self):
        s = Lognormal(2.0, 1.5).sample(RNG, 30_000)
        fit = fit_lognormal(s)
        assert fit.mu == pytest.approx(2.0, abs=0.05)
        assert fit.sigma == pytest.approx(1.5, abs=0.05)

    def test_filters_nonpositive(self):
        fit = fit_lognormal([0.0, -1.0, math.e, math.e])
        assert fit.mu == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_lognormal([1.0])


class TestLognormalTruncated:
    def test_recovers_tail_parameters(self):
        base = Lognormal(6.397, 2.749)
        s = Truncated(base, 120.0, math.inf).sample(RNG, 8_000)
        fit = fit_lognormal_truncated(s, low=120.0)
        assert fit.mu == pytest.approx(6.397, abs=0.25)
        assert fit.sigma == pytest.approx(2.749, abs=0.25)

    def test_no_truncation_matches_plain_mle(self):
        s = Lognormal(1.0, 0.8).sample(RNG, 5_000)
        fit_a = fit_lognormal_truncated(s)
        fit_b = fit_lognormal(s)
        assert fit_a.mu == pytest.approx(fit_b.mu, abs=0.02)
        assert fit_a.sigma == pytest.approx(fit_b.sigma, abs=0.02)

    def test_window_filtering(self):
        with pytest.raises(ValueError):
            fit_lognormal_truncated([1.0, 2.0, 3.0], low=10.0)


class TestLognormalDiscrete:
    def test_recovers_sub_one_median(self):
        # Table A.2's NA model has median < 1; only the discrete fitter
        # can see that through the ceil().
        base = Lognormal(-0.0673, 1.360)
        counts = np.ceil(np.maximum(base.sample(RNG, 20_000), 1e-9)).clip(1)
        fit = fit_lognormal_discrete(counts)
        assert fit.mu == pytest.approx(-0.0673, abs=0.2)
        assert fit.sigma == pytest.approx(1.360, abs=0.2)

    def test_degenerate_counts_fall_back(self):
        fit = fit_lognormal_discrete([1] * 50 + [2] * 2)
        assert fit.sigma > 0

    def test_too_few(self):
        with pytest.raises(ValueError):
            fit_lognormal_discrete([1, 2, 3])


class TestWeibullFit:
    def test_recovers_parameters(self):
        s = Weibull(1.477, 0.005252).sample(RNG, 30_000)
        fit = fit_weibull(s)
        assert fit.alpha == pytest.approx(1.477, rel=0.05)
        assert fit.lam == pytest.approx(0.005252, rel=0.15)

    def test_exponential_special_case(self):
        s = Weibull(1.0, 0.1).sample(RNG, 30_000)
        fit = fit_weibull(s)
        assert fit.alpha == pytest.approx(1.0, abs=0.03)

    def test_truncated_recovery(self):
        base = Weibull(1.477, 0.005252)
        s = Truncated(base, 0.0, 45.0).sample(RNG, 10_000)
        fit = fit_weibull_truncated(s, high=45.0)
        assert fit.alpha == pytest.approx(1.477, rel=0.12)


class TestParetoFit:
    def test_hill_estimator(self):
        s = Pareto(0.9041, 103.0).sample(RNG, 30_000)
        fit = fit_pareto(s, beta=103.0)
        assert fit.alpha == pytest.approx(0.9041, rel=0.03)
        assert fit.beta == 103.0

    def test_default_beta_is_minimum(self):
        fit = fit_pareto([10.0, 20.0, 40.0])
        assert fit.beta == pytest.approx(10.0)

    def test_requires_tail_samples(self):
        with pytest.raises(ValueError):
            fit_pareto([1.0, 2.0], beta=100.0)


class TestZipfFit:
    def test_exact_pmf(self):
        z = Zipf(0.386, 500)
        pmf = [z.pmf(r) for r in range(1, 101)]
        fit = fit_zipf(pmf)
        assert fit.alpha == pytest.approx(0.386, abs=1e-6)
        assert fit.rmse < 1e-9

    def test_max_rank_restriction(self):
        z = Zipf(1.0, 1000)
        pmf = [z.pmf(r) for r in range(1, 1001)]
        fit = fit_zipf(pmf, max_rank=50)
        assert fit.n_ranks == 50

    def test_body_tail_split(self):
        from repro.core.popularity import BodyTailZipf

        bt = BodyTailZipf(alpha_body=0.453, alpha_tail=4.67, split=45, n=100)
        pmf = [bt.pmf(r) for r in range(1, 101)]
        body, tail = fit_zipf_body_tail(pmf, split_rank=45)
        assert body.alpha == pytest.approx(0.453, abs=0.01)
        assert tail.alpha == pytest.approx(4.67, abs=0.05)

    def test_distribution_roundtrip(self):
        fit = fit_zipf([0.5, 0.25, 0.125, 0.0625])
        assert fit.distribution().n == 4

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            fit_zipf([1.0])


class TestSplicedFit:
    def test_table_a1_shape_recovery(self):
        from repro.core.distributions import Spliced

        true = Spliced(Lognormal(2.108, 2.502), Lognormal(6.397, 2.749),
                       boundary=120.0, body_weight=0.75, body_low=64.0)
        s = true.sample(RNG, 20_000)
        fit = fit_spliced(s, boundary=120.0, body_low=64.0,
                          truncation_aware=True)
        assert fit.body_weight == pytest.approx(0.75, abs=0.02)
        tail = fit.distribution.tail.base
        assert tail.mu == pytest.approx(6.397, abs=0.3)
        assert fit.ks < 0.02

    def test_pareto_tail(self):
        from repro.core.distributions import Spliced

        true = Spliced(Lognormal(3.353, 1.625), Pareto(0.9041, 103.0),
                       boundary=103.0, body_weight=0.70)
        s = true.sample(RNG, 20_000)
        fit = fit_spliced(s, boundary=103.0, tail_family="pareto")
        assert fit.distribution.tail.base.alpha == pytest.approx(0.9041, rel=0.1)

    def test_rejects_one_sided_data(self):
        with pytest.raises(ValueError):
            fit_spliced([1.0, 2.0, 3.0], boundary=100.0)

    def test_unknown_family(self):
        s = list(np.linspace(1, 200, 100))
        with pytest.raises(ValueError):
            fit_spliced(s, boundary=100.0, body_family="cauchy")


class TestKsDistance:
    def test_perfect_fit_small(self):
        dist = Lognormal(0.0, 1.0)
        s = dist.sample(RNG, 20_000)
        assert ks_distance(dist, s) < 0.02

    def test_bad_fit_large(self):
        dist = Lognormal(0.0, 1.0)
        s = Lognormal(5.0, 1.0).sample(RNG, 2_000)
        assert ks_distance(dist, s) > 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(Lognormal(0, 1), [])


# -- SciPy oracles: the replacements must give the same bits ---------------

#: The options each truncated fitter passes to its Nelder-Mead run.
LOGNORMAL_OPTIONS = {"xatol": 1e-6, "fatol": 1e-9, "maxiter": 2000}
WEIBULL_OPTIONS = {"xatol": 1e-7, "fatol": 1e-9, "maxiter": 2000}


def scipy_nelder_mead(fn, x0, options):
    return minimize(fn, x0, method="Nelder-Mead", options=options).x


class TestNelderMeadMatchesScipy:
    @pytest.fixture
    def solved(self, monkeypatch):
        """Every (objective, start, options, result) the fitters solve."""
        seen = []
        real = fitting._nelder_mead

        def spy(fn, x0, **options):
            x = real(fn, x0, **options)
            seen.append((fn, np.copy(x0), options, np.copy(x)))
            return x

        monkeypatch.setattr(fitting, "_nelder_mead", spy)
        return seen

    def assert_scipy_agrees(self, solved, n_runs, options):
        assert len(solved) == n_runs
        for fn, x0, used, x in solved:
            assert used == options
            assert np.array_equal(x, scipy_nelder_mead(fn, x0, options))

    @pytest.mark.parametrize("peak", [True, False])
    @pytest.mark.parametrize("seed,n", [(1, 60), (2, 400), (3, 2500)])
    def test_ta1_window_objectives(self, solved, peak, seed, n):
        """Table A.1's body on (64, 120] s -- the likelihood ridge -- and tail."""
        durations = passive_duration_model(Region.NORTH_AMERICA, peak).sample(
            np.random.default_rng(seed), n
        )
        fit_spliced(durations, boundary=PASSIVE_BODY_BOUNDARY, truncation_aware=True,
                    body_low=64.0)
        self.assert_scipy_agrees(solved, 2, LOGNORMAL_OPTIONS)

    @pytest.mark.parametrize("peak,boundary", [(True, 45.0), (False, 120.0)])
    @pytest.mark.parametrize("n_queries", [1, 3, 5])
    def test_ta3_objectives(self, solved, peak, boundary, n_queries):
        """Table A.3's Weibull body below the boundary; its lognormal tail."""
        sample = first_query_model(Region.NORTH_AMERICA, peak, n_queries).sample(
            np.random.default_rng(n_queries), 800
        )
        fit_spliced(sample, boundary=boundary, body_family="weibull",
                    tail_family="lognormal", truncation_aware=True)
        weibull, lognormal = solved
        self.assert_scipy_agrees([weibull], 1, WEIBULL_OPTIONS)
        self.assert_scipy_agrees([lognormal], 1, LOGNORMAL_OPTIONS)

    @settings(max_examples=100, deadline=None)
    @given(
        center=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        scale=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        coupling=st.floats(-0.9, 0.9),
        plateau=st.none() | st.floats(-20, 20),
        floor=st.none() | st.floats(0, 100),
        start=st.tuples(st.just(0.0) | st.floats(-100, 100),
                        st.just(0.0) | st.floats(-100, 100)),
        options=st.sampled_from([LOGNORMAL_OPTIONS, WEIBULL_OPTIONS]),
        maxiter=st.just(2000) | st.integers(1, 40),
    )
    def test_drawn_objectives(self, center, scale, coupling, plateau, floor, start,
                              options, maxiter):
        """Zero starts take the absolute initial step; a start on the 1e12
        plateau ties every vertex, so the unstable sort decides the order;
        a floor makes trial points tie; a small ``maxiter`` binds."""

        def fn(p):
            if plateau is not None and p[0] > plateau:
                return 1e12
            d0, d1 = p[0] - center[0], p[1] - center[1]
            value = (scale[0] * d0 * d0 + scale[1] * d1 * d1
                     + 2 * coupling * math.sqrt(scale[0] * scale[1]) * d0 * d1)
            return float(value if floor is None else max(value, floor))

        x0 = np.array(start)
        options = {**options, "maxiter": maxiter}
        assert np.array_equal(fitting._nelder_mead(fn, x0, **options),
                              scipy_nelder_mead(fn, x0, options))


class TestNdtrMatchesNormCdf:
    def test_infinities(self):
        for x, expected in ((math.inf, 1.0), (-math.inf, 0.0)):
            assert ndtr(x) == norm.cdf(x) == expected
            assert ndtr(np.float64(x)) == norm.cdf(np.float64(x)) == expected

    def test_finite_grid(self):
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 4001),
            np.random.default_rng(5).normal(scale=10.0, size=2000),
            [0.0, -0.0, 1e-300, -1e-300, 8.2, -38.5],
        ])
        assert np.array_equal(ndtr(x), norm.cdf(x))
