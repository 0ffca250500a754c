"""Unit tests for empirical statistics helpers."""

import warnings

import numpy as np
import pytest

from repro.core.stats import (
    Ccdf,
    TimeOfDayBinner,
    ccdf_at,
    empirical_ccdf,
    log_bins,
    rank_pmf,
    ratio_binner_fraction,
)


class TestEmpiricalCcdf:
    def test_simple_values(self):
        ccdf = empirical_ccdf([1.0, 2.0, 3.0, 4.0])
        assert ccdf.at(2.0) == pytest.approx(0.5)
        assert ccdf.at(0.5) == 1.0
        assert ccdf.at(4.0) == 0.0

    def test_duplicates_collapse(self):
        ccdf = empirical_ccdf([1.0, 1.0, 1.0, 2.0])
        assert len(ccdf) == 2
        assert ccdf.at(1.0) == pytest.approx(0.25)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        ccdf = empirical_ccdf(rng.exponential(5.0, 500))
        assert np.all(np.diff(ccdf.fraction) <= 0)

    def test_quantile_exceeded(self):
        ccdf = empirical_ccdf(list(range(1, 101)))
        # P[X > 90] = 0.10, so the 10%-exceedance point is 90.
        assert ccdf.quantile_exceeded(0.10) == pytest.approx(90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_ccdf([])

    def test_ccdf_at_points(self):
        out = ccdf_at([1.0, 2.0, 3.0, 4.0], [0.0, 2.5, 10.0])
        assert out == pytest.approx([1.0, 0.5, 0.0])


class TestRankPmf:
    def test_sorted_descending_and_normalized(self):
        pmf = rank_pmf({"a": 10, "b": 30, "c": 60})
        assert pmf == pytest.approx([0.6, 0.3, 0.1])

    def test_top_truncation(self):
        pmf = rank_pmf({"a": 5, "b": 4, "c": 1}, top=2)
        assert len(pmf) == 2
        assert pmf.sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_pmf({})


class TestLogBins:
    def test_spans_range(self):
        bins = log_bins(1.0, 10_000.0)
        assert bins[0] == pytest.approx(1.0)
        assert bins[-1] == pytest.approx(10_000.0)

    def test_log_spacing(self):
        bins = log_bins(1.0, 100.0, per_decade=5)
        ratios = bins[1:] / bins[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_bins(0.0, 10.0)
        with pytest.raises(ValueError):
            log_bins(10.0, 1.0)


class TestTimeOfDayBinner:
    def test_binning_by_hour(self):
        binner = TimeOfDayBinner()
        binner.add(3 * 3600 + 10)       # day 0, hour 3
        binner.add(86400 + 3 * 3600)    # day 1, hour 3
        binner.add(86400 + 5 * 3600)    # day 1, hour 5
        avg = binner.average()
        assert avg[3] == pytest.approx(1.0)
        assert avg[5] == pytest.approx(0.5)

    def test_min_max_curves(self):
        binner = TimeOfDayBinner()
        binner.add(0.0, 2.0)           # day 0, hour 0
        binner.add(86400.0, 6.0)       # day 1, hour 0
        assert binner.minimum()[0] == pytest.approx(2.0)
        assert binner.maximum()[0] == pytest.approx(6.0)

    def test_weighted_values(self):
        binner = TimeOfDayBinner(bin_seconds=1800)
        binner.add(900.0, 5.0)
        assert binner.day_curve(0)[0] == pytest.approx(5.0)
        assert binner.n_bins == 48

    def test_rejects_non_divisor_bin(self):
        with pytest.raises(ValueError):
            TimeOfDayBinner(bin_seconds=7000)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeOfDayBinner().average()

    def test_bin_starts(self):
        binner = TimeOfDayBinner(bin_seconds=1800)
        starts = binner.bin_starts_hours()
        assert starts[0] == 0.0
        assert starts[1] == pytest.approx(0.5)


class TestRatioBinnerFraction:
    def test_fraction_computed_per_day(self):
        num, den = TimeOfDayBinner(), TimeOfDayBinner()
        for _ in range(2):
            den.add(3600.0)
        num.add(3600.0)
        den.add(7200.0)
        avg, lo, hi = ratio_binner_fraction(num, den)
        assert avg[1] == pytest.approx(0.5)
        assert np.isnan(avg[5])  # no sessions at hour 5

    def test_empty_bins_stay_nan_without_warnings(self):
        num, den = TimeOfDayBinner(), TimeOfDayBinner()
        for day in range(2):
            num.add(day * 86400.0 + 3600.0)
            den.add(day * 86400.0 + 3600.0)
            den.add(day * 86400.0 + 3600.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            avg, lo, hi = ratio_binner_fraction(num, den)
        assert avg[1] == lo[1] == hi[1] == 0.5
        assert np.isnan(avg[5]) and np.isnan(lo[5]) and np.isnan(hi[5])

    def test_requires_overlapping_days(self):
        num, den = TimeOfDayBinner(), TimeOfDayBinner()
        num.add(0.0)
        den.add(86400.0)
        with pytest.raises(ValueError):
            ratio_binner_fraction(num, den)
