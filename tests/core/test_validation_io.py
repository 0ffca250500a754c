"""Tests for the validation utilities and workload export/import."""

import numpy as np
import pytest

from repro.core import Region, SyntheticWorkloadGenerator
from repro.core.distributions import Lognormal
from repro.core.validation import ccdf_max_gap, compare_models, quantile_report
from repro.core.workload_io import from_jsonl, to_csv, to_event_schedule, to_jsonl

RNG = np.random.default_rng(55)


class TestQuantileReport:
    def test_identical_samples(self):
        a = list(range(1, 101))
        rows = quantile_report(a, a)
        for row in rows:
            assert row["log10_ratio"] == pytest.approx(0.0)

    def test_shifted_sample(self):
        a = np.array(range(1, 101), dtype=float)
        rows = quantile_report(a, a * 10.0)
        for row in rows:
            assert row["log10_ratio"] == pytest.approx(-1.0, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile_report([], [1.0])


class TestCcdfMaxGap:
    def test_identical_zero_gap(self):
        a = [1.0, 2.0, 3.0]
        assert ccdf_max_gap(a, a) == 0.0

    def test_disjoint_full_gap(self):
        assert ccdf_max_gap([1.0, 2.0], [10.0, 20.0]) == pytest.approx(1.0)

    def test_matches_ks_statistic(self):
        # SciPy is a test-only oracle: the gap is the two-sample KS statistic.
        from scipy.stats import ks_2samp

        a = Lognormal(0.0, 1.0).sample(RNG, 500)
        b = Lognormal(0.5, 1.0).sample(RNG, 700)
        assert ccdf_max_gap(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-9)


class TestCompareModels:
    def test_verdicts(self):
        close = Lognormal(1.0, 1.0).sample(RNG, 3000)
        close_b = Lognormal(1.0, 1.0).sample(RNG, 3000)
        far = Lognormal(4.0, 1.0).sample(RNG, 3000)
        verdicts = compare_models({
            "same": (close, close_b),
            "shifted": (close, far),
        })
        by_name = {v.name: v for v in verdicts}
        assert by_name["same"].close
        assert not by_name["shifted"].close
        assert "DIVERGENT" in str(by_name["shifted"])

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            compare_models({}, tolerance=0.0)


class TestWorkloadIo:
    @pytest.fixture(scope="class")
    def sessions(self):
        return SyntheticWorkloadGenerator(n_peers=30, seed=3).generate(1800.0)

    def test_jsonl_roundtrip(self, sessions, tmp_path):
        path = tmp_path / "workload.jsonl"
        written = to_jsonl(sessions, path)
        assert written == len(sessions)
        loaded = from_jsonl(path)
        assert len(loaded) == len(sessions)
        for a, b in zip(sessions, loaded):
            assert a.region == b.region
            assert a.start == b.start
            assert a.duration == b.duration
            assert [q.keywords for q in a.queries] == [q.keywords for q in b.queries]

    def test_invalid_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            from_jsonl(path)

    def test_csv_summary(self, sessions, tmp_path):
        path = tmp_path / "workload.csv"
        rows = to_csv(sessions, path)
        lines = path.read_text().splitlines()
        assert len(lines) == rows + 1  # header
        assert lines[0].startswith("region,start,duration")

    def test_event_schedule(self, sessions):
        events = to_event_schedule(sessions)
        times = [e[0] for e in events]
        assert times == sorted(times)
        kinds = {e[2] for e in events}
        assert kinds == {"connect", "query", "disconnect"} or kinds == {"connect", "disconnect"}
        # Each peer connects exactly once and disconnects exactly once.
        connects = [e[1] for e in events if e[2] == "connect"]
        disconnects = [e[1] for e in events if e[2] == "disconnect"]
        assert sorted(connects) == sorted(set(connects))
        assert sorted(connects) == sorted(disconnects)

    def test_schedule_queries_inside_sessions(self, sessions):
        events = to_event_schedule(sessions)
        window = {}
        for time, peer, kind, _ in events:
            if kind == "connect":
                window[peer] = [time, None]
            elif kind == "disconnect":
                window[peer][1] = time
        for time, peer, kind, _ in events:
            if kind == "query":
                lo, hi = window[peer]
                assert lo <= time <= (hi if hi is not None else float("inf")) + 1e-9
