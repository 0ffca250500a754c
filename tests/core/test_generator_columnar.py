"""Tests for the vectorized columnar workload generator.

The contract with the scalar reference
(``event_reference.EventWorkloadGenerator``) is *distributional
equivalence* (same model, different draw order → KS-indistinguishable
realizations), plus hard guarantees of its own: byte-identical output
across runs and worker counts, lossless round-trips to session objects
and ``.npz``.
"""

import numpy as np
import pytest

from repro.core import (
    ColumnarWorkload,
    SyntheticWorkloadGenerator,
    from_npz,
    generate_columnar_workload,
    to_npz,
)
from repro.core.events import GeneratedQuery, GeneratedSession
from repro.core.generator_columnar import SLOTS_PER_SHARD, WORKLOAD_REGION_CODE
from repro.core.model import WorkloadModel
from repro.core.popularity import CLASS_ORDER, QueryUniverse
from repro.core.regions import MAJOR_REGIONS, Region
from equivalence_reference import generator_ks_checks
from event_reference import EventWorkloadGenerator, columnar_from_sessions


@pytest.fixture(scope="module")
def workload():
    gen = SyntheticWorkloadGenerator(n_peers=120, seed=9)
    return gen.generate_columnar(duration_seconds=4 * 3600.0)


class TestStructure:
    def test_validates(self, workload):
        assert workload.validate() is workload
        assert workload.n_sessions > 120
        assert workload.n_queries > 0

    def test_sessions_sorted_by_start(self, workload):
        assert (np.diff(workload.session_start) >= 0).all()

    def test_steady_state_first_wave(self, workload):
        # Every slot starts its first session at t=0.
        assert (workload.session_start[:120] == 0.0).all()

    def test_queries_grouped_and_sorted(self, workload):
        assert (np.diff(workload.query_session) >= 0).all()
        same = np.diff(workload.query_session) == 0
        assert (np.diff(workload.query_offset)[same] >= 0).all()

    def test_passive_sessions_have_no_queries(self, workload):
        assert not workload.session_passive[workload.query_session].any()

    def test_offsets_within_duration(self, workload):
        assert (
            workload.query_offset
            <= workload.session_duration[workload.query_session] + 1e-9
        ).all()
        assert (workload.query_offset >= 0).all()

    def test_only_major_regions_emitted(self, workload):
        assert set(np.unique(workload.session_region)) <= {
            WORKLOAD_REGION_CODE[r] for r in MAJOR_REGIONS
        }

    def test_query_counts_and_index_agree(self, workload):
        counts = workload.query_counts()
        index = workload.query_index()
        assert counts.sum() == workload.n_queries
        assert (np.diff(index) == counts).all()


class TestDeterminism:
    def test_same_seed_identical(self):
        gen_a = SyntheticWorkloadGenerator(n_peers=60, seed=21)
        gen_b = SyntheticWorkloadGenerator(n_peers=60, seed=21)
        assert gen_a.generate_columnar(3600.0).equals(gen_b.generate_columnar(3600.0))

    def test_different_seed_differs(self):
        gen_a = SyntheticWorkloadGenerator(n_peers=60, seed=21)
        gen_b = SyntheticWorkloadGenerator(n_peers=60, seed=22)
        assert not gen_a.generate_columnar(3600.0).equals(gen_b.generate_columnar(3600.0))

    def test_jobs_do_not_change_output(self, monkeypatch):
        # Multi-shard run (n_peers > SLOTS_PER_SHARD); force the worker
        # pool to actually spawn even on a single-CPU host so the pooled
        # code path is exercised, not just the sequential fallback.
        import repro.core.kernels.sharding as sharding

        n_peers = SLOTS_PER_SHARD + 700
        gen = SyntheticWorkloadGenerator(n_peers=n_peers, seed=5)
        serial = gen.generate_columnar(900.0, jobs=1)
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        pooled_2 = gen.generate_columnar(900.0, jobs=2)
        pooled_4 = gen.generate_columnar(900.0, jobs=4)
        assert serial.equals(pooled_2)
        assert serial.equals(pooled_4)


class TestBackendEquivalence:
    def test_ks_equivalence_at_fixed_seed(self):
        # Session duration, queries/session, interarrival, first/last
        # query gaps, and the hourly region mix must all be
        # KS-indistinguishable between the two engines.
        duration = 12 * 3600.0
        event = columnar_from_sessions(
            EventWorkloadGenerator(n_peers=250, seed=33).iter_sessions(duration)
        )
        columnar = SyntheticWorkloadGenerator(
            n_peers=250, seed=33
        ).generate_columnar(duration)
        checks = generator_ks_checks(event, columnar)
        assert checks["ok"] is True, checks
        # Same scale, different realizations: volumes agree broadly.
        gap = abs(columnar.n_sessions - event.n_sessions)
        assert gap / event.n_sessions < 0.35, (event.n_sessions, columnar.n_sessions)

    def test_backend_dispatch(self):
        # Every output form is the one columnar workload.
        gen = SyntheticWorkloadGenerator(n_peers=30, seed=3)
        workload = gen.generate_columnar(1800.0)
        for sessions in (gen.generate(1800.0), list(gen.iter_sessions(1800.0))):
            assert workload.equals(columnar_from_sessions(sessions))
        assert not hasattr(gen, "backend")

    def test_invalid_backend_rejected(self):
        # One engine: the generator takes no engine selector at all.
        for backend in ("columnar", "event", "vectorized"):
            with pytest.raises(TypeError, match="backend"):
                SyntheticWorkloadGenerator(backend=backend)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            SyntheticWorkloadGenerator(jobs=0)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            SyntheticWorkloadGenerator(n_peers=5).generate_columnar(0.0)

    def test_fitted_model_accepted(self):
        # from_fits models close over the paper model; the conditional
        # grid must still materialize and the wave engine still run.
        model = WorkloadModel.from_fits(
            passive_duration={}, queries_per_session={},
            first_query={}, interarrival={}, last_query={},
        )
        workload = generate_columnar_workload(
            model=model, universe=QueryUniverse(), n_peers=40, seed=8,
            duration_seconds=1800.0,
        )
        assert workload.n_sessions >= 40


class TestRoundTrips:
    def test_sessions_round_trip(self, workload):
        rebuilt = columnar_from_sessions(workload.iter_sessions())
        assert workload.equals(rebuilt)

    def test_session_objects_well_formed(self, workload):
        session = next(workload.iter_sessions())
        assert isinstance(session, GeneratedSession)
        assert session.region in MAJOR_REGIONS
        for query in session.queries:
            assert isinstance(query, GeneratedQuery)
            assert query.query_class in {c.value for c in CLASS_ORDER}

    def test_npz_round_trip(self, workload, tmp_path):
        path = to_npz(workload, tmp_path / "w.npz")
        assert workload.equals(from_npz(path))

    def test_npz_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, values=np.arange(3))
        with pytest.raises(ValueError, match="not a columnar workload"):
            from_npz(path)

    def test_from_sessions_rejects_unknown_region(self):
        bad = GeneratedSession(
            region=Region.OTHER, start=0.0, duration=1.0, passive=True
        )
        # OTHER itself is representable; a non-Region value is not.
        assert columnar_from_sessions([bad]).n_sessions == 1
        with pytest.raises(ValueError, match="unknown region"):
            columnar_from_sessions(
                [GeneratedSession(region="mars", start=0.0, duration=1.0, passive=True)]
            )


class TestValidateFailures:
    def _arrays(self):
        return dict(
            session_region=np.zeros(2, dtype=np.int8),
            session_start=np.zeros(2),
            session_duration=np.ones(2),
            session_passive=np.array([False, True]),
            query_session=np.zeros(1, dtype=np.int64),
            query_offset=np.zeros(1),
            query_rank=np.ones(1, dtype=np.int64),
            query_class=np.zeros(1, dtype=np.int8),
            query_keywords=np.array(["q"]),
        )

    def test_length_mismatch(self):
        arrays = self._arrays()
        arrays["session_duration"] = np.ones(3)
        with pytest.raises(ValueError, match="rows"):
            ColumnarWorkload(**arrays).validate()

    def test_query_on_passive_session(self):
        arrays = self._arrays()
        arrays["query_session"] = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="passive"):
            ColumnarWorkload(**arrays).validate()

    def test_out_of_range_session_index(self):
        arrays = self._arrays()
        arrays["query_session"] = np.array([7], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            ColumnarWorkload(**arrays).validate()

    def test_ungrouped_queries(self):
        arrays = self._arrays()
        arrays["session_passive"] = np.array([False, False])
        arrays["query_session"] = np.array([1, 0], dtype=np.int64)
        for name in ("query_offset", "query_rank", "query_class"):
            arrays[name] = np.concatenate([arrays[name], arrays[name]])
        arrays["query_keywords"] = np.array(["q", "q"])
        with pytest.raises(ValueError, match="grouped"):
            ColumnarWorkload(**arrays).validate()

    def test_bad_rank(self):
        arrays = self._arrays()
        arrays["query_rank"] = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="ranks"):
            ColumnarWorkload(**arrays).validate()
