"""The process-pool experiment fan-out must be invisible in the results.

``run_many(..., jobs=N)`` has one contract: same results, same order,
as the sequential path -- worker scheduling must never leak into
output.  These run at tiny scale; the performance story is the
benchmark suite's job.
"""

import pytest

from repro.experiments import ExperimentContext, run_many
from repro.experiments import registry
from repro.experiments.registry import effective_run_jobs
from repro.synthesis import SynthesisConfig, TraceCache

CFG = SynthesisConfig(days=0.05, mean_arrival_rate=0.3, seed=20040315)

#: A cross-section of experiment families (tables, geography, active,
#: popularity, generator) -- enough to exercise distinct context views
#: in the workers without running all 26 at test scale.
IDS = ["T1", "T2", "F1", "F6", "F10", "G1"]


def _rows(results):
    return [(r.experiment_id, r.rows, r.notes) for r in results]


class TestParallelParity:
    def test_jobs2_matches_sequential_with_cache(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        sequential = run_many(IDS, ExperimentContext(CFG, cache=cache))
        parallel = run_many(IDS, ExperimentContext(CFG, cache=cache), jobs=2)
        assert [r.experiment_id for r in parallel] == IDS
        assert _rows(parallel) == _rows(sequential)

    def test_jobs2_matches_sequential_without_cache(self):
        # A cache-less context gets a private temp cache for the workers.
        sequential = run_many(IDS, ExperimentContext(CFG))
        parallel = run_many(IDS, ExperimentContext(CFG), jobs=2)
        assert _rows(parallel) == _rows(sequential)

    def test_more_jobs_than_experiments(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        results = run_many(["T1", "T2"], ExperimentContext(CFG, cache=cache), jobs=8)
        assert [r.experiment_id for r in results] == ["T1", "T2"]


class TestRunManyValidation:
    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="NOPE"):
            run_many(["T1", "NOPE"], ExperimentContext(CFG))

    def test_jobs_one_stays_in_process(self, tmp_path):
        # jobs=1 must not pay pool overhead: the trace is synthesized in
        # this process and no cache entry is required.
        ctx = ExperimentContext(CFG)
        results = run_many(["T1"], ctx, jobs=1)
        assert results[0].experiment_id == "T1"
        assert "shards" in ctx.__dict__  # synthesized here, not in a worker


class TestEffectiveJobs:
    """Requested workers are capped at tasks and CPUs (regression: a
    jobs=8 run on a 1-2 core host used to fork 8 workers and lose to
    the sequential path on pool overhead alone)."""

    def test_caps_at_task_count(self, monkeypatch):
        monkeypatch.setattr(registry, "available_cpus", lambda: 64)
        assert effective_run_jobs(8, 2) == 2

    def test_caps_at_available_cpus(self, monkeypatch):
        monkeypatch.setattr(registry, "available_cpus", lambda: 2)
        assert effective_run_jobs(8, 26) == 2

    def test_single_cpu_falls_back_to_sequential(self, monkeypatch):
        monkeypatch.setattr(registry, "available_cpus", lambda: 1)
        assert effective_run_jobs(8, 26) == 1

    def test_none_means_sequential(self):
        assert effective_run_jobs(None, 26) == 1

    def test_single_cpu_run_many_never_forks(self, monkeypatch):
        monkeypatch.setattr(registry, "available_cpus", lambda: 1)

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("pool must not be used on a 1-CPU host")

        monkeypatch.setattr(registry, "_run_parallel", boom)
        ctx = ExperimentContext(CFG)
        results = run_many(["T1", "T2"], ctx, jobs=8)
        assert [r.experiment_id for r in results] == ["T1", "T2"]

    def test_pool_path_parity(self, tmp_path, monkeypatch):
        # Exercise the process-pool path directly so its parity holds
        # even when the host CPU cap would route around it.
        cache = TraceCache(tmp_path / "cache")
        sequential = run_many(IDS, ExperimentContext(CFG, cache=cache))
        pooled = registry._run_parallel(
            list(IDS), ExperimentContext(CFG, cache=cache), 2
        )
        assert _rows(pooled) == _rows(sequential)
