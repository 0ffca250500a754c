"""Tests for the delta-stepped batched overlay engine.

The heart of this file is the equivalence battery: one Fig. 12
workload replayed through the columnar array engine and through the
scalar ``PeerNode``/``EventScheduler`` reference
(``event_reference.simulate_workload_event``), with every observable
compared -- per-query message counts, hits, reach sets with depths, the
monitor's hop-1 capture stream, the reconstructed sessions, and the
keepalive totals.  The property suite in
``tests/property/test_overlay_equivalence.py`` extends the same claim
to randomized topologies and floods.
"""

import numpy as np
import pytest

from repro.core import SyntheticWorkloadGenerator
from repro.gnutella.columnar_overlay import (
    OverlayConfig,
    _prepare,
    flood_queries,
    simulate_workload,
)
from equivalence_reference import compare_runs
from event_reference import flood_context_from_overlay, simulate_workload_event
from gnutella_reference.backbone import build_object_backbone, check_backbone
from gnutella_reference.overlay import OverlayNetwork

RUN_SECONDS = 900.0


def _workload(n_peers, seed):
    return SyntheticWorkloadGenerator(n_peers=n_peers, seed=seed).generate_columnar(
        RUN_SECONDS
    )


@pytest.fixture(scope="module")
def workload():
    return _workload(80, 7)


@pytest.fixture(scope="class")
def both_runs(workload):
    columnar = simulate_workload(workload, RUN_SECONDS, record_reach=True)
    event = simulate_workload_event(workload, RUN_SECONDS, record_reach=True)
    return columnar, event


class TestBackendEquivalence:
    def test_battery_all_identical(self, both_runs):
        columnar, event = both_runs
        checks = compare_runs(columnar, event)
        assert checks["ok"], checks

    def test_reach_sets_compared(self, both_runs):
        # record_reach=True must make the battery cover per-node depths.
        columnar, event = both_runs
        checks = compare_runs(columnar, event)
        assert "reach_sets" in checks
        assert columnar.reach_node is not None

    def test_population_and_churn(self, both_runs):
        columnar, _ = both_runs
        assert columnar.peers_simulated > 100
        # Churn actually happened: some sessions departed inside the run.
        departed = columnar.session_end_observed < RUN_SECONDS
        assert departed.any() and not departed.all()

    def test_monitor_captures_every_query(self, both_runs):
        columnar, _ = both_runs
        assert columnar.hop1_session.size == columnar.n_queries
        assert (np.diff(columnar.hop1_session) >= 0).all()

    def test_jobs_byte_identity(self, workload, both_runs):
        columnar, _ = both_runs
        sharded = simulate_workload(
            workload, RUN_SECONDS, jobs=3, record_reach=True
        )
        assert compare_runs(columnar, sharded)["ok"]

    def test_message_accounting(self, both_runs):
        columnar, _ = both_runs
        # The total is exactly the per-query sum (flood copies plus the
        # QUERYHIT reverse-routing legs, folded per query).
        assert columnar.messages_total == int(columnar.query_messages.sum())
        assert columnar.keepalive_pings > 0
        assert columnar.keepalive_pongs > 0


class TestBackendEquivalence150Peers(TestBackendEquivalence):
    """The same battery on a second input: 150 peers, seed 11."""

    @pytest.fixture(scope="class")
    def workload(self):
        return _workload(150, 11)


class TestBackboneIdentity:
    def test_arrays_are_the_object_build(self, workload):
        # The run's backbone, drawn as arrays at the module constants
        # over the workload's vocabulary, is the object overlay's.
        _, backbone, plan = _prepare(workload, RUN_SECONDS, None)
        overlay, ups = build_object_backbone(plan.vocab)
        check_backbone(backbone, overlay, ups, plan.vocab)
        assert backbone.is_ultrapeer.size == 73
        assert backbone.lib_codes.size > 0


class TestValidation:
    def test_only_ttl_and_delta_are_settable(self):
        assert OverlayConfig(delta_seconds=20.0, ttl=6) == OverlayConfig(20.0, 6)
        with pytest.raises(TypeError):
            OverlayConfig(seed=3)

    def test_unknown_backend_rejected(self, workload):
        # One engine: the library takes no engine selector at all.
        for backend in ("columnar", "event", "gpu"):
            with pytest.raises(TypeError, match="backend"):
                simulate_workload(workload, RUN_SECONDS, backend=backend)

    def test_bad_run_seconds_rejected(self, workload):
        with pytest.raises(ValueError, match="run_seconds"):
            simulate_workload(workload, 0.0)

    def test_bad_ttl_rejected(self, workload):
        config = OverlayConfig(ttl=0)
        with pytest.raises(ValueError, match="ttl"):
            simulate_workload(workload, RUN_SECONDS, config=config)


class TestFloodKernel:
    @pytest.fixture(scope="class")
    def context(self):
        net = OverlayNetwork(
            n_ultrapeers=10, n_leaves=30, latency_ms=(0.0, 0.0), seed=3
        )
        net.seed_libraries([f"file {i}" for i in range(40)], mean_files=5.0)
        ctx, node_ids = flood_context_from_overlay(net, extra_vocab=["file 1"])
        return net, ctx, node_ids

    def test_matches_scalar_flood(self, context):
        net, ctx, node_ids = context
        index = {n: i for i, n in enumerate(node_ids)}
        origin = node_ids[0]
        outcome = net.flood_query(origin, "file 1", ttl=3)
        result = flood_queries(
            ctx,
            np.array([index[origin]]),
            ctx.codes_for(["file 1"]),
            ttl=3,
            record_reach=True,
        )
        assert int(result.messages[0]) == outcome.messages_sent
        assert int(result.hits[0]) == outcome.hits
        want = {index[p] for p in outcome.peers_reached} | {index[origin]}
        assert set(result.reach_node.tolist()) == want

    def test_unknown_vocab_rejected(self, context):
        _, ctx, _ = context
        with pytest.raises(ValueError):
            ctx.codes_for(["definitely not in the vocab"])

    def test_bad_ttl_rejected(self, context):
        _, ctx, node_ids = context
        with pytest.raises(ValueError, match="ttl"):
            flood_queries(ctx, np.array([0]), ctx.codes_for(["file 1"]), ttl=0)
