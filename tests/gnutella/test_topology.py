"""Tests for the CSR array topology behind the columnar overlay engine."""

import numpy as np
import pytest

from repro.gnutella.topology import CSRTopology
from gnutella_reference.backbone import from_overlay
from gnutella_reference.overlay import OverlayNetwork


def small_topo(capacity=10):
    topo = CSRTopology(capacity)
    topo.add_nodes(np.arange(6), np.array([True, True, True, False, False, False]))
    topo.connect(np.array([0, 1, 2, 0, 1]), np.array([1, 2, 0, 3, 4]))
    return topo


class TestLifecycle:
    def test_counts(self):
        topo = small_topo()
        assert topo.n_nodes == 6
        assert topo.n_edges == 5
        topo.validate()

    def test_neighbours_sorted(self):
        topo = small_topo()
        assert topo.neighbours(0).tolist() == [1, 2, 3]
        assert topo.neighbours(4).tolist() == [1]

    def test_degrees(self):
        topo = small_topo()
        assert topo.degrees()[:6].tolist() == [3, 3, 2, 1, 1, 0]

    def test_double_activation_rejected(self):
        topo = small_topo()
        with pytest.raises(ValueError, match="already active"):
            topo.add_nodes(np.array([0]), np.array([True]))

    def test_remove_detaches(self):
        topo = small_topo()
        topo.remove_nodes(np.array([1]))
        assert not topo.active[1]
        assert topo.n_edges == 2
        assert 1 not in topo.neighbours(0).tolist()
        topo.validate()

    def test_connect_idempotent(self):
        topo = small_topo()
        before = topo.n_edges
        topo.connect(np.array([0, 1]), np.array([1, 0]))
        assert topo.n_edges == before

    def test_disconnect_ignores_absent(self):
        topo = small_topo()
        topo.disconnect(np.array([3]), np.array([4]))
        assert topo.n_edges == 5

    def test_self_loop_rejected(self):
        topo = small_topo()
        with pytest.raises(ValueError, match="itself"):
            topo.connect(np.array([2]), np.array([2]))

    def test_inactive_endpoint_rejected(self):
        topo = small_topo()
        with pytest.raises(ValueError, match="inactive"):
            topo.connect(np.array([0]), np.array([7]))

    def test_out_of_range_rejected(self):
        topo = small_topo()
        with pytest.raises(IndexError):
            topo.connect(np.array([0]), np.array([10]))

    def test_has_edges(self):
        topo = small_topo()
        got = topo.has_edges(np.array([0, 3, 0]), np.array([1, 4, 5]))
        assert got.tolist() == [True, False, False]

    def test_churn_round_trip(self):
        # A join/connect/disconnect/leave cycle restores the edge set.
        topo = small_topo(capacity=12)
        before = topo.edge_keys.copy()
        topo.add_nodes(np.array([8, 9]), np.array([True, False]))
        topo.connect(np.array([8, 8, 9]), np.array([0, 9, 1]))
        assert topo.n_edges == 8
        topo.validate()
        topo.remove_nodes(np.array([8, 9]))
        assert np.array_equal(topo.edge_keys, before)
        topo.validate()


class TestFromOverlay:
    def test_parity_with_object_graph(self):
        net = OverlayNetwork(n_ultrapeers=8, n_leaves=20, seed=5)
        topo, node_ids = from_overlay(net)
        index = {n: i for i, n in enumerate(node_ids)}
        assert topo.n_nodes == len(net.nodes)
        for node_id, node in net.nodes.items():
            i = index[node_id]
            assert topo.is_ultrapeer[i] == node.is_ultrapeer
            got = set(topo.neighbours(i).tolist())
            want = {index[nb] for nb in node.neighbours}
            assert got == want

    def test_capacity_reserves_churn_slots(self):
        net = OverlayNetwork(n_ultrapeers=4, n_leaves=6, seed=5)
        topo, node_ids = from_overlay(net, capacity=50)
        assert topo.capacity == 50
        assert topo.n_nodes == len(node_ids)
        assert not topo.active[len(node_ids):].any()

    def test_capacity_too_small_rejected(self):
        net = OverlayNetwork(n_ultrapeers=4, n_leaves=6, seed=5)
        with pytest.raises(ValueError, match="capacity"):
            from_overlay(net, capacity=3)
