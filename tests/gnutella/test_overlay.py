"""Tests for the overlay network simulator."""

import numpy as np
import pytest

from repro.core.regions import Region
from gnutella_reference.overlay import OverlayNetwork
from gnutella_reference.peer import PeerMode


@pytest.fixture(scope="module")
def net():
    net = OverlayNetwork(n_ultrapeers=40, n_leaves=120, seed=21)
    catalog = [f"file {i}" for i in range(300)]
    net.seed_libraries(catalog, mean_files=12)
    return net


class TestTopology:
    def test_population_counts(self, net):
        modes = [n.mode for n in net.nodes.values()]
        assert modes.count(PeerMode.ULTRAPEER) == 40
        assert modes.count(PeerMode.LEAF) == 120

    def test_leaf_degree(self, net):
        degrees = net.degree_distribution()["leaf"]
        assert all(d == 2 for d in degrees)

    def test_ultrapeer_connected_mesh(self, net):
        degrees = net.degree_distribution()["ultrapeer"]
        assert min(degrees) >= 1

    def test_connections_bidirectional(self, net):
        for node_id, node in net.nodes.items():
            for neighbour in node.neighbours:
                assert node_id in net.nodes[neighbour].neighbours

    def test_no_geographic_bias(self):
        # Section 3.1: overlay construction has no geographic bias, so a
        # node's one-hop mix should track the global mix.
        weights = {Region.NORTH_AMERICA: 0.6, Region.EUROPE: 0.2,
                   Region.ASIA: 0.13, Region.OTHER: 0.07}
        net = OverlayNetwork(n_ultrapeers=60, n_leaves=0, ultrapeer_degree=20,
                             region_weights=weights, seed=5)
        mixes = [net.one_hop_region_mix(i) for i in net.nodes]
        avg_na = np.mean([m.get(Region.NORTH_AMERICA, 0.0) for m in mixes])
        assert avg_na == pytest.approx(0.6, abs=0.08)

    def test_disconnect(self, net):
        a = next(iter(net.nodes))
        b = next(iter(net.nodes[a].neighbours))
        net.disconnect(a, b)
        assert b not in net.nodes[a].neighbours
        assert a not in net.nodes[b].neighbours
        net.connect(a, b)  # restore for other tests

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            OverlayNetwork(n_ultrapeers=1)
        with pytest.raises(ValueError):
            OverlayNetwork(ultrapeer_degree=0)


class TestFlooding:
    def test_flood_reaches_peers_and_returns_hits(self, net):
        origin = next(i for i, n in net.nodes.items() if n.is_ultrapeer)
        target = next(iter(net.nodes[origin].library), None) or "file 7"
        # Ensure at least one other peer shares the string.
        some_other = [i for i in net.nodes if i != origin][0]
        net.nodes[some_other].library.add(target)
        outcome = net.flood_query(origin, target, ttl=7)
        assert outcome.messages_sent > 0
        assert outcome.reach > 0
        assert outcome.hits >= 1

    def test_ttl_limits_reach(self):
        net = OverlayNetwork(n_ultrapeers=40, n_leaves=0, ultrapeer_degree=3, seed=8)
        origin = next(iter(net.nodes))
        near = net.flood_query(origin, "nothing shared", ttl=1)
        far = net.flood_query(origin, "nothing shared either", ttl=6)
        assert near.reach <= far.reach
        # TTL 1: the query stops at the direct neighbours.
        assert near.reach <= len(net.nodes[origin].neighbours)

    def test_no_hit_without_sharers(self, net):
        origin = next(i for i, n in net.nodes.items() if n.is_ultrapeer)
        outcome = net.flood_query(origin, "definitely not in any library", ttl=7)
        assert outcome.hits == 0

    def test_hit_latency_recorded(self, net):
        origin = next(i for i, n in net.nodes.items() if n.is_ultrapeer)
        other = [i for i in net.nodes if i != origin][5]
        net.nodes[other].library.add("latency probe")
        outcome = net.flood_query(origin, "latency probe", ttl=7)
        if outcome.hits:
            assert all(lat > 0 for lat in outcome.hit_latency)


class TestLibraries:
    def test_seed_libraries_poisson(self, net):
        sizes = [len(n.library) for n in net.nodes.values()]
        assert np.mean(sizes) == pytest.approx(12, abs=2.5)

    def test_empty_catalog_rejected(self, net):
        with pytest.raises(ValueError):
            net.seed_libraries([])
