"""Tests for peer forwarding rules (Section 3.1 semantics)."""

import pytest

from gnutella_reference.messages import Ping, Pong, Query, QueryHit, new_guid
from gnutella_reference.peer import PeerMode, PeerNode


def make_ultrapeer(node_id="up0", neighbours=()):
    node = PeerNode(node_id=node_id, ip="64.0.0.1", mode=PeerMode.ULTRAPEER)
    for n, mode in neighbours:
        node.add_neighbour(n, mode)
    return node


class TestConnections:
    def test_add_and_remove(self):
        node = make_ultrapeer()
        node.add_neighbour("a", PeerMode.LEAF)
        assert "a" in node.neighbours
        node.remove_neighbour("a")
        assert "a" not in node.neighbours

    def test_no_self_connection(self):
        node = make_ultrapeer()
        with pytest.raises(ValueError):
            node.add_neighbour("up0", PeerMode.ULTRAPEER)

    def test_capacity_enforced(self):
        node = PeerNode(node_id="x", ip="1.1.1.1", max_connections=1)
        node.add_neighbour("a", PeerMode.ULTRAPEER)
        with pytest.raises(ValueError):
            node.add_neighbour("b", PeerMode.ULTRAPEER)


class TestOriginateQuery:
    def test_sent_to_all_neighbours_with_hops_one(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER), ("b", PeerMode.LEAF)])
        query, actions = node.originate_query("free music", now=0.0)
        assert query.hops == 0
        assert len(actions) == 2
        for _, sent in actions:
            assert sent.hops == 1  # one-hop observation property
            assert sent.ttl == query.ttl - 1


class TestQueryForwarding:
    def test_ultrapeer_forwards_to_ultrapeers_not_leaves(self):
        node = make_ultrapeer(neighbours=[
            ("origin", PeerMode.ULTRAPEER),
            ("up1", PeerMode.ULTRAPEER),
            ("leaf1", PeerMode.LEAF),
        ])
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="xyz")
        actions = node.handle(q, "origin", now=0.0)
        targets = [dest for dest, _ in actions]
        assert "up1" in targets
        assert "leaf1" not in targets  # no QRP hint -> leaf spared
        assert "origin" not in targets

    def test_duplicate_guid_dropped(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER), ("b", PeerMode.ULTRAPEER)])
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="xyz")
        assert node.handle(q, "a", now=0.0)
        assert node.handle(q, "b", now=1.0) == []
        assert node.stats["queries_dropped_dup"] == 1

    def test_ttl_exhaustion_stops_forwarding(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER), ("b", PeerMode.ULTRAPEER)])
        q = Query(guid=new_guid(), ttl=0, hops=7, keywords="xyz")
        assert node.handle(q, "a", now=0.0) == []

    def test_leaf_never_forwards(self):
        leaf = PeerNode(node_id="l0", ip="2.2.2.2", mode=PeerMode.LEAF)
        leaf.add_neighbour("up", PeerMode.ULTRAPEER)
        leaf.add_neighbour("up2", PeerMode.ULTRAPEER)
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="xyz")
        assert leaf.handle(q, "up", now=0.0) == []

    def test_library_match_generates_hit(self):
        node = make_ultrapeer(neighbours=[("origin", PeerMode.ULTRAPEER)])
        node.library = {"free music"}
        q = Query(guid=new_guid(), ttl=3, hops=2, keywords="Free Music")
        actions = node.handle(q, "origin", now=0.0)
        hits = [m for _, m in actions if isinstance(m, QueryHit)]
        assert len(hits) == 1
        assert hits[0].guid == q.guid  # hit answers on the query GUID
        assert actions[0][0] == "origin"  # reverse path first hop

    def test_sha1_queries_not_answered_from_library(self):
        node = make_ultrapeer(neighbours=[("origin", PeerMode.ULTRAPEER)])
        node.library = {"abc"}
        q = Query(guid=new_guid(), ttl=3, hops=1, keywords="abc", sha1_urn="f" * 40)
        actions = node.handle(q, "origin", now=0.0)
        assert not any(isinstance(m, QueryHit) for _, m in actions)

    def test_qrp_hint_routes_to_promising_leaf(self):
        node = make_ultrapeer(neighbours=[
            ("origin", PeerMode.ULTRAPEER), ("leaf1", PeerMode.LEAF),
        ])
        node.leaf_hint = lambda neighbour, query: neighbour == "leaf1"
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="xyz")
        targets = [dest for dest, _ in node.handle(q, "origin", now=0.0)]
        assert "leaf1" in targets


class TestQueryHitRouting:
    def test_reverse_path(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER), ("b", PeerMode.ULTRAPEER)])
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="xyz")
        node.handle(q, "a", now=0.0)
        hit = QueryHit(guid=q.guid, ttl=3, hops=1, ip="9.9.9.9")
        actions = node.handle(hit, "b", now=1.0)
        assert actions == [("a", hit.hop())]

    def test_expired_route_drops_hit(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER), ("b", PeerMode.ULTRAPEER)])
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="xyz")
        node.handle(q, "a", now=0.0)
        hit = QueryHit(guid=q.guid, ttl=3, hops=1, ip="9.9.9.9")
        assert node.handle(hit, "b", now=700.0) == []  # 10-minute GUID expiry

    def test_own_query_hit_consumed(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER)])
        query, _ = node.originate_query("mine", now=0.0)
        hit = QueryHit(guid=query.guid, ttl=3, hops=2, ip="9.9.9.9")
        assert node.handle(hit, "a", now=1.0) == []
        assert node.stats["hits_received"] == 1


class TestPingPong:
    def test_ping_answered_with_pong(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER)])
        node.library = {"x", "y", "z"}
        ping = Ping(guid=new_guid(), ttl=1, hops=0)
        actions = node.handle(ping, "a", now=0.0)
        assert len(actions) == 1
        dest, pong = actions[0]
        assert dest == "a"
        assert isinstance(pong, Pong)
        assert pong.shared_files == 3
        assert pong.guid == ping.guid

    def test_pong_consumed_silently(self):
        node = make_ultrapeer(neighbours=[("a", PeerMode.ULTRAPEER)])
        pong = Pong(guid=new_guid(), ip="3.3.3.3")
        assert node.handle(pong, "a", now=0.0) == []

    def test_message_from_stranger_ignored(self):
        node = make_ultrapeer()
        q = Query(guid=new_guid(), ttl=5, hops=1, keywords="x")
        assert node.handle(q, "stranger", now=0.0) == []

class TestDeterministicGuids:
    """GUID streams derive from the node id (or an injected rng)."""

    def test_same_node_id_same_guid_stream(self):
        a = PeerNode(node_id="up00001", ip="1.1.1.1")
        b = PeerNode(node_id="up00001", ip="1.1.1.1")
        a.add_neighbour("n1", PeerMode.ULTRAPEER)
        b.add_neighbour("n1", PeerMode.ULTRAPEER)
        qa, _ = a.originate_query("alpha beta", now=0.0)
        qb, _ = b.originate_query("alpha beta", now=0.0)
        assert qa.guid == qb.guid
        assert a.make_ping().guid == b.make_ping().guid

    def test_different_node_ids_different_streams(self):
        a = PeerNode(node_id="up00001", ip="1.1.1.1")
        b = PeerNode(node_id="up00002", ip="1.1.1.2")
        assert a.make_ping().guid != b.make_ping().guid

    def test_injected_rng_overrides_node_seed(self):
        import numpy as np

        a = PeerNode(node_id="x", ip="1.1.1.1", rng=np.random.default_rng(5))
        b = PeerNode(node_id="y", ip="1.1.1.2", rng=np.random.default_rng(5))
        assert a.make_ping().guid == b.make_ping().guid
