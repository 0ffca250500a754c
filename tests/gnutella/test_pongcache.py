"""Tests for pong caching."""

import numpy as np
import pytest

from gnutella_reference.messages import Ping, Pong, new_guid
from gnutella_reference.peer import PeerMode, PeerNode
from gnutella_reference.pongcache import PongCache


def pong(ip, files=5):
    return Pong(guid=new_guid(), ip=ip, shared_files=files)


class TestPongCache:
    def test_add_and_sample(self):
        cache = PongCache()
        cache.add(pong("1.1.1.1"), now=0.0)
        cache.add(pong("2.2.2.2"), now=1.0)
        sampled = cache.sample(5, now=2.0)
        assert {p.ip for p in sampled} == {"1.1.1.1", "2.2.2.2"}

    def test_newest_wins_per_address(self):
        cache = PongCache()
        cache.add(pong("1.1.1.1", files=1), now=0.0)
        cache.add(pong("1.1.1.1", files=9), now=5.0)
        assert len(cache) == 1
        assert cache.sample(1, now=6.0)[0].shared_files == 9

    def test_ttl_expiry(self):
        cache = PongCache(ttl_seconds=10.0)
        cache.add(pong("1.1.1.1"), now=0.0)
        assert cache.sample(3, now=5.0)
        assert cache.sample(3, now=20.0) == []

    def test_capacity_lru(self):
        cache = PongCache(capacity=2)
        for i in range(4):
            cache.add(pong(f"1.1.1.{i + 1}"), now=float(i))
        assert len(cache) == 2
        ips = {p.ip for p in cache.sample(2, now=5.0)}
        assert ips == {"1.1.1.3", "1.1.1.4"}

    def test_sample_subset(self):
        cache = PongCache()
        for i in range(10):
            cache.add(pong(f"2.2.2.{i + 1}"), now=0.0)
        rng = np.random.default_rng(1)
        sampled = cache.sample(3, now=1.0, rng=rng)
        assert len(sampled) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PongCache(capacity=0)
        with pytest.raises(ValueError):
            PongCache(ttl_seconds=0.0)
        with pytest.raises(ValueError):
            PongCache().sample(-1, now=0.0)


class TestPeerPongCaching:
    def test_pongs_cached_from_traffic(self):
        node = PeerNode(node_id="up", ip="64.0.0.1", mode=PeerMode.ULTRAPEER)
        node.add_neighbour("a", PeerMode.ULTRAPEER)
        node.handle(pong("9.9.9.9").hop(), "a", now=0.0)
        assert len(node.pong_cache) == 1

    def test_ping_answered_with_cached_pongs(self):
        node = PeerNode(node_id="up", ip="64.0.0.1", mode=PeerMode.ULTRAPEER)
        node.add_neighbour("a", PeerMode.ULTRAPEER)
        node.add_neighbour("b", PeerMode.ULTRAPEER)
        # Learn two distant peers via relayed pongs.
        node.handle(pong("9.9.9.1").hop(), "a", now=0.0)
        node.handle(pong("9.9.9.2").hop(), "a", now=1.0)
        ping = Ping(guid=new_guid(), ttl=1, hops=0)
        actions = node.handle(ping, "b", now=2.0)
        ips = {message.ip for _, message in actions}
        assert "64.0.0.1" in ips          # own pong
        assert {"9.9.9.1", "9.9.9.2"} <= ips  # cached pongs relayed
        # All answers return to the asker on the ping's GUID.
        assert all(dest == "b" for dest, _ in actions)
        assert all(message.guid == ping.guid for _, message in actions)

class TestDeterministicSampling:
    """Unseeded fallback removed: sampling derives from the cache seed."""

    def fill(self, cache):
        for i in range(10):
            cache.add(pong(f"2.2.2.{i + 1}"), now=0.0)

    def test_same_seed_same_samples(self):
        a, b = PongCache(seed=7), PongCache(seed=7)
        self.fill(a)
        self.fill(b)
        for _ in range(5):
            assert [p.ip for p in a.sample(3, now=1.0)] == \
                [p.ip for p in b.sample(3, now=1.0)]

    def test_different_seeds_diverge(self):
        a, b = PongCache(seed=1), PongCache(seed=2)
        self.fill(a)
        self.fill(b)
        draws_a = [tuple(p.ip for p in a.sample(3, now=1.0)) for _ in range(5)]
        draws_b = [tuple(p.ip for p in b.sample(3, now=1.0)) for _ in range(5)]
        assert draws_a != draws_b

    def test_explicit_rng_still_wins(self):
        a, b = PongCache(seed=1), PongCache(seed=2)
        self.fill(a)
        self.fill(b)
        ips_a = [p.ip for p in a.sample(3, now=1.0, rng=np.random.default_rng(9))]
        ips_b = [p.ip for p in b.sample(3, now=1.0, rng=np.random.default_rng(9))]
        assert ips_a == ips_b
