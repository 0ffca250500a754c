"""Tests for the GUID routing table."""

import pytest

from gnutella_reference.messages import new_guid
from gnutella_reference.routing import DEFAULT_GUID_TTL_SECONDS, RoutingTable


class TestRecord:
    def test_first_record_is_new(self):
        table = RoutingTable()
        assert table.record(new_guid(), "peer-a", now=0.0)

    def test_duplicate_detected(self):
        table = RoutingTable()
        guid = new_guid()
        assert table.record(guid, "peer-a", now=0.0)
        assert not table.record(guid, "peer-b", now=1.0)

    def test_duplicate_does_not_steal_route(self):
        # The first arrival owns the reverse path.
        table = RoutingTable()
        guid = new_guid()
        table.record(guid, "peer-a", now=0.0)
        table.record(guid, "peer-b", now=1.0)
        assert table.reverse_route(guid) == "peer-a"


class TestReverseRoute:
    def test_known_guid(self):
        table = RoutingTable()
        guid = new_guid()
        table.record(guid, "up3", now=5.0)
        assert table.reverse_route(guid, now=6.0) == "up3"

    def test_unknown_guid(self):
        assert RoutingTable().reverse_route(new_guid()) is None


class TestExpiry:
    def test_default_ttl_is_ten_minutes(self):
        assert DEFAULT_GUID_TTL_SECONDS == 600.0

    def test_entries_expire(self):
        table = RoutingTable(ttl_seconds=10.0)
        guid = new_guid()
        table.record(guid, "a", now=0.0)
        assert table.seen(guid, now=9.9)
        assert not table.seen(guid, now=10.0)

    def test_expired_guid_can_be_rerecorded(self):
        table = RoutingTable(ttl_seconds=10.0)
        guid = new_guid()
        table.record(guid, "a", now=0.0)
        assert table.record(guid, "b", now=20.0)
        assert table.reverse_route(guid) == "b"

    def test_expire_returns_count(self):
        table = RoutingTable(ttl_seconds=5.0)
        for i in range(4):
            table.record(new_guid(), "x", now=float(i))
        assert table.expire(now=100.0) == 4
        assert len(table) == 0

    def test_partial_expiry(self):
        table = RoutingTable(ttl_seconds=10.0)
        old, fresh = new_guid(), new_guid()
        table.record(old, "a", now=0.0)
        table.record(fresh, "b", now=8.0)
        table.expire(now=12.0)
        assert not table.seen(old)
        assert table.seen(fresh)


class TestCapacity:
    def test_oldest_evicted_at_capacity(self):
        table = RoutingTable(max_entries=2)
        g1, g2, g3 = new_guid(), new_guid(), new_guid()
        table.record(g1, "a", now=0.0)
        table.record(g2, "b", now=1.0)
        table.record(g3, "c", now=2.0)
        assert len(table) == 2
        assert not table.seen(g1)
        assert table.seen(g2) and table.seen(g3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RoutingTable(ttl_seconds=0.0)
        with pytest.raises(ValueError):
            RoutingTable(max_entries=0)
