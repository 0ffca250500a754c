"""Tests for Gnutella message types and the binary codec."""

import pytest

from gnutella_reference.messages import (
    DEFAULT_TTL,
    Bye,
    MessageError,
    Ping,
    Pong,
    Query,
    QueryHit,
    decode,
    new_guid,
)


class TestGuidAndHeader:
    def test_new_guid_is_16_bytes_and_unique(self):
        a, b = new_guid(), new_guid()
        assert len(a) == 16 and len(b) == 16
        assert a != b

    def test_new_guid_with_rng_is_reproducible(self):
        import numpy as np

        a = new_guid(np.random.default_rng(3))
        b = new_guid(np.random.default_rng(3))
        assert a == b and len(a) == 16 and isinstance(a, bytes)

    def test_rejects_short_guid(self):
        with pytest.raises(MessageError):
            Ping(guid=b"short")

    def test_rejects_out_of_range_ttl(self):
        with pytest.raises(MessageError):
            Ping(guid=new_guid(), ttl=300)


class TestHopSemantics:
    def test_hop_decrements_ttl_increments_hops(self):
        q = Query(guid=new_guid(), ttl=7, hops=0, keywords="x")
        hopped = q.hop()
        assert hopped.ttl == 6 and hopped.hops == 1
        assert hopped.keywords == "x"

    def test_hop_count_one_identifies_origin_neighbour(self):
        # The measurement methodology: a query generated at a directly
        # connected client arrives with hops == 1.
        q = Query(guid=new_guid(), ttl=DEFAULT_TTL, hops=0, keywords="user query")
        assert q.hop().hops == 1

    def test_cannot_forward_dead_message(self):
        q = Query(guid=new_guid(), ttl=0, hops=7, keywords="x")
        assert not q.forwardable
        with pytest.raises(MessageError):
            q.hop()


class TestQueryIdentity:
    def test_keyword_set_order_insensitive(self):
        a = Query(guid=new_guid(), keywords="free music mp3")
        b = Query(guid=new_guid(), keywords="mp3 Free MUSIC")
        assert a.matches(b)

    def test_different_keywords_differ(self):
        a = Query(guid=new_guid(), keywords="free music")
        b = Query(guid=new_guid(), keywords="free movies")
        assert not a.matches(b)

    def test_sha1_flag(self):
        q = Query(guid=new_guid(), keywords="", sha1_urn="a" * 40)
        assert q.has_sha1


class TestCodec:
    def roundtrip(self, msg):
        decoded, rest = decode(msg.encode())
        assert rest == b""
        assert decoded == msg
        return decoded

    def test_ping_roundtrip(self):
        self.roundtrip(Ping(guid=new_guid(), ttl=3, hops=2))

    def test_pong_roundtrip(self):
        self.roundtrip(Pong(guid=new_guid(), ip="62.1.2.3", port=6346,
                            shared_files=42, shared_kb=12345))

    def test_query_roundtrip(self):
        self.roundtrip(Query(guid=new_guid(), ttl=5, hops=1,
                             keywords="free music mp3", min_speed=64))

    def test_query_with_sha1_roundtrip(self):
        self.roundtrip(Query(guid=new_guid(), keywords="", sha1_urn="ab" * 20))

    def test_queryhit_roundtrip(self):
        self.roundtrip(QueryHit(guid=new_guid(), ttl=4, hops=3, ip="24.9.8.7",
                                n_hits=5, responder_guid=new_guid()))

    def test_bye_roundtrip(self):
        self.roundtrip(Bye(guid=new_guid(), reason="shutting down"))

    def test_stream_decoding(self):
        stream = Ping(guid=new_guid()).encode() + Query(
            guid=new_guid(), keywords="abc"
        ).encode()
        first, rest = decode(stream)
        second, leftover = decode(rest)
        assert isinstance(first, Ping)
        assert isinstance(second, Query)
        assert leftover == b""

    def test_truncated_header_rejected(self):
        with pytest.raises(MessageError):
            decode(b"\x00" * 10)

    def test_truncated_payload_rejected(self):
        data = Pong(guid=new_guid(), ip="1.2.3.4").encode()
        with pytest.raises(MessageError):
            decode(data[:-3])

    def test_unknown_type_rejected(self):
        data = bytearray(Ping(guid=new_guid()).encode())
        data[16] = 0x42
        with pytest.raises(MessageError):
            decode(bytes(data))

    def test_unicode_keywords(self):
        q = Query(guid=new_guid(), keywords="müsic française")
        decoded, _ = decode(q.encode())
        assert decoded.keywords == q.keywords


class TestValidation:
    def test_pong_rejects_bad_ip(self):
        p = Pong(guid=new_guid(), ip="999.1.1.1")
        with pytest.raises(MessageError):
            p.encode()

    def test_pong_rejects_bad_port(self):
        with pytest.raises(MessageError):
            Pong(guid=new_guid(), port=70000)

    def test_pong_rejects_negative_counts(self):
        with pytest.raises(MessageError):
            Pong(guid=new_guid(), shared_files=-1)

    def test_queryhit_requires_hits(self):
        with pytest.raises(MessageError):
            QueryHit(guid=new_guid(), n_hits=0)
