"""Tests for the incremental message-stream parser."""

import pytest

from gnutella_reference.messages import MessageError, Ping, Pong, Query, new_guid
from gnutella_reference.wire import MessageStream


def frames():
    return [
        Ping(guid=new_guid()),
        Query(guid=new_guid(), keywords="free music"),
        Pong(guid=new_guid(), ip="64.1.2.3", shared_files=4),
    ]


class TestMessageStream:
    def test_whole_messages(self):
        stream = MessageStream()
        data = b"".join(m.encode() for m in frames())
        out = stream.feed(data)
        assert [type(m).__name__ for m in out] == ["Ping", "Query", "Pong"]
        assert stream.pending_bytes == 0
        assert stream.messages_decoded == 3

    def test_byte_at_a_time(self):
        stream = MessageStream()
        data = b"".join(m.encode() for m in frames())
        out = []
        for i in range(len(data)):
            out.extend(stream.feed(data[i:i + 1]))
        assert len(out) == 3
        assert stream.bytes_consumed == len(data)

    def test_split_inside_header(self):
        stream = MessageStream()
        data = Query(guid=new_guid(), keywords="abc").encode()
        assert stream.feed(data[:10]) == []
        assert stream.pending_bytes == 10
        out = stream.feed(data[10:])
        assert len(out) == 1

    def test_oversized_payload_rejected(self):
        stream = MessageStream(max_payload=8)
        data = Query(guid=new_guid(), keywords="a long enough query string").encode()
        with pytest.raises(MessageError):
            stream.feed(data)

    def test_drain(self):
        stream = MessageStream()
        data = b"".join(m.encode() for m in frames())
        stream._buffer.extend(data)  # simulate pre-buffered bytes
        assert len(list(stream.drain())) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MessageStream(max_payload=0)
