"""Subscriber framing: a broken or foreign stream ends in ValueError."""

import asyncio
import struct

import numpy as np
import pytest

from repro.service.client import read_frames
from repro.service.framing import (
    FRAME_DATA,
    FRAME_END,
    FRAME_HELLO,
    MAGIC,
    MANIFEST_FORMAT,
    VERSION,
    encode_columns,
    encode_frame,
    encode_json_frame,
)

HELLO = encode_json_frame(FRAME_HELLO, {"format": MANIFEST_FORMAT, "codec": "columnar"})
DATA = encode_frame(FRAME_DATA, encode_columns({"x": np.arange(10)}))
END = encode_json_frame(FRAME_END, {"frames": 1})


def read_all(wire: bytes):
    """Every ``(kind, payload)`` read_frames yields from ``wire`` then EOF."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return [frame async for frame in read_frames(reader)]

    return asyncio.run(scenario())


def test_whole_stream_reads_to_end():
    frames = read_all(HELLO + DATA + END + b"ignored after END")
    assert [kind for kind, _ in frames] == [FRAME_HELLO, FRAME_DATA, FRAME_END]


def test_clean_eof_on_a_frame_boundary_ends_quietly():
    assert [kind for kind, _ in read_all(HELLO + DATA)] == [FRAME_HELLO, FRAME_DATA]


def test_eof_mid_header_is_a_value_error():
    with pytest.raises(ValueError, match="mid-header"):
        read_all(HELLO + DATA[:7])


@pytest.mark.parametrize("cut", [16, 17, 40, len(DATA) - 1])
def test_eof_mid_payload_is_a_value_error(cut):
    with pytest.raises(ValueError, match="mid-payload"):
        read_all(HELLO + DATA[:cut])


def test_foreign_hello_is_a_value_error():
    foreign = encode_json_frame(FRAME_HELLO, {"format": "another-stream-v2"})
    with pytest.raises(ValueError, match="not a repro-service-stream"):
        read_all(foreign + DATA + END)


def test_header_declaring_a_huge_payload_is_a_value_error():
    # Refused at the header: read_frames never waits for 2**62 bytes.
    huge = struct.pack("<4sBBHQ", MAGIC, VERSION, FRAME_DATA, 0, 2**62)
    with pytest.raises(ValueError, match="cap"):
        read_all(HELLO + huge + bytes(1 << 16))
