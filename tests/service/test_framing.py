"""Frame codec: headers, columnar payloads, incremental reassembly."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.framing import (
    FRAME_DATA,
    FRAME_END,
    FRAME_HELLO,
    FRAME_STAMP,
    HEADER_SIZE,
    MAGIC,
    MANIFEST_FORMAT,
    MAX_PAYLOAD_BYTES,
    VERSION,
    FrameDecoder,
    decode_columns,
    decode_json,
    decode_manifest,
    decode_stamp,
    encode_columns,
    encode_frame,
    encode_json_frame,
    encode_stamp_frame,
    frame_header,
    parse_header,
)


def _columns():
    return {
        "f": np.array([1.5, -2.0, 0.0]),
        "i": np.arange(4, dtype=np.int64),
        "b": np.array([True, False]),
        "s": np.array(["madonna", "dvd"], dtype="U7"),
        "m": np.arange(6, dtype=np.float64).reshape(2, 3),
        "empty": np.empty(0, dtype=np.int8),
    }


class TestHeader:
    def test_round_trip(self):
        header = frame_header(FRAME_DATA, 12345)
        assert len(header) == HEADER_SIZE
        assert parse_header(header) == (FRAME_DATA, 12345)

    def test_bad_magic_rejected(self):
        header = bytearray(frame_header(FRAME_DATA, 1))
        header[0] = ord("X")
        with pytest.raises(ValueError, match="magic"):
            parse_header(bytes(header))

    def test_payload_cap(self):
        assert parse_header(frame_header(FRAME_DATA, MAX_PAYLOAD_BYTES)) == (
            FRAME_DATA, MAX_PAYLOAD_BYTES,
        )
        with pytest.raises(ValueError, match="cap"):
            frame_header(FRAME_DATA, MAX_PAYLOAD_BYTES + 1)
        huge = struct.pack("<4sBBHQ", MAGIC, VERSION, FRAME_DATA, 0, 2**62)
        with pytest.raises(ValueError, match="cap"):
            parse_header(huge)

    def test_encode_frame_refuses_oversized_payload(self):
        class Oversized(bytes):
            def __len__(self):
                return MAX_PAYLOAD_BYTES + 1

        with pytest.raises(ValueError, match="cap"):
            encode_frame(FRAME_DATA, Oversized(b"x"))

    def test_decoder_refuses_huge_declared_length(self):
        huge = struct.pack("<4sBBHQ", MAGIC, VERSION, FRAME_DATA, 0, 2**62)
        decoder = FrameDecoder()
        with pytest.raises(ValueError, match="cap"):
            list(decoder.feed(huge + bytes(1 << 20)))

    def test_bad_version_rejected(self):
        header = bytearray(frame_header(FRAME_DATA, 1))
        header[4] = 99
        with pytest.raises(ValueError, match="version"):
            parse_header(bytes(header))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            frame_header(42, 1)
        header = bytearray(frame_header(FRAME_DATA, 1))
        header[5] = 42
        with pytest.raises(ValueError, match="kind"):
            parse_header(bytes(header))

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="16 bytes"):
            parse_header(b"RPSF")

    def test_kind_3_is_unassigned(self):
        # Kind 3 carried a retired JSON-lines data codec; the other kinds
        # keep their numbers, so stream bytes do not change.
        assert (FRAME_HELLO, FRAME_DATA, FRAME_STAMP, FRAME_END) == (1, 2, 4, 5)
        with pytest.raises(ValueError, match="kind 3"):
            frame_header(3, 0)
        header = bytearray(frame_header(FRAME_DATA, 0))
        header[5] = 3
        with pytest.raises(ValueError, match="kind 3"):
            parse_header(bytes(header))


class TestColumnarPayload:
    def test_round_trip_all_dtypes(self):
        columns = _columns()
        decoded = decode_columns(encode_columns(columns))
        assert list(decoded) == list(columns)
        for name, array in columns.items():
            np.testing.assert_array_equal(decoded[name], array)
            assert decoded[name].dtype == array.dtype

    def test_decode_is_zero_copy_view(self):
        payload = encode_columns({"x": np.arange(8, dtype=np.int64)})
        decoded = decode_columns(payload)
        assert decoded["x"].base is not None  # a view, not an owning copy
        assert not decoded["x"].flags.writeable

    def test_encoding_is_deterministic(self):
        assert encode_columns(_columns()) == encode_columns(_columns())

    def test_object_dtype_rejected(self):
        with pytest.raises(ValueError, match="object dtype"):
            encode_columns({"o": np.array([{}], dtype=object)})

    def test_truncated_payload_rejected(self):
        payload = encode_columns({"x": np.arange(8)})
        with pytest.raises(ValueError):
            decode_columns(payload[:-3])

    def test_trailing_garbage_rejected(self):
        payload = encode_columns({"x": np.arange(8)})
        with pytest.raises(ValueError, match="trailing"):
            decode_columns(payload + b"\x00")

    @staticmethod
    def _plain_value_error(payload):
        """The error decode_columns raises: a ValueError proper, not a
        struct.error, TypeError or UnicodeDecodeError escaping the parse."""
        with pytest.raises(ValueError) as excinfo:
            decode_columns(payload)
        assert type(excinfo.value) is ValueError
        return str(excinfo.value)

    def test_short_payload_is_a_value_error(self):
        payload = encode_columns({"x": np.arange(8)})
        for cut in (0, 2, 5, 7, 12):
            assert "truncated" in self._plain_value_error(payload[:cut])

    def test_unknown_dtype_is_a_value_error(self):
        payload = encode_columns({"x": np.arange(8, dtype=np.int16)})
        assert b"<i2" in payload
        for descr in (b"zz\x00", b"09 "):  # TypeError, SyntaxError in np.dtype
            message = self._plain_value_error(payload.replace(b"<i2", descr))
            assert "dtype" in message
        # An object dtype NumPy parses but refuses to read from bytes.
        self._plain_value_error(payload.replace(b"<i2", b"|O\x00"))

    def test_non_ascii_name_is_a_value_error(self):
        payload = encode_columns({"q": np.arange(3)})
        assert "ASCII" in self._plain_value_error(payload.replace(b"q", b"\xe9", 1))


class TestControlFrames:
    def test_json_frame_round_trip(self):
        frame = encode_json_frame(FRAME_HELLO, {"b": 2, "a": 1})
        kind, length = parse_header(frame[:HEADER_SIZE])
        assert kind == FRAME_HELLO
        assert decode_json(frame[HEADER_SIZE:]) == {"a": 1, "b": 2}

    def test_json_payload_is_canonical(self):
        # sorted keys, no whitespace: byte-stable across dict orders.
        a = encode_json_frame(FRAME_END, {"x": 1, "y": 2})
        b = encode_json_frame(FRAME_END, {"y": 2, "x": 1})
        assert a == b

    def test_manifest_format_checked(self):
        hello = {"format": MANIFEST_FORMAT, "codec": "columnar"}
        frame = encode_json_frame(FRAME_HELLO, hello)
        assert decode_manifest(frame[HEADER_SIZE:]) == hello
        for foreign in ({"format": "some-other-stream-v9"}, {"n": 1}, [1, 2]):
            frame = encode_json_frame(FRAME_HELLO, foreign)
            with pytest.raises(ValueError, match="not a repro-service-stream"):
                decode_manifest(frame[HEADER_SIZE:])
        with pytest.raises(ValueError):
            decode_manifest(b"\xff{")

    def test_stamp_round_trip(self):
        frame = encode_stamp_frame(7, 123456789)
        kind, _ = parse_header(frame[:HEADER_SIZE])
        assert kind == FRAME_STAMP
        assert decode_stamp(frame[HEADER_SIZE:]) == (7, 123456789)


class TestFrameDecoder:
    def frames(self):
        return [
            encode_json_frame(FRAME_HELLO, {"n": 1}),
            encode_frame(FRAME_DATA, encode_columns({"x": np.arange(100)})),
            encode_stamp_frame(0, 1),
            encode_json_frame(FRAME_END, {}),
        ]

    def test_single_feed(self):
        wire = b"".join(self.frames())
        decoder = FrameDecoder()
        out = list(decoder.feed(wire))
        assert [k for k, _ in out] == [FRAME_HELLO, FRAME_DATA, FRAME_STAMP, FRAME_END]
        assert decoder.buffered_bytes == 0

    @pytest.mark.parametrize("chunk_size", [1, 3, 16, 17, 1000])
    def test_arbitrary_chunking(self, chunk_size):
        wire = b"".join(self.frames())
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(wire), chunk_size):
            out.extend(decoder.feed(wire[i:i + chunk_size]))
        expected = [
            (parse_header(f[:HEADER_SIZE])[0], f[HEADER_SIZE:]) for f in self.frames()
        ]
        assert out == expected

    def test_foreign_bytes_raise(self):
        decoder = FrameDecoder()
        with pytest.raises(ValueError, match="magic"):
            list(decoder.feed(b"HTTP/1.1 200 OK\r\n\r\n"))


def _valid_wire() -> bytes:
    """One well-formed stream: HELLO, two DATA, STAMP, END."""
    return b"".join([
        encode_json_frame(FRAME_HELLO, {"format": MANIFEST_FORMAT, "codec": "columnar"}),
        encode_frame(FRAME_DATA, encode_columns(_columns())),
        encode_frame(FRAME_DATA, encode_columns({"x": np.arange(5, dtype=np.int32)})),
        encode_stamp_frame(3, 99),
        encode_json_frame(FRAME_END, {"frames": 2}),
    ])


def _decodes_or_raises_value_error(decode, *args) -> None:
    """``decode(*args)`` returns or raises a plain ValueError -- never a
    struct.error, TypeError, UnicodeDecodeError or anything else."""
    try:
        decode(*args)
    except ValueError as exc:
        assert type(exc) is ValueError, repr(exc)


def _decode_stream(wire: bytes, chunk: int) -> None:
    """Feed ``wire`` in ``chunk``-byte pieces and decode every payload the
    decoder yields as columns."""
    decoder = FrameDecoder()
    for lo in range(0, len(wire), chunk):
        for kind, payload in decoder.feed(wire[lo:lo + chunk]):
            assert kind in (FRAME_HELLO, FRAME_DATA, FRAME_STAMP, FRAME_END)
            _decodes_or_raises_value_error(decode_columns, payload)


WIRE = _valid_wire()


class TestMalformedFrames:
    """Any input either decodes or raises ValueError, and nothing else."""

    @given(cut=st.integers(0, len(WIRE)), chunk=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_truncated_streams(self, cut, chunk):
        _decodes_or_raises_value_error(_decode_stream, WIRE[:cut], chunk)

    @given(
        flips=st.lists(
            st.tuples(st.integers(0, len(WIRE) - 1), st.integers(1, 255)),
            min_size=1, max_size=4,
        ),
        chunk=st.integers(1, 4096),
    )
    @settings(max_examples=300, deadline=None)
    def test_byte_flipped_streams(self, flips, chunk):
        wire = bytearray(WIRE)
        for position, mask in flips:
            wire[position] ^= mask
        _decodes_or_raises_value_error(_decode_stream, bytes(wire), chunk)

    @given(
        kind=st.sampled_from([0, 1, 2, 3, 4, 5, 6, 255]),
        payload=st.binary(max_size=256),
        declared=st.one_of(st.none(), st.integers(0, 512)),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_frames(self, kind, payload, declared):
        length = len(payload) if declared is None else declared
        header = struct.pack("<4sBBHQ", MAGIC, VERSION, kind, 0, length)
        _decodes_or_raises_value_error(_decode_stream, header + payload, 7)

    @given(wire=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, wire):
        _decodes_or_raises_value_error(_decode_stream, wire, 16)

    @given(
        payload=st.one_of(
            st.binary(max_size=256),
            st.builds(
                lambda cut, flips: _mutate(encode_columns(_columns()), cut, flips),
                st.integers(0, 400),
                st.lists(st.tuples(st.integers(0, 399), st.integers(1, 255)), max_size=3),
            ),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_column_payloads(self, payload):
        _decodes_or_raises_value_error(decode_columns, payload)

    @given(
        descr=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=10),
        shape=st.lists(st.integers(0, 4), max_size=3),
        nbytes=st.integers(0, 64),
        raw=st.binary(min_size=64, max_size=64),
    )
    @settings(max_examples=400, deadline=None)
    # NumPy 2 still parses the deprecated "a" alias (as "S"), with a
    # warning; once it refuses it, the TypeError becomes a ValueError.
    @pytest.mark.filterwarnings("ignore:Data type alias 'a':DeprecationWarning")
    def test_random_dtype_strings(self, descr, shape, nbytes, raw):
        name = descr.encode()
        payload = b"".join([
            struct.pack("<IH", 1, 1), b"x", struct.pack("<H", len(name)), name,
            struct.pack(f"<H{len(shape)}QQ", len(shape), *shape, nbytes), raw[:nbytes],
        ])
        _decodes_or_raises_value_error(decode_columns, payload)


def _mutate(payload: bytes, cut: int, flips) -> bytes:
    data = bytearray(payload[:cut] if cut < len(payload) else payload)
    for position, mask in flips:
        if position < len(data):
            data[position] ^= mask
    return bytes(data)
