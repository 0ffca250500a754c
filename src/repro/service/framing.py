"""Wire framing for the workload stream: length-prefixed binary frames.

Every frame is a fixed 16-byte header followed by a payload::

    magic    4s   b"RPSF"
    version  u8   1
    kind     u8   frame kind (FRAME_* below)
    reserved u16  0
    length   u64  payload byte count (little-endian, like the rest)

Data frames carry a *columnar* payload: named NumPy arrays serialized
as ``(name, dtype descr, shape, raw C-order bytes)`` records -- no
per-event Python dicts, no zip container (``.npz`` members embed a
modification timestamp, which would break the byte-reproducibility
contract), and decoding is ``np.frombuffer`` views into the received
buffer, so a subscriber pays no per-event cost either.  Control frames
(HELLO/END) carry canonical JSON (sorted keys); STAMP frames carry a
``(sequence, monotonic send nanoseconds)`` pair for latency measurement
and are the only nondeterministic frame kind -- they are opt-in and
excluded from the reproducibility contract (docs/SERVICE.md).

Malformed input -- a foreign header, a truncated or inconsistent
payload, a foreign HELLO -- raises :class:`ValueError` and nothing else.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "MAGIC", "VERSION", "HEADER_SIZE", "MANIFEST_FORMAT",
    "FRAME_HELLO", "FRAME_DATA", "FRAME_STAMP", "FRAME_END",
    "frame_header", "parse_header", "encode_frame",
    "encode_columns", "decode_columns",
    "encode_json_frame", "decode_json", "decode_manifest",
    "encode_stamp_frame", "decode_stamp",
    "FrameDecoder",
]

MAGIC = b"RPSF"
VERSION = 1

_HEADER = struct.Struct("<4sBBHQ")
HEADER_SIZE = _HEADER.size  # 16

FRAME_HELLO = 1  #: stream manifest (canonical JSON)
FRAME_DATA = 2   #: columnar wave batch (binary columns)
FRAME_STAMP = 4  #: (seq, monotonic ns) latency probe -- nondeterministic
FRAME_END = 5    #: stream summary (canonical JSON), closes the stream

#: Kind 3 is unassigned: it carried a retired JSON-lines data codec, and
#: the remaining kinds keep their numbers so the stream bytes do not move.
_KINDS = (FRAME_HELLO, FRAME_DATA, FRAME_STAMP, FRAME_END)

#: The HELLO manifest's ``format`` tag: a subscriber refuses any other,
#: so a foreign stream fails loudly instead of decoding into nonsense.
MANIFEST_FORMAT = "repro-service-stream-v1"

_STAMP = struct.Struct("<QQ")
_COLUMN_COUNT = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")


def frame_header(kind: int, payload_length: int) -> bytes:
    """The 16-byte header for a ``kind`` frame of ``payload_length`` bytes."""
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind}")
    return _HEADER.pack(MAGIC, VERSION, kind, 0, payload_length)


def parse_header(header: bytes) -> Tuple[int, int]:
    """``(kind, payload_length)`` from a header; raises on foreign bytes."""
    if len(header) != HEADER_SIZE:
        raise ValueError(f"frame header must be {HEADER_SIZE} bytes, got {len(header)}")
    magic, version, kind, reserved, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ValueError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported frame version {version}")
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind}")
    if reserved != 0:
        raise ValueError(f"reserved header bits set ({reserved})")
    return kind, length


def encode_frame(kind: int, payload: bytes) -> bytes:
    """One wire frame: header + payload, as a single immutable buffer."""
    return frame_header(kind, len(payload)) + payload


# ---------------------------------------------------------------------------
# Columnar payload codec
# ---------------------------------------------------------------------------


def encode_columns(columns: Dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays into one deterministic binary payload.

    Column order follows dict insertion order and is part of the bytes;
    callers keep it fixed (the stream layer always emits
    ``ColumnarWorkload.ARRAY_FIELDS`` order).
    """
    parts: List[bytes] = [_COLUMN_COUNT.pack(len(columns))]
    for name, array in columns.items():
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise ValueError(f"column {name!r} has object dtype")
        name_b = name.encode("ascii")
        descr = np.lib.format.dtype_to_descr(array.dtype).encode("ascii")
        parts.append(_U16.pack(len(name_b)))
        parts.append(name_b)
        parts.append(_U16.pack(len(descr)))
        parts.append(descr)
        parts.append(_U16.pack(array.ndim))
        for dim in array.shape:
            parts.append(_U64.pack(dim))
        data = array.tobytes()
        parts.append(_U64.pack(len(data)))
        parts.append(data)
    return b"".join(parts)


def decode_columns(payload: bytes) -> Dict[str, np.ndarray]:
    """Decode :func:`encode_columns` output into read-only array views.

    Arrays are ``np.frombuffer`` views over ``payload`` -- zero copies,
    valid as long as the payload buffer is alive.  A payload that is
    short, inconsistent or names a foreign dtype raises ValueError.
    """
    view = memoryview(payload)
    try:
        (count,) = _COLUMN_COUNT.unpack_from(view, 0)
        offset = _COLUMN_COUNT.size
        columns: Dict[str, np.ndarray] = {}
        for _ in range(count):
            name, offset = _read_ascii(view, offset, "column name")
            descr, offset = _read_ascii(view, offset, f"column {name!r} dtype")
            (ndim,) = _U16.unpack_from(view, offset)
            offset += _U16.size
            shape = list(struct.unpack_from(f"<{ndim}Q", view, offset))
            offset += ndim * _U64.size
            (nbytes,) = _U64.unpack_from(view, offset)
            offset += _U64.size
            dtype = _column_dtype(name, descr)
            expected = math.prod(shape) * dtype.itemsize
            if nbytes != expected:
                raise ValueError(
                    f"column {name!r}: {nbytes} payload bytes for shape "
                    f"{tuple(shape)} of {descr} (expected {expected})"
                )
            if offset + nbytes > len(view):
                raise ValueError(f"column {name!r}: truncated payload")
            columns[name] = np.frombuffer(
                view[offset:offset + nbytes], dtype=dtype
            ).reshape(shape)
            offset += nbytes
    except struct.error as exc:
        raise ValueError(f"truncated column payload ({exc})") from exc
    if offset != len(view):
        raise ValueError(f"{len(view) - offset} trailing bytes after last column")
    return columns


def _read_ascii(view: memoryview, offset: int, what: str) -> Tuple[str, int]:
    """A u16-length-prefixed ASCII string at ``offset``, and the offset after it."""
    (length,) = _U16.unpack_from(view, offset)
    offset += _U16.size
    raw = bytes(view[offset:offset + length])
    try:
        return raw.decode("ascii"), offset + length
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} is not ASCII: {raw!r}") from exc


def _column_dtype(name: str, descr: str) -> np.dtype:
    """The dtype ``descr`` names.

    NumPy refuses a malformed string with TypeError or, from its
    comma-string parser, SyntaxError (``"09"``).  Object and zero-size
    dtypes pass here; ``np.frombuffer`` refuses them with ValueError.
    """
    try:
        return np.dtype(descr)
    except (TypeError, SyntaxError) as exc:
        raise ValueError(f"column {name!r}: unknown dtype {descr!r}") from exc


# ---------------------------------------------------------------------------
# Control and probe payloads
# ---------------------------------------------------------------------------


def encode_json_frame(kind: int, obj: dict) -> bytes:
    """A control frame carrying canonical (sorted-keys) JSON."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return encode_frame(kind, payload)


def decode_json(payload: bytes) -> dict:
    """The JSON object of a HELLO/END payload."""
    return json.loads(payload.decode())


def decode_manifest(payload: bytes) -> dict:
    """A HELLO payload's manifest; raises ValueError on a foreign stream."""
    manifest = decode_json(payload)
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"not a {MANIFEST_FORMAT} stream: HELLO {payload[:80]!r}")
    return manifest


def encode_stamp_frame(sequence: int, send_ns: int) -> bytes:
    """A latency probe announcing the next data frame's send time."""
    return encode_frame(FRAME_STAMP, _STAMP.pack(sequence, send_ns))


def decode_stamp(payload: bytes) -> Tuple[int, int]:
    """``(sequence, send_ns)`` from a STAMP payload."""
    return _STAMP.unpack(payload)


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte-chunk feed.

    The asyncio client reads exact header/payload spans directly; this
    decoder serves consumers that only see raw chunks (tests, recorded
    streams, non-asyncio transports)::

        decoder = FrameDecoder()
        for chunk in chunks:
            for kind, payload in decoder.feed(chunk):
                ...
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pending: Optional[Tuple[int, int]] = None

    def feed(self, chunk: bytes) -> Iterator[Tuple[int, bytes]]:
        self._buffer.extend(chunk)
        while True:
            if self._pending is None:
                if len(self._buffer) < HEADER_SIZE:
                    return
                self._pending = parse_header(bytes(self._buffer[:HEADER_SIZE]))
                del self._buffer[:HEADER_SIZE]
            kind, length = self._pending
            if len(self._buffer) < length:
                return
            payload = bytes(self._buffer[:length])
            del self._buffer[:length]
            self._pending = None
            yield kind, payload

    @property
    def buffered_bytes(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)
