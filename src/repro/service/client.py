"""Subscriber side: read frames off the wire as zero-copy column views.

Pure transport + decode -- no wall clock, no statistics.  The loadtest
layers timing on top; tests use :func:`collect_stream` to capture a
whole broadcast (frames *and* raw bytes, for the byte-reproducibility
contract).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator, List, Optional, Tuple

from .framing import FRAME_END, FRAME_HELLO, HEADER_SIZE, decode_manifest, parse_header

__all__ = ["StreamReceipt", "read_frames", "collect_stream"]


async def read_frames(
    reader: asyncio.StreamReader,
) -> AsyncIterator[Tuple[int, bytes]]:
    """Yield ``(kind, payload)`` until the END frame or EOF.

    Reads exact header/payload spans (no copy-and-rescan buffering);
    the END frame is yielded and then iteration stops.  A stream that
    ends inside a frame, a foreign header or a foreign HELLO raises
    ValueError.
    """
    while True:
        try:
            header = await reader.readexactly(HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return  # clean EOF on a frame boundary
            raise ValueError(
                f"stream ended mid-header ({len(exc.partial)} bytes)"
            ) from exc
        kind, length = parse_header(header)
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ValueError(
                f"stream ended mid-payload ({len(exc.partial)} of {length} bytes)"
            ) from exc
        if kind == FRAME_HELLO:
            decode_manifest(payload)
        yield kind, payload
        if kind == FRAME_END:
            return


@dataclass
class StreamReceipt:
    """Everything one subscriber received, in arrival order."""

    frames: List[Tuple[int, bytes]] = field(default_factory=list)
    raw: bytes = b""

    def kinds(self) -> List[int]:
        return [kind for kind, _ in self.frames]

    def deterministic_bytes(self, exclude_kinds: Tuple[int, ...] = ()) -> bytes:
        """Concatenated frame bytes, optionally dropping probe kinds.

        With STAMP frames excluded, this is the quantity the
        reproducibility contract promises is byte-identical across runs
        and worker counts (docs/SERVICE.md).
        """
        from .framing import encode_frame

        return b"".join(
            encode_frame(kind, payload)
            for kind, payload in self.frames
            if kind not in exclude_kinds
        )


async def collect_stream(
    host: str, port: int, limit: Optional[int] = None
) -> StreamReceipt:
    """Subscribe and capture the broadcast until END/EOF (or ``limit`` frames)."""
    reader, writer = await asyncio.open_connection(host, port)
    receipt = StreamReceipt()
    try:
        async for kind, payload in read_frames(reader):
            receipt.frames.append((kind, payload))
            if limit is not None and len(receipt.frames) >= limit:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    receipt.raw = receipt.deterministic_bytes()
    return receipt
