"""Incremental message-stream parsing.

TCP delivers the Gnutella message stream in arbitrary chunks; a real
client must buffer partial messages across reads.  :class:`MessageStream`
is that reassembly layer: feed it byte chunks, iterate complete messages.
Malformed framing raises immediately (a real client would drop the
connection), but a merely *incomplete* message just waits for more bytes.
"""

from __future__ import annotations

from typing import Iterator, List

from .messages import Message, MessageError, decode

__all__ = ["MessageStream"]

_HEADER_SIZE = 23
_MAX_PAYLOAD = 64 * 1024  # sanity bound; era clients dropped larger frames


class MessageStream:
    """Buffered decoder for a Gnutella TCP byte stream."""

    def __init__(self, max_payload: int = _MAX_PAYLOAD):
        if max_payload < 1:
            raise ValueError("max_payload must be >= 1")
        self.max_payload = max_payload
        self._buffer = bytearray()
        self.messages_decoded = 0
        self.bytes_consumed = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete message."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Message]:
        """Append a chunk; return every message completed by it.

        Raises :class:`~gnutella_reference.messages.MessageError` on an
        oversized payload length or a malformed complete message.
        """
        self._buffer.extend(chunk)
        out: List[Message] = []
        while True:
            message = self._try_decode_one()
            if message is None:
                return out
            out.append(message)

    def _try_decode_one(self):
        if len(self._buffer) < _HEADER_SIZE:
            return None
        length = int.from_bytes(self._buffer[19:23], "little")
        if length > self.max_payload:
            raise MessageError(
                f"payload length {length} exceeds the {self.max_payload} byte bound"
            )
        total = _HEADER_SIZE + length
        if len(self._buffer) < total:
            return None
        frame = bytes(self._buffer[:total])
        message, rest = decode(frame)
        assert not rest
        del self._buffer[:total]
        self.messages_decoded += 1
        self.bytes_consumed += total
        return message

    def drain(self) -> Iterator[Message]:
        """Iterate any already-complete buffered messages."""
        while True:
            message = self._try_decode_one()
            if message is None:
                return
            yield message
