"""Scalar Query Routing Protocol tables, as the object peers hold them.

Each leaf hashes the keywords of its shared files into a ``2**log_size``
slot table and sends it to its ultrapeers, which forward a query to the
leaf only when *every* query keyword hashes to a set slot.  The batched
forms the columnar engine runs (:func:`repro.gnutella.qrp.keyword_hashes`
and :func:`~repro.gnutella.qrp.text_hash_table`) are held bit-exact with
:func:`keyword_hash` and :class:`QueryRouteTable` here.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.gnutella.qrp import _A, _keywords

__all__ = ["keyword_hash", "QueryRouteTable"]

#: LimeWire's default QRP table: 2**16 slots.
DEFAULT_LOG_SIZE = 16


def keyword_hash(keyword: str, bits: int) -> int:
    """The Gnutella QRP hash of one keyword into ``bits`` bits.

    Multiplicative hashing over the little-endian packing of the
    lowercased keyword bytes, as specified by the QRP proposal.
    """
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in 1..32, got {bits}")
    total = 0
    for index, byte in enumerate(keyword.lower().encode("utf-8")):
        total ^= (byte & 0xFF) << ((index & 3) * 8)
    product = (total * _A) & 0xFFFFFFFF
    return product >> (32 - bits)


class QueryRouteTable:
    """A leaf's keyword presence table, as held by its ultrapeer.

    ``add_file`` hashes every keyword of a shared file's name;
    ``might_match`` implements the forwarding predicate: all query
    keywords must hit set slots.
    """

    def __init__(self, log_size: int = DEFAULT_LOG_SIZE):
        if not 4 <= log_size <= 24:
            raise ValueError(f"log_size must be in 4..24, got {log_size}")
        self.log_size = log_size
        self.size = 1 << log_size
        self._slots: Set[int] = set()

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def fill_ratio(self) -> float:
        """Fraction of slots set (dense tables forward almost anything)."""
        return len(self._slots) / self.size

    def add_file(self, name: str) -> None:
        """Hash a shared file's keywords into the table."""
        for keyword in _keywords(name):
            self._slots.add(keyword_hash(keyword, self.log_size))

    def add_library(self, names: Iterable[str]) -> None:
        for name in names:
            self.add_file(name)

    def might_match(self, query_keywords: str) -> bool:
        """Whether a query could be answered by this leaf.

        True requires every keyword slot set; empty queries never match
        (the spec forbids forwarding empty queries to leaves).
        """
        words = _keywords(query_keywords)
        if not words:
            return False
        return all(keyword_hash(w, self.log_size) in self._slots for w in words)

    def merge(self, other: "QueryRouteTable") -> "QueryRouteTable":
        """The union table (ultrapeers aggregate leaf tables upstream)."""
        if other.log_size != self.log_size:
            raise ValueError("cannot merge tables of different sizes")
        merged = QueryRouteTable(self.log_size)
        merged._slots = self._slots | other._slots
        return merged
