"""Query Routing Protocol (QRP) tables.

Section 3.1: "A QUERY message is forwarded to all ultrapeer nodes, but is
only forwarded to the leaf nodes that have a high probability of
responding."  Real Gnutella implements this with QRP: each leaf hashes
the keywords of its shared files into a fixed-size bit table and sends it
to its ultrapeers; an ultrapeer forwards a query to a leaf only when
*every* query keyword hashes to a set bit.

This is the classic LimeWire QRP design: a table of ``2**log_size`` slots
with the Gnutella keyword hash (a multiplicative hash over lowercased
keyword bytes).  False positives are possible (hash collisions); false
negatives are not, which is the property the tests pin down.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.kernels import segmented_arange, unique_sorted

__all__ = [
    "keyword_hash",
    "keyword_hashes",
    "text_hash_table",
    "QueryRouteTable",
]

#: LimeWire's default QRP table: 2**16 slots.
DEFAULT_LOG_SIZE = 16

#: The QRP multiplicative constant (golden-ratio hash, per the QRP spec).
_A = 0x4F1BBCDC


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


def _keywords(text: str) -> List[str]:
    return [w for w in text.lower().split() if w]


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


# ---------------------------------------------------------------------------
# Batched forms (the columnar overlay engine's leaf-forwarding filter)
# ---------------------------------------------------------------------------


def keyword_hashes(words: Sequence[str], bits: int) -> np.ndarray:
    """Vectorized :func:`keyword_hash` over a batch of keywords.

    Bit-exact with the scalar form: the little-endian XOR fold runs as
    one segmented pass over the concatenated utf-8 bytes, then one
    32-bit multiplicative hash over the folded words.  Empty keywords
    are rejected (the scalar tokenizer never produces them).
    """
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in 1..32, got {bits}")
    if len(words) == 0:
        return np.zeros(0, dtype=np.int64)
    encoded = [w.lower().encode("utf-8") for w in words]
    counts = np.asarray([len(e) for e in encoded], dtype=np.int64)
    if (counts == 0).any():
        raise ValueError("cannot hash an empty keyword")
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8).astype(np.uint32)
    pos = segmented_arange(counts)
    shifted = data << ((pos & 3) * np.uint32(8)).astype(np.uint32)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    totals = np.bitwise_xor.reduceat(shifted, starts)
    product = (totals.astype(np.uint64) * np.uint64(_A)) & np.uint64(0xFFFFFFFF)
    return (product >> np.uint64(32 - bits)).astype(np.int64)


def text_hash_table(texts: Sequence[str], bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-text sorted unique keyword-hash sets, as a flat CSR pair.

    Returns ``(hashes, counts)``: text ``i`` owns the next ``counts[i]``
    entries of ``hashes``.  A text with no keywords gets an empty
    segment, preserving the scalar contract that empty queries never
    match.  This is the shared tokenize+hash step for both table builds
    (library side) and query lookups (forwarding side).
    """
    words: List[str] = []
    word_text = []
    for i, text in enumerate(texts):
        for w in _keywords(text):
            words.append(w)
            word_text.append(i)
    n = len(texts)
    if not words:
        return np.zeros(0, dtype=np.int64), np.zeros(n, dtype=np.int64)
    hashes = keyword_hashes(words, bits)
    # Dedupe per text with one sort over packed (text, hash) keys.
    size = np.int64(1) << np.int64(bits)
    keys = unique_sorted(np.asarray(word_text, dtype=np.int64) * size + hashes)
    counts = np.bincount(keys // size, minlength=n).astype(np.int64)
    return (keys % size).astype(np.int64), counts
