"""Query Routing Protocol (QRP) keyword hashes, batched.

Section 3.1: "A QUERY message is forwarded to all ultrapeer nodes, but is
only forwarded to the leaf nodes that have a high probability of
responding."  Real Gnutella implements this with QRP: each leaf hashes
the keywords of its shared files into a fixed-size bit table and sends it
to its ultrapeers; an ultrapeer forwards a query to a leaf only when
*every* query keyword hashes to a set bit.

This is the classic LimeWire QRP design: a table of ``2**log_size`` slots
with the Gnutella keyword hash (a multiplicative hash over lowercased
keyword bytes).  False positives are possible (hash collisions); false
negatives are not.  The columnar overlay engine builds its leaf tables
from the batched hashes here; the scalar hash and table that the object
peers hold (``tests/gnutella_reference/qrp.py``) are their bit-exact
oracle.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.kernels import segmented_arange, unique_sorted

__all__ = ["keyword_hashes", "text_hash_table"]

#: The QRP multiplicative constant (golden-ratio hash, per the QRP spec).
_A = 0x4F1BBCDC


def _keywords(text: str) -> List[str]:
    return [w for w in text.lower().split() if w]


def keyword_hashes(words: Sequence[str], bits: int) -> np.ndarray:
    """The QRP hash of each keyword into ``bits`` bits.

    Bit-exact with the scalar per-keyword hash: the little-endian XOR
    fold runs as one segmented pass over the concatenated utf-8 bytes,
    then one 32-bit multiplicative hash over the folded words.  Empty
    keywords are rejected (the tokenizer never produces them).
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
