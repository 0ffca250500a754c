"""Sorted-set membership kernels.

The batched overlay engine (:mod:`repro.gnutella.columnar_overlay`)
replaces per-node GUID routing tables and Python ``set`` membership with
flat sorted key arrays: duplicate-query suppression, visited-frontier
checks, and CSR edge-set churn all reduce to probes and merges over
sorted unique int64 keys.

Contract: *haystack* inputs (and both operands of the merge/diff forms)
must be sorted and duplicate-free; outputs preserve that invariant.

:func:`merge_vocabularies` is the string-column form of the same idea:
trace columns hold integer codes into a sorted vocabulary, and every
path that joins or subsets coded columns (trace builds, split-session
reassembly) re-codes them through it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sorted_lookup",
    "isin_sorted",
    "merge_unique",
    "setdiff_sorted",
    "merge_vocabularies",
]


def sorted_lookup(haystack: np.ndarray, values: np.ndarray):
    """Membership mask + positions of ``values`` in sorted unique ``haystack``.

    Returns ``(mask, idx)``: ``mask[i]`` is True when ``values[i]``
    occurs in ``haystack`` and ``idx[i]`` is then its position; where
    ``mask`` is False the position is meaningless (clipped).
    """
    haystack = np.asarray(haystack)
    values = np.asarray(values)
    if haystack.size == 0:
        return (
            np.zeros(values.shape, dtype=bool),
            np.zeros(values.shape, dtype=np.int64),
        )
    pos = np.searchsorted(haystack, values, side="left")
    idx = np.minimum(pos, haystack.size - 1).astype(np.int64)
    mask = haystack[idx] == values
    return mask, idx


def isin_sorted(haystack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a sorted unique ``haystack``."""
    mask, _ = sorted_lookup(haystack, values)
    return mask


def merge_unique(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-unique union of two sorted unique arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of sorted unique ``a`` that are absent from sorted ``b``."""
    mask, _ = sorted_lookup(b, a)
    return np.asarray(a)[~mask]


def merge_vocabularies(vocabs, codes):
    """Re-code columns coded against several vocabularies onto one.

    ``codes[i]`` indexes ``vocabs[i]``.  Returns ``(vocab, recoded)``:
    the sorted unique vocabulary of exactly the entries some code uses,
    as wide as its longest string, and each code column re-coded into
    it as ``int32``.  Input vocabularies may be unsorted, overlap,
    repeat entries, or be one array shared by many code columns: only
    the entries in use are gathered and sorted, so the result depends
    on the strings the codes name, not on how they were split.
    """
    if not vocabs:
        return np.empty(0, dtype="U1"), []
    factored = [np.unique(np.asarray(c, dtype=np.int64), return_inverse=True) for c in codes]
    vocab, inverse = np.unique(
        np.concatenate([np.asarray(v)[used] for v, (used, _) in zip(vocabs, factored)]),
        return_inverse=True,
    )
    if vocab.dtype.kind == "U":
        width = int(np.char.str_len(vocab).max()) if vocab.size else 0
        vocab = vocab.astype(f"U{max(width, 1)}")
    inverse = inverse.astype(np.int32)
    bounds = np.cumsum([0] + [used.size for used, _ in factored])
    return vocab, [
        inverse[lo:hi][position]
        for (_, position), lo, hi in zip(factored, bounds[:-1], bounds[1:])
    ]
