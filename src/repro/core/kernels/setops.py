"""Sorted-set membership kernels.

The batched overlay engine (:mod:`repro.gnutella.columnar_overlay`)
replaces per-node GUID routing tables and Python ``set`` membership with
flat sorted key arrays: duplicate-query suppression, visited-frontier
checks, and CSR edge-set churn all reduce to probes and merges over
sorted unique int64 keys.

Contract: *haystack* inputs (and both operands of the merge/diff forms)
must be sorted and duplicate-free; outputs preserve that invariant.
:func:`unique_sorted` and :func:`unique_first` build such arrays from
unsorted integer keys with one sort each: a plain ``np.unique`` takes
NumPy's hash path on integers, and ``return_index=True`` a stable
argsort, both several times slower and larger than a sort.

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
    "unique_sorted",
    "unique_first",
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


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted values."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


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
    return merged[_run_starts(merged)]


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for integer keys: sort, then keep run starts."""
    ordered = np.sort(np.asarray(keys).ravel())
    return ordered[_run_starts(ordered)]


def unique_first(keys: np.ndarray):
    """``np.unique(keys, return_index=True)`` for integer keys.

    Returns the sorted unique keys and the index of each one's first
    occurrence.  Each key is packed with its position into one int64
    (key above, position in the low bits) and the packed values are
    sorted once: they have no ties, so an unstable sort is exact.
    Raises ``ValueError`` when the key span, shifted past the position
    bits, would not fit in an int64.
    """
    keys = np.asarray(keys).ravel()
    if keys.dtype.kind not in "iu":
        raise TypeError(f"unique_first needs integer keys, got {keys.dtype}")
    if keys.size == 0:
        return keys.copy(), np.zeros(0, dtype=np.intp)
    low = keys.min()
    bits = (keys.size - 1).bit_length()
    if int(keys.max()) - int(low) >= 1 << (63 - bits):
        raise ValueError("key range too wide to pack with positions into int64")
    if keys.dtype.kind == "u":
        packed = (keys - low).astype(np.int64)
    else:
        packed = keys.astype(np.int64) - np.int64(low)
    packed <<= bits
    packed |= np.arange(keys.size, dtype=np.int64)
    packed.sort()
    first = packed[_run_starts(packed >> bits)] & np.int64((1 << bits) - 1)
    return keys[first], first.astype(np.intp, copy=False)


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
