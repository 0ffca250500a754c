"""Sorted-set membership kernels.

The batched overlay engine (:mod:`repro.gnutella.columnar_overlay`)
replaces per-node GUID routing tables and Python ``set`` membership with
flat sorted key arrays: duplicate-query suppression, visited-frontier
checks, and CSR edge-set churn all reduce to probes and merges over
sorted unique int64 keys.

Contract: *haystack* inputs (and both operands of the merge/diff forms)
must be sorted and duplicate-free; outputs preserve that invariant.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sorted_lookup",
    "isin_sorted",
    "merge_unique",
    "setdiff_sorted",
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
