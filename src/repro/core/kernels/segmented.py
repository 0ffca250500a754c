"""Segmented (ragged/CSR) kernels.

The columnar engines carry flat arrays with one element per query,
grouped into variable-length per-session segments described by a
``counts`` vector.  These kernels are the primitives everything else is
built from; their float summation orders are part of the engines'
byte-identity contract.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segmented_arange",
    "segmented_cumsum",
    "segment_ids",
    "segmented_offsets_scatter",
    "segmented_offsets_base",
    "group_slices",
]


def segmented_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` as one flat int64 array."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def segmented_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment cumulative sum of ``values`` (inclusive).

    ``values`` is flat segment-major data; segment ``i`` owns the next
    ``counts[i]`` elements.  Equivalent to ``np.cumsum`` applied to each
    segment independently.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.size == 0:
        return np.zeros(0, dtype=np.float64)
    running = np.cumsum(values)
    ends = np.cumsum(counts)
    starts = ends - counts
    base = np.where(starts > 0, running[starts - 1], 0.0)
    return running - np.repeat(base, counts)


def segment_ids(counts: np.ndarray) -> np.ndarray:
    """Owning segment index for every flat element."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def segmented_offsets_scatter(
    first: np.ndarray, gaps: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Fused first/gap draws -> inclusive offsets (scatter-first order).

    Element ``j`` of segment ``i`` is ``cumsum([first[i], gaps...])[j]``.
    ``first`` has one element per segment; ``gaps`` has one element per
    flat non-head position, in segment-major order.  One buffer holds
    ``first[i]`` at each segment head and the gaps elsewhere, and one
    segmented cumsum turns it into offsets: float summation order is
    ``((first + g1) + g2)``, the user-model planner's order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    vals = np.zeros(total, dtype=np.float64)
    is_first = segmented_arange(counts) == 0
    vals[is_first] = first
    vals[~is_first] = gaps
    return segmented_cumsum(vals, counts)


def segmented_offsets_base(
    first: np.ndarray, gaps: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Fused offsets in base-plus-gaps order: ``first[i] + cumsum([0, gaps...])``.

    Same mathematical value as :func:`segmented_offsets_scatter` but a
    different float summation order, ``first + (g1 + g2)`` (the
    generator wave engine's); kept separate because each engine's
    rounding is part of its output identity.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    vals = np.zeros(total, dtype=np.float64)
    vals[segmented_arange(counts) > 0] = gaps
    return np.repeat(first, counts) + segmented_cumsum(vals, counts)


def group_slices(codes: np.ndarray):
    """Stable grouping of flat rows by integer code.

    Returns ``(order, keys, bounds)``: ``order`` is a stable position
    permutation grouping equal codes, ``keys`` the sorted distinct
    codes, and group ``k`` owns positions ``order[bounds[k]:bounds[k+1]]``
    (ascending within each group).  One O(n log n) pass replaces a
    boolean mask per key; visiting groups in ``keys`` order is the
    ascending-key order the engines' RNG consumption contract is
    defined by.
    """
    codes = np.asarray(codes)
    order = np.argsort(codes, kind="stable")
    if codes.size == 0:
        return order, codes[:0], np.zeros(1, dtype=np.int64)
    sorted_codes = codes[order]
    # The argsort already grouped equal codes; boundaries fall out of
    # one linear inequality pass instead of a second sort (np.unique).
    change = np.nonzero(sorted_codes[1:] != sorted_codes[:-1])[0] + 1
    bounds = np.empty(change.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = change
    bounds[-1] = codes.size
    keys = sorted_codes[bounds[:-1]]
    return order, keys, bounds
