"""CSR array representation of the ultrapeer/leaf overlay topology.

:class:`CSRTopology` keeps the undirected overlay graph as flat arrays:
per-node mode/active flags plus one sorted array of packed directed
edge keys (``src * capacity + dst``), from which the
compressed-sparse-row adjacency (``indptr``/``indices``) is rebuilt
lazily after churn.  Connect/disconnect are *batch* operations -- one
sorted-set merge or difference over the whole round's churn, on
:mod:`repro.core.kernels` set-membership primitives -- which is what
lets the delta-stepped engine in
:mod:`repro.gnutella.columnar_overlay` run 50k+ peers with churn.

Both edge directions are stored, so a node's neighbour list is one
contiguous CSR slice and the symmetry invariant is machine-checkable
(:meth:`CSRTopology.validate`).  The engine's backbone joins as one
batch of edge keys; that it is the graph the object overlay of
``tests/gnutella_reference`` builds from the same seed is identical by
test, not by construction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.kernels import isin_sorted, merge_unique, setdiff_sorted, unique_sorted

__all__ = ["CSRTopology"]


class CSRTopology:
    """An undirected overlay graph over a fixed node index space.

    ``capacity`` fixes the index space up front (backbone + monitor +
    every churn session gets one slot); nodes toggle ``active`` as they
    join and leave.  Edges live in one sorted unique int64 key array
    with both directions present; the CSR view is cached and rebuilt
    only after a mutation.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.is_ultrapeer = np.zeros(self.capacity, dtype=bool)
        self.active = np.zeros(self.capacity, dtype=bool)
        self._keys = np.zeros(0, dtype=np.int64)
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None

    # -- node lifecycle -----------------------------------------------------

    def add_nodes(self, indices: np.ndarray, ultrapeer: np.ndarray) -> None:
        """Activate a batch of node slots with their modes."""
        indices = self._indices(indices)
        if self.active[indices].any():
            raise ValueError("node slot already active")
        self.active[indices] = True
        self.is_ultrapeer[indices] = np.asarray(ultrapeer, dtype=bool)

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Deactivate a batch of nodes, detaching any remaining edges."""
        indices = self._indices(indices)
        self.detach(indices)
        self.active[indices] = False

    # -- batch edge churn ---------------------------------------------------

    def connect(self, a: np.ndarray, b: np.ndarray) -> None:
        """Create the undirected edges ``(a[i], b[i])`` in one merge.

        Idempotent for edges that already exist (matching the scalar
        overlay's ``connect``); self-loops and inactive endpoints are
        errors.
        """
        a, b = self._edge_batch(a, b)
        if a.size == 0:
            return
        fresh = unique_sorted(
            np.concatenate([self._pack(a, b), self._pack(b, a)])
        )
        self._keys = merge_unique(self._keys, fresh)
        self._csr = None

    def disconnect(self, a: np.ndarray, b: np.ndarray) -> None:
        """Remove the undirected edges ``(a[i], b[i])`` in one difference.

        Absent edges are ignored (a departing peer's edges may already
        be gone).
        """
        a, b = self._edge_batch(a, b, check_active=False)
        if a.size == 0:
            return
        gone = unique_sorted(
            np.concatenate([self._pack(a, b), self._pack(b, a)])
        )
        self._keys = setdiff_sorted(self._keys, gone)
        self._csr = None

    def detach(self, indices: np.ndarray) -> None:
        """Drop every edge touching any of ``indices`` (batch departure)."""
        indices = unique_sorted(self._indices(indices))
        if indices.size == 0 or self._keys.size == 0:
            return
        src = self._keys // self.capacity
        dst = self._keys % self.capacity
        drop = isin_sorted(indices, src) | isin_sorted(indices, dst)
        if drop.any():
            self._keys = self._keys[~drop]
            self._csr = None

    # -- views --------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Active node count."""
        return int(self.active.sum())

    @property
    def n_edges(self) -> int:
        """Undirected edge count."""
        return int(self._keys.size // 2)

    @property
    def edge_keys(self) -> np.ndarray:
        """The sorted directed key array (read-only view)."""
        view = self._keys.view()
        view.flags.writeable = False
        return view

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency as ``(indptr, indices)``; cached until churn.

        Node ``i`` owns neighbours ``indices[indptr[i]:indptr[i+1]]``,
        ascending (the flood engine's canonical expansion order).
        """
        if self._csr is None:
            src = self._keys // self.capacity
            counts = np.bincount(src, minlength=self.capacity)
            indptr = np.zeros(self.capacity + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, (self._keys % self.capacity).astype(np.int64))
        return self._csr

    def neighbours(self, index: int) -> np.ndarray:
        """One node's neighbour indices (ascending)."""
        indptr, indices = self.csr()
        return indices[indptr[index]:indptr[index + 1]]

    def degrees(self) -> np.ndarray:
        """Per-node connection counts."""
        indptr, _ = self.csr()
        return np.diff(indptr)

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each undirected edge ``(a[i], b[i])`` exists."""
        a = self._indices(a)
        b = self._indices(b)
        return isin_sorted(self._keys, self._pack(a, b))

    def validate(self) -> "CSRTopology":
        """Check the structural invariants; returns ``self`` for chaining."""
        if self._keys.size:
            if (np.diff(self._keys) <= 0).any():
                raise AssertionError("edge keys must be sorted unique")
            src = self._keys // self.capacity
            dst = self._keys % self.capacity
            if (src == dst).any():
                raise AssertionError("self-loop present")
            if not self.active[src].all() or not self.active[dst].all():
                raise AssertionError("edge endpoint inactive")
            if not isin_sorted(self._keys, self._pack(dst, src)).all():
                raise AssertionError("edge set not symmetric")
        return self

    # -- internals ----------------------------------------------------------

    def _pack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * np.int64(self.capacity) + b

    def _indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.capacity
        ):
            raise IndexError("node index out of range")
        return indices

    def _edge_batch(
        self, a: np.ndarray, b: np.ndarray, check_active: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        a = self._indices(a)
        b = self._indices(b)
        if a.shape != b.shape:
            raise ValueError("edge endpoint arrays must have matching shapes")
        if (a == b).any():
            raise ValueError("a peer cannot connect to itself")
        if check_active and a.size and not (
            self.active[a].all() and self.active[b].all()
        ):
            raise ValueError("cannot connect inactive nodes")
        return a, b
