"""The overlay command's backbone built from peer objects, and its checks.

:func:`build_object_backbone` is the object build that
:func:`repro.gnutella.columnar_overlay._build_backbone` replays as
arrays: an :class:`~gnutella_reference.overlay.OverlayNetwork` with
seeded libraries, plus the monitor node.  :func:`check_backbone` holds
the two equal: node modes, edge keys, ultrapeer rows and library codes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.kernels import sorted_lookup, unique_sorted
from repro.core.regions import Region
from repro.gnutella.columnar_overlay import (
    BACKBONE_LEAVES,
    BACKBONE_SEED,
    BACKBONE_ULTRAPEERS,
    LEAF_ATTACHMENTS,
    MEAN_LIBRARY_FILES,
    MONITOR_ID,
    MONITOR_LINKS,
    QRP_LOG_SIZE,
    ULTRAPEER_DEGREE,
    Backbone,
)
from repro.gnutella.topology import CSRTopology

from .overlay import OverlayNetwork
from .peer import PeerMode, PeerNode

MONITOR_IP = "129.217.1.1"


def build_object_backbone(
    vocab: np.ndarray,
    n_ultrapeers: int = BACKBONE_ULTRAPEERS,
    n_leaves: int = BACKBONE_LEAVES,
    degree: int = ULTRAPEER_DEGREE,
    attachments: int = LEAF_ATTACHMENTS,
    monitor_links: int = MONITOR_LINKS,
    mean_files: float = MEAN_LIBRARY_FILES,
    seed: int = BACKBONE_SEED,
) -> Tuple[OverlayNetwork, List[str]]:
    """The static backbone + monitor the churn peers attach to.

    Zero link latency makes event-driven floods strict BFS; connection
    caps are lifted after construction (slot pressure is not part of
    the engine's semantics).  Backbone QRP tables are rebuilt at
    ``QRP_LOG_SIZE``, the leaf tables the flood tables reproduce.
    Returns the overlay and its ultrapeer ids in index order.
    """
    overlay = OverlayNetwork(
        n_ultrapeers=n_ultrapeers,
        n_leaves=n_leaves,
        ultrapeer_degree=degree,
        leaf_attachments=attachments,
        latency_ms=(0.0, 0.0),
        seed=seed,
    )
    if vocab.size:
        overlay.seed_libraries([str(w) for w in vocab], mean_files=mean_files)
    monitor = PeerNode(
        node_id=MONITOR_ID, ip=MONITOR_IP, mode=PeerMode.ULTRAPEER,
        max_connections=2 ** 31,
    )
    overlay.nodes[MONITOR_ID] = monitor
    overlay.region_of[MONITOR_ID] = Region.EUROPE
    ups = [
        node_id for node_id, node in overlay.nodes.items()
        if node.is_ultrapeer and node_id != MONITOR_ID
    ]
    for other in ups[:monitor_links]:
        overlay.connect(MONITOR_ID, other)
    for node in overlay.nodes.values():
        node.max_connections = 2 ** 31
    for node_id, node in overlay.nodes.items():
        if node.is_ultrapeer:
            continue
        table = node.build_qrp_table(QRP_LOG_SIZE)
        for neighbour_id in node.neighbours:
            neighbour = overlay.nodes[neighbour_id]
            if neighbour.is_ultrapeer:
                neighbour.install_leaf_table(node_id, table)
    return overlay, ups


def from_overlay(
    overlay: OverlayNetwork, capacity: Optional[int] = None
) -> Tuple[CSRTopology, List[str]]:
    """Convert an :class:`~gnutella_reference.overlay.OverlayNetwork`.

    Returns ``(topology, node_ids)`` with node ``node_ids[i]`` at
    index ``i`` (ids sorted, so the mapping is reproducible).
    ``capacity`` reserves extra inactive slots past the backbone (one
    per future churn session) without changing the conversion.
    """
    node_ids = sorted(overlay.nodes)
    index = {node_id: i for i, node_id in enumerate(node_ids)}
    if capacity is None:
        capacity = len(node_ids)
    if capacity < len(node_ids):
        raise ValueError("capacity smaller than the overlay's node count")
    topo = CSRTopology(capacity)
    topo.active[: len(node_ids)] = True
    for node_id, node in overlay.nodes.items():
        topo.is_ultrapeer[index[node_id]] = node.is_ultrapeer
    pairs = [
        (index[node_id], index[neighbour])
        for node_id, node in overlay.nodes.items()
        for neighbour in node.neighbours
    ]
    if pairs:
        arr = np.asarray(pairs, dtype=np.int64)
        topo._keys = unique_sorted(arr[:, 0] * topo.capacity + arr[:, 1])
    return topo.validate(), node_ids


def library_codes(vocab: np.ndarray, library) -> np.ndarray:
    """Vocabulary codes of one node's library set (all must resolve)."""
    if not library:
        return np.zeros(0, dtype=np.int64)
    values = np.asarray(sorted(library), dtype=np.str_)
    mask, idx = sorted_lookup(vocab, values)
    if not mask.all():
        raise ValueError("library entry missing from the flood vocabulary")
    return idx


def library_entries(
    overlay: OverlayNetwork, node_ids: List[str], vocab: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every library entry as ``(rows, codes, is_leaf)``, sorted by
    (row, code); node ``node_ids[i]`` is row ``i``."""
    rows, codes, is_leaf = [], [], []
    for row, node_id in enumerate(node_ids):
        node = overlay.nodes[node_id]
        node_codes = library_codes(vocab, node.library)
        rows.append(np.full(node_codes.size, row, dtype=np.int64))
        codes.append(node_codes.astype(np.int64))
        is_leaf.append(np.full(node_codes.size, not node.is_ultrapeer))
    return np.concatenate(rows), np.concatenate(codes), np.concatenate(is_leaf)


def check_backbone(
    backbone: Backbone, overlay: OverlayNetwork, ups: List[str], vocab: np.ndarray
) -> None:
    """Raise ``AssertionError`` unless the arrays are the object build."""
    topo, node_ids = from_overlay(overlay)
    index = {node_id: i for i, node_id in enumerate(node_ids)}
    rows, codes, _ = library_entries(overlay, node_ids, vocab)
    checks = {
        "node modes": np.array_equal(backbone.is_ultrapeer, topo.is_ultrapeer),
        "edge keys": np.array_equal(backbone.edge_keys, topo.edge_keys),
        "ultrapeer rows": backbone.up_rows.tolist() == [index[u] for u in ups],
        "monitor row": backbone.monitor == index[MONITOR_ID],
        "library rows": np.array_equal(backbone.lib_rows, rows),
        "library codes": np.array_equal(backbone.lib_codes, codes),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AssertionError(f"array backbone differs from the object build: {failed}")
