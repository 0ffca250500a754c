"""Gnutella overlay network simulator.

Builds a full ultrapeer/leaf topology of :class:`~gnutella_reference.peer.PeerNode`
objects and delivers messages through the
:class:`~gnutella_reference.simulator.EventScheduler` with per-link latency.
This is the oracle the columnar overlay engine's floods (query
flooding, TTL horizon, QUERYHIT reverse routing) are held to, and the
check that the peer forwarding rules compose correctly at network scale.

"The construction algorithm of the Gnutella overlay network does not
contain any geographic bias in the peers that are directly connected"
(Section 3.1) -- accordingly, topology construction here picks neighbours
uniformly at random, and a test verifies the no-bias property the paper's
measurement methodology leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.regions import Region
from repro.geoip import IpAllocator

from .messages import Message, Query, QueryHit
from .peer import PeerMode, PeerNode
from .simulator import EventScheduler

__all__ = ["OverlayNetwork", "QueryOutcome"]


@dataclass
class QueryOutcome:
    """Result of flooding one query through the overlay."""

    origin: str
    keywords: str
    messages_sent: int = 0
    peers_reached: Set[str] = field(default_factory=set)
    hits: int = 0
    hit_latency: List[float] = field(default_factory=list)

    @property
    def reach(self) -> int:
        return len(self.peers_reached)


class OverlayNetwork:
    """An in-memory Gnutella overlay with event-driven message delivery.

    Parameters
    ----------
    n_ultrapeers, n_leaves:
        Topology size.  Each ultrapeer connects to ``ultrapeer_degree``
        random other ultrapeers; each leaf attaches to
        ``leaves_per_ultrapeer`` random ultrapeers ("less powerful peers
        connect to only a small set of ultrapeers").
    region_weights:
        Optional geographic mix for peer placement; defaults to the
        paper's Figure 1 noon mix.
    latency_ms:
        (low, high) uniform per-link latency in milliseconds.
    """

    def __init__(
        self,
        n_ultrapeers: int = 50,
        n_leaves: int = 150,
        ultrapeer_degree: int = 6,
        leaf_attachments: int = 2,
        region_weights: Optional[Dict[Region, float]] = None,
        latency_ms: Tuple[float, float] = (20.0, 200.0),
        seed: int = 11,
    ):
        if n_ultrapeers < 2:
            raise ValueError("need at least 2 ultrapeers")
        if ultrapeer_degree < 1 or leaf_attachments < 1:
            raise ValueError("degrees must be >= 1")
        self.rng = np.random.default_rng(seed)
        self.scheduler = EventScheduler()
        self.nodes: Dict[str, PeerNode] = {}
        self.latency_ms = latency_ms
        self._allocator = IpAllocator(seed=seed)
        weights = region_weights or {
            Region.NORTH_AMERICA: 0.60, Region.EUROPE: 0.20,
            Region.ASIA: 0.13, Region.OTHER: 0.07,
        }
        self._regions = list(weights)
        self._region_p = np.array([weights[r] for r in self._regions], dtype=float)
        self._region_p = self._region_p / self._region_p.sum()
        self.region_of: Dict[str, Region] = {}
        self._build(n_ultrapeers, n_leaves, ultrapeer_degree, leaf_attachments)

    # -- construction -------------------------------------------------------------

    def _new_node(self, index: int, mode: PeerMode) -> PeerNode:
        region = self._regions[int(self.rng.choice(len(self._regions), p=self._region_p))]
        node_id = f"{mode.value[:2]}{index:05d}"
        node = PeerNode(
            node_id=node_id,
            ip=self._allocator.allocate(region),
            mode=mode,
            max_connections=200 if mode is PeerMode.ULTRAPEER else 5,
        )
        self.nodes[node_id] = node
        self.region_of[node_id] = region
        return node

    def _build(self, n_ultrapeers: int, n_leaves: int, degree: int, attachments: int) -> None:
        ultrapeers = [self._new_node(i, PeerMode.ULTRAPEER) for i in range(n_ultrapeers)]
        # Random regular-ish ultrapeer mesh: no geographic bias.
        ids = [u.node_id for u in ultrapeers]
        for u in ultrapeers:
            want = degree - len(u.neighbours)
            if want <= 0:
                continue
            candidates = [i for i in ids if i != u.node_id and i not in u.neighbours
                          and self.nodes[i].can_accept()]
            self.rng.shuffle(candidates)
            for other in candidates[:want]:
                self.connect(u.node_id, other)
        for j in range(n_leaves):
            leaf = self._new_node(j, PeerMode.LEAF)
            chosen = self.rng.choice(len(ids), size=min(attachments, len(ids)), replace=False)
            for idx in chosen:
                self.connect(leaf.node_id, ids[int(idx)])

    def connect(self, a: str, b: str) -> None:
        """Create a bidirectional overlay connection."""
        na, nb = self.nodes[a], self.nodes[b]
        if b in na.neighbours:
            return
        na.add_neighbour(b, nb.mode)
        nb.add_neighbour(a, na.mode)

    def disconnect(self, a: str, b: str) -> None:
        self.nodes[a].remove_neighbour(b)
        self.nodes[b].remove_neighbour(a)

    # -- library assignment -----------------------------------------------------

    def seed_libraries(self, catalog: Sequence[str], mean_files: float = 8.0, replication: float = 0.02) -> None:
        """Give each peer a random library drawn from ``catalog``.

        Each peer shares a Poisson number of items; each item is a
        uniformly random catalog entry, so an item's replication factor
        is roughly ``replication * n_peers`` when mean_files/len(catalog)
        ~ replication.  Free riders (sharing nothing) arise naturally
        from the Poisson draw, echoing Adar & Huberman's observation.
        """
        if not catalog:
            raise ValueError("catalog must not be empty")
        del replication  # documented knob; the draw below realizes it
        for node in self.nodes.values():
            count = int(self.rng.poisson(mean_files))
            picks = self.rng.choice(len(catalog), size=min(count, len(catalog)), replace=False)
            node.library = {catalog[int(i)].lower() for i in picks}
        self.exchange_qrp_tables()

    def exchange_qrp_tables(self) -> None:
        """Leaves push their QRP tables to their ultrapeers (Section 3.1:
        queries are only forwarded to leaves likely to respond)."""
        for node_id, node in self.nodes.items():
            if node.is_ultrapeer:
                continue
            table = node.build_qrp_table()
            for neighbour_id in node.neighbours:
                neighbour = self.nodes[neighbour_id]
                if neighbour.is_ultrapeer:
                    neighbour.install_leaf_table(node_id, table)

    # -- traffic -------------------------------------------------------------------

    def _latency(self) -> float:
        low, high = self.latency_ms
        return (low + self.rng.random() * (high - low)) / 1000.0

    def flood_query(self, origin: str, keywords: str, ttl: int = 7) -> QueryOutcome:
        """Originate a query at ``origin`` and run the flood to completion.

        Returns the outcome: overlay messages generated, distinct peers
        reached, hits received back at the origin, and per-hit latency.
        """
        node = self.nodes[origin]
        outcome = QueryOutcome(origin=origin, keywords=keywords)
        start = self.scheduler.now
        query, actions = node.originate_query(keywords, now=start, ttl=ttl)
        self._dispatch(origin, actions, outcome, query.guid, start)
        self.scheduler.run()
        return outcome

    def _dispatch(self, sender: str, actions, outcome: QueryOutcome, guid: bytes, start: float) -> None:
        for dest, message in actions:
            outcome.messages_sent += 1
            delay = self._latency()

            def deliver(dest=dest, message=message, sender=sender):
                target = self.nodes.get(dest)
                if target is None or sender not in target.neighbours:
                    return
                if isinstance(message, Query) and message.guid == guid:
                    outcome.peers_reached.add(dest)
                if isinstance(message, QueryHit) and message.guid == guid and dest == outcome.origin:
                    outcome.hits += message.n_hits
                    outcome.hit_latency.append(self.scheduler.now - start)
                    # Terminal delivery: the origin consumes its own hit.
                    self.nodes[dest].handle(message, sender, self.scheduler.now)
                    return
                follow_up = target.handle(message, sender, self.scheduler.now)
                self._dispatch(dest, follow_up, outcome, guid, start)

            self.scheduler.schedule_after(delay, deliver)

    # -- introspection --------------------------------------------------------------

    def degree_distribution(self) -> Dict[str, List[int]]:
        """Connection counts split by mode (for topology sanity checks)."""
        out: Dict[str, List[int]] = {"ultrapeer": [], "leaf": []}
        for node in self.nodes.values():
            out[node.mode.value].append(len(node.neighbours))
        return out

    def one_hop_region_mix(self, node_id: str) -> Dict[Region, float]:
        """Geographic mix of a node's direct neighbours (Figure 1 check)."""
        node = self.nodes[node_id]
        if not node.neighbours:
            return {}
        counts: Dict[Region, int] = {}
        for n in node.neighbours:
            counts[self.region_of[n]] = counts.get(self.region_of[n], 0) + 1
        total = sum(counts.values())
        return {r: c / total for r, c in counts.items()}
