"""Live overlay measurement: the monitor inside a real message-passing overlay.

The trace synthesizer (:mod:`repro.synthesis`) feeds the measurement node
directly, which scales to 40-day traces but abstracts the overlay away.
This module closes that gap: a :class:`LiveOverlayMeasurement` runs the
measurement ultrapeer as a node in the event-driven overlay, with
churning peers that connect to it, originate their (client-expanded)
query streams as real QUERY messages, flood through the network with
TTL/hops semantics, and disconnect.  For populations past what the
per-message event loop can carry (50k+ peers with churn), the batched
array engine in :mod:`repro.gnutella.columnar_overlay` computes the
same floods and monitor observables -- held identical to this
machinery by its equivalence battery -- at many times its message
throughput (CI fails the columnar engine below 5x at 150 peers).

It validates the paper's central measurement claims mechanically:

* every user query of a directly connected peer arrives at the monitor
  with hop count exactly 1 ("the measurement node will receive every
  QUERY message from a directly connected peer");
* queries from more distant peers arrive with hops >= 2 and are excluded
  from session attribution (the Table 1 hop-1 row);
* sessions reconstructed by the monitor match the ground-truth
  connect/disconnect times up to the idle-detection overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.agents import PeerPopulation, UserBehavior
from repro.core.events import SessionRecord
from repro.core.regions import Region, hour_of_day
from repro.measurement import MeasurementNode

from .clients import expand_user_session
from .messages import Message, Query
from .overlay import OverlayNetwork
from .peer import PeerMode, PeerNode
from .simulator import EventScheduler

__all__ = ["LiveOverlayMeasurement", "LiveRunStats"]

MONITOR_ID = "monitor"


@dataclass
class LiveRunStats:
    """Aggregate observations from one live run."""

    peers_connected: int = 0
    user_queries_planned: int = 0
    stream_queries_sent: int = 0
    hop1_queries_observed: int = 0
    relayed_queries_observed: int = 0
    hop_histogram: Dict[int, int] = field(default_factory=dict)

    def observe_hops(self, hops: int) -> None:
        self.hop_histogram[hops] = self.hop_histogram.get(hops, 0) + 1


class LiveOverlayMeasurement:
    """Small-scale, full-fidelity measurement-in-the-overlay run.

    Parameters mirror the synthesizer at miniature scale; every message
    is an actual :class:`~repro.gnutella.messages.Message` routed through
    :class:`~repro.gnutella.peer.PeerNode` forwarding logic.
    """

    def __init__(
        self,
        n_backbone_ultrapeers: int = 20,
        n_backbone_leaves: int = 40,
        seed: int = 404,
        monitor_slots: int = 200,
    ):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.overlay = OverlayNetwork(
            n_ultrapeers=n_backbone_ultrapeers,
            n_leaves=n_backbone_leaves,
            seed=seed + 1,
        )
        self.scheduler = self.overlay.scheduler
        self.monitor = MeasurementNode(max_slots=monitor_slots)
        self.population = PeerPopulation(seed=seed + 2)
        self.behavior = UserBehavior(seed=seed + 3)
        self.stats = LiveRunStats()
        self._run_end = float("inf")
        # The monitor participates as a real ultrapeer node.
        self._monitor_node = PeerNode(
            node_id=MONITOR_ID, ip="129.217.1.1", mode=PeerMode.ULTRAPEER,
            max_connections=monitor_slots + len(self.overlay.nodes),
        )
        self.overlay.nodes[MONITOR_ID] = self._monitor_node
        self.overlay.region_of[MONITOR_ID] = Region.EUROPE
        backbone = [i for i, n in self.overlay.nodes.items()
                    if n.is_ultrapeer and i != MONITOR_ID][:6]
        for other in backbone:
            self.overlay.connect(MONITOR_ID, other)
        self._conn_ids: Dict[str, int] = {}
        self._next_peer = 0

    # -- churn -------------------------------------------------------------------

    def run(self, duration_seconds: float, mean_arrival_gap: float = 30.0) -> List[SessionRecord]:
        """Run churn for ``duration_seconds``; return the monitor's sessions.

        Peers arrive with exponential gaps, connect to the monitor (plus
        one backbone ultrapeer so floods propagate), emit their expanded
        query stream, and leave silently.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        self._run_end = float(duration_seconds)
        t = float(self.rng.exponential(mean_arrival_gap))
        while t < duration_seconds:
            self.scheduler.schedule(t, lambda t=t: self._peer_arrives(t))
            t += float(self.rng.exponential(mean_arrival_gap))
        self.scheduler.run_until(duration_seconds)
        return self.monitor.finalize(self.scheduler.now)

    def _peer_arrives(self, now: float) -> None:
        identity = self.population.spawn(hour_of_day(now))
        node_id = f"peer{self._next_peer:05d}"
        self._next_peer += 1
        node = PeerNode(
            node_id=node_id, ip=identity.ip,
            mode=PeerMode.ULTRAPEER if identity.ultrapeer else PeerMode.LEAF,
            max_connections=8,
        )
        self.overlay.nodes[node_id] = node
        self.overlay.region_of[node_id] = identity.region
        conn_id = self.monitor.open_connection(
            now, peer_ip=identity.ip, region=identity.region,
            user_agent=identity.profile.user_agent,
            ultrapeer=identity.ultrapeer, shared_files=identity.shared_files,
        )
        if conn_id is None:
            del self.overlay.nodes[node_id]
            return
        self.stats.peers_connected += 1
        self._conn_ids[node_id] = conn_id
        self.overlay.connect(node_id, MONITOR_ID)
        backbone = [i for i, n in self.overlay.nodes.items()
                    if n.is_ultrapeer and i not in (MONITOR_ID, node_id)]
        self.overlay.connect(node_id, backbone[int(self.rng.integers(len(backbone)))])

        plan = self.behavior.plan_session(identity.region, now)
        duration = min(max(plan.duration, 70.0), 3600.0)  # keep live runs short
        self.stats.user_queries_planned += len(plan.queries)
        stream = expand_user_session(
            plan.queries, duration, identity.profile, self.rng,
            pre_connect_queries=plan.pre_connect_queries,
        )
        # Emissions stop half a second before teardown: a message needs
        # the (<= 200 ms) link latency to reach the monitor before the
        # TCP connection goes away, as in real client shutdown order.
        for item in stream:
            offset = min(item.offset, duration - 0.5)
            self.scheduler.schedule(
                now + offset,
                lambda node_id=node_id, item=item: self._peer_queries(node_id, item),
            )
        self.scheduler.schedule(now + duration, lambda node_id=node_id: self._peer_departs(node_id))

    def _peer_queries(self, node_id: str, item) -> None:
        node = self.overlay.nodes.get(node_id)
        if node is None:
            return
        # Emissions in the run's final half-second cannot be delivered
        # before measurement stops (trace-boundary truncation).
        if self.scheduler.now > self._run_end - 0.5:
            return
        self.stats.stream_queries_sent += 1
        query, actions = node.originate_query(item.keywords, now=self.scheduler.now)
        self._deliver_all(node_id, actions)

    def _peer_departs(self, node_id: str) -> None:
        node = self.overlay.nodes.pop(node_id, None)
        if node is None:
            return
        for neighbour in list(node.neighbours):
            if neighbour in self.overlay.nodes:
                self.overlay.nodes[neighbour].remove_neighbour(node_id)
        conn_id = self._conn_ids.pop(node_id, None)
        if conn_id is not None:
            self.monitor.client_departed(conn_id, self.scheduler.now)

    # -- message plumbing -----------------------------------------------------------

    def _deliver_all(self, sender: str, actions: List[Tuple[str, Message]]) -> None:
        for dest, message in actions:
            delay = self.overlay._latency()
            self.scheduler.schedule_after(
                delay,
                lambda dest=dest, message=message, sender=sender: self._deliver(
                    dest, message, sender
                ),
            )

    def _deliver(self, dest: str, message: Message, sender: str) -> None:
        target = self.overlay.nodes.get(dest)
        if target is None or sender not in target.neighbours:
            return
        if dest == MONITOR_ID and isinstance(message, Query):
            self.stats.observe_hops(message.hops)
            if message.hops == 1 and sender in self._conn_ids:
                self.stats.hop1_queries_observed += 1
                self.monitor.receive_query(
                    self._conn_ids[sender], self.scheduler.now,
                    keywords=message.keywords, sha1=message.has_sha1,
                )
            else:
                self.stats.relayed_queries_observed += 1
        follow_up = target.handle(message, sender, self.scheduler.now)
        self._deliver_all(dest, follow_up)
