"""A small discrete-event scheduler for the overlay simulator.

Deliberately minimal: a time-ordered heap of callbacks with stable
FIFO ordering for simultaneous events.  The overlay uses it to deliver
messages with per-link latency; the synthesis layer uses it to sequence
session arrivals, query emissions, and idle-detection timers.

Heap entries are pure ``(time, seq)`` keys -- the callback itself lives
in a side table and is never compared.  Equal-timestamp events therefore
order strictly by scheduling sequence, which the overlay equivalence
battery (the event reference against the columnar engine) depends on:
with per-link latency zeroed, a flood's delivery order must be a
function of scheduling order alone, not of whatever ``heapq`` would
make of comparing two closures.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["EventScheduler"]


class EventScheduler:
    """Priority queue of timestamped callbacks.

    Events scheduled for the same instant run in scheduling order.
    Callbacks may schedule further events.  ``run_until`` drives the
    clock; the clock never moves backwards.
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        #: Deterministic (time, seq) keys only; callbacks never enter
        #: the heap, so nothing ever falls back to comparing them.
        self._heap: List[Tuple[float, int]] = []
        self._counter = itertools.count()
        self._callbacks: Dict[int, Callable[[], None]] = {}

    def __len__(self) -> int:
        """Pending (non-cancelled) events."""
        return len(self._callbacks)

    def schedule(self, when: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` at absolute time ``when``; returns an id."""
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        event_id = next(self._counter)
        self._callbacks[event_id] = callback
        heapq.heappush(self._heap, (when, event_id))
        return event_id

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback)

    def cancel(self, event_id: int) -> None:
        """Cancel a pending event (lazily; no-op if already fired)."""
        self._callbacks.pop(event_id, None)

    def _prune_cancelled(self) -> None:
        """Drop cancelled entries from the head so peeks see live events."""
        while self._heap and self._heap[0][1] not in self._callbacks:
            heapq.heappop(self._heap)

    def step(self) -> bool:
        """Run the next event; return False when the queue is empty."""
        self._prune_cancelled()
        if not self._heap:
            return False
        when, event_id = heapq.heappop(self._heap)
        callback = self._callbacks.pop(event_id)
        self.now = when
        callback()
        return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``; return how many ran."""
        count = 0
        while True:
            self._prune_cancelled()
            if not self._heap or self._heap[0][0] > end_time:
                break
            if not self.step():
                break
            count += 1
            if max_events is not None and count >= max_events:
                break
        self._prune_cancelled()
        if not self._heap or self._heap[0][0] > end_time:
            self.now = max(self.now, end_time)
        return count

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue (bounded by ``max_events``); return how many ran."""
        count = 0
        while count < max_events and self.step():
            count += 1
        return count
