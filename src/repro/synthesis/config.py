"""The synthesis run's identity: :class:`SynthesisConfig` and its shard plan.

Kept apart from :mod:`.synthesizer` so that reading a cached trace --
the cache key, the scenario presets, the experiment context -- never
loads the synthesizer and the agent and client layers it drives; those
load only when a trace is actually synthesized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.kernels.sharding import time_windows

__all__ = ["SynthesisConfig", "shard_windows"]


@dataclass
class SynthesisConfig:
    """Knobs of a synthesis run.

    ``days`` and ``mean_arrival_rate`` set the scale: the paper saw
    ~4.36M connections over 40 days (~1.26/s); the defaults produce a
    laptop-sized trace with the same distributions.

    ``jobs`` is the number of synthesis worker processes; ``shard_days``
    optionally pins the shard width (in days) instead of the default
    ``days / jobs`` split.  Both only shape *how* the trace is computed;
    the trace content depends on the resulting shard count, not on the
    worker count (``jobs=2`` and ``jobs=8`` over the same shards give
    byte-identical traces).
    """

    days: float = 2.0
    mean_arrival_rate: float = 0.35  # connections per second
    seed: int = 20040315
    #: Probability a departing client sends a proper BYE ("many Gnutella
    #: clients do not terminate ... by sending a BYE message").
    bye_prob: float = 0.05
    #: Probability a quick-disconnect session still emits a stray query.
    quick_query_prob: float = 0.08
    #: All-peers PONG/QUERYHIT samples recorded per hour (Figures 1-2).
    background_samples_per_hour: int = 240
    #: Worker processes for sharded synthesis (1 = sequential).
    jobs: int = 1
    #: Optional shard width in days; None derives it from ``jobs``.
    shard_days: Optional[float] = None

    def __post_init__(self):
        if self.days <= 0:
            raise ValueError("days must be positive")
        if self.mean_arrival_rate <= 0:
            raise ValueError("mean_arrival_rate must be positive")
        if not 0.0 <= self.bye_prob <= 1.0:
            raise ValueError("bye_prob must be a probability")
        if not 0.0 <= self.quick_query_prob <= 1.0:
            raise ValueError("quick_query_prob must be a probability")
        if self.background_samples_per_hour < 0:
            raise ValueError("background_samples_per_hour must be non-negative")
        if int(self.jobs) != self.jobs or self.jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {self.jobs}")
        if self.shard_days is not None and self.shard_days <= 0:
            raise ValueError("shard_days must be positive")

    @property
    def end_time(self) -> float:
        return self.days * 86400.0


def shard_windows(config: SynthesisConfig) -> List[Tuple[float, float]]:
    """Equal-width ``[start, end)`` time shards covering the window.

    One shard unless the config asks for parallel synthesis; the count
    is ``ceil(days / shard_days)``, or ``jobs`` when no width is given.
    """
    end = config.end_time
    if config.shard_days is not None:
        n = max(1, int(math.ceil(config.days / config.shard_days - 1e-9)))
    elif config.jobs > 1:
        n = int(config.jobs)
    else:
        n = 1
    return time_windows(end, n)
