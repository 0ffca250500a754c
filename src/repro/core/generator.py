"""The Figure 12 synthetic workload generator.

The paper's algorithm (Section 4.7): a system in steady state with ``N``
peers; when a peer finishes a session it is replaced by a new peer.  For
each peer session:

1. select the geographic region with probability conditioned on time of
   day (Fig. 1);
2. decide passive vs. active conditioned on region (Fig. 4);
3. passive: draw the connected session duration (Table A.1);
4. active: draw the number of queries (Table A.2), the time until the
   first query (Table A.3), per-query interarrival times (Table A.4) and
   query identities (Table 3 + Fig. 11), and the time after the last
   query (Table A.5).

:class:`SyntheticWorkloadGenerator` runs it with the batched wave engine
of :mod:`repro.core.generator_columnar` and hands the workload out as a
:class:`~repro.core.generator_columnar.ColumnarWorkload` or as
:class:`~repro.core.events.GeneratedSession` objects.  A workload is
generated whole; the service's ``WorkloadFrameSource`` generates an
unbounded stream one window at a time, in one window's memory.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .events import GeneratedSession
from .generator_columnar import ColumnarWorkload, generate_columnar_workload
from .model import WorkloadModel
from .popularity import QueryUniverse

__all__ = ["SyntheticWorkloadGenerator"]

_SECONDS_PER_DAY = 86400.0


class SyntheticWorkloadGenerator:
    """Generate synthetic peer sessions per the Figure 12 algorithm.

    Parameters
    ----------
    model:
        The conditional distributions to draw from (defaults to the
        paper's published model).
    universe:
        Query content model for steps (c)(ii)-(iii).  A fresh single-day
        universe is created if omitted.
    n_peers:
        Number of concurrently connected peers held in steady state.
    seed:
        RNG seed; generation is fully deterministic given the seed.
    max_session_seconds:
        Safety cap on a single session's duration.  The heavy lognormal
        tails occasionally produce multi-month sessions; the paper's own
        trace is bounded by the 40-day measurement period, so the default
        cap matches that.
    jobs:
        Worker processes for the shard fan-out (capped by
        :func:`~repro.core.runtime.available_cpus`).  Output is
        byte-identical for any value.
    """

    def __init__(
        self,
        model: Optional[WorkloadModel] = None,
        universe: Optional[QueryUniverse] = None,
        n_peers: int = 200,
        seed: int = 42,
        max_session_seconds: float = 40 * _SECONDS_PER_DAY,
        jobs: int = 1,
    ):
        if n_peers < 1:
            raise ValueError(f"n_peers must be >= 1, got {n_peers}")
        if max_session_seconds <= 0:
            raise ValueError("max_session_seconds must be positive")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.model = model or WorkloadModel.paper()
        self.universe = universe or QueryUniverse()
        self.n_peers = n_peers
        self.max_session_seconds = float(max_session_seconds)
        self.jobs = int(jobs)
        self._seed = seed

    def iter_sessions(self, duration_seconds: float, start_time: float = 0.0) -> Iterator[GeneratedSession]:
        """Sessions from ``n_peers`` steady-state peer slots, in start order.

        Each slot runs sessions back to back (a finished peer is replaced
        immediately, per Section 4.7); generation stops once every slot
        has passed ``start_time + duration_seconds``.
        """
        return self.generate_columnar(duration_seconds, start_time).iter_sessions()

    def generate(self, duration_seconds: float, start_time: float = 0.0) -> List[GeneratedSession]:
        """Materialize :meth:`iter_sessions` into a list."""
        return self.generate_columnar(duration_seconds, start_time).to_sessions()

    def generate_columnar(
        self,
        duration_seconds: float,
        start_time: float = 0.0,
        jobs: Optional[int] = None,
    ) -> ColumnarWorkload:
        """Generate the workload as a :class:`ColumnarWorkload` (no objects)."""
        return generate_columnar_workload(
            model=self.model,
            universe=self.universe,
            n_peers=self.n_peers,
            seed=self._seed,
            duration_seconds=duration_seconds,
            start_time=start_time,
            max_session_seconds=self.max_session_seconds,
            jobs=self.jobs if jobs is None else jobs,
        )
