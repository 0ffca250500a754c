"""The workload the ``overlay`` command floods.

:func:`overlay_workload` is the Fig. 12 workload ``repro-p2p overlay``
replays through the columnar engine.  The module keeps its name because
the benchmark (``perfbench/child.py``) imports it under that name and
wraps :func:`overlay_workload` to end the command's set-up time.
"""

from __future__ import annotations

from repro.core import SyntheticWorkloadGenerator
from repro.core.generator_columnar import ColumnarWorkload

__all__ = ["overlay_workload"]


def overlay_workload(
    n_peers: int, duration_seconds: float, seed: int = 11
) -> ColumnarWorkload:
    """The Fig. 12 workload the overlay replays (columnar generator)."""
    generator = SyntheticWorkloadGenerator(n_peers=n_peers, seed=seed)
    return generator.generate_columnar(duration_seconds)
