"""Host runtime introspection shared by schedulers and the benchmark.

Every component that sizes a worker pool (sharded synthesis, the
experiment fan-out) or stamps host metadata into a benchmark record must
agree on how many CPUs are *actually* usable: ``os.cpu_count()`` reports
the machine, while cgroup limits and CPU affinity masks (containers, CI
runners, ``taskset``) can leave the process with far fewer.  Disagreeing
on this is how a benchmark ends up recording "4 cores" for a host where
a 4-worker pool loses to the sequential path.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict

__all__ = ["available_cpus", "peak_rss_mb", "host_block"]


def available_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalizing
    here keeps ``--max-rss-mb`` and the benchmark's ``peak_rss_mb``
    comparable across hosts.  Returns 0.0 where the ``resource`` module
    is unavailable (non-POSIX), so callers can read it unconditionally.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def host_block() -> Dict[str, Any]:
    """The host stamp a benchmark record starts from.

    perfbench's run record and the artifact benchmarks' session header
    both take it from here, so the fields they archive -- and the
    invariant readers rely on (the lint ruleset the run was checked
    against) -- cannot drift apart.  ``peak_rss_mb`` is deliberately
    absent: it is only meaningful after the measured work ran.
    """
    from repro.lint import RULESET_VERSION

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "lint_ruleset": RULESET_VERSION,
    }
