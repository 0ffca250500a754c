"""Named synthesis scenarios: reproducible preset scales.

Every consumer (CLI, benchmarks, examples, docs) refers to traces by
scenario name rather than ad-hoc day/rate pairs, so results are
comparable across runs and machines:

* ``smoke``  -- seconds-scale; CI and unit tests.
* ``laptop`` -- the default: one day, distribution-stable, <10 s.
* ``bench``  -- the benchmark scale: two days at a higher rate.
* ``paper``  -- the paper's full 40 days at ~1.26 connections/second
  (~4.5M connections), run through the streaming pipeline
  (``repro-p2p experiment all --scenario paper --stream``); its
  ``synthesize --stream`` peaked at 119 MiB in 15.7 s on a 2-CPU host.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from .config import SynthesisConfig

__all__ = ["SCENARIOS", "scenario_config"]

SCENARIOS: Dict[str, SynthesisConfig] = {
    "smoke": SynthesisConfig(days=0.05, mean_arrival_rate=0.25, seed=20040315),
    "laptop": SynthesisConfig(days=1.0, mean_arrival_rate=0.3, seed=20040315),
    "bench": SynthesisConfig(days=2.0, mean_arrival_rate=0.35, seed=20040315),
    "paper": SynthesisConfig(days=40.0, mean_arrival_rate=1.26, seed=20040315),
}


def scenario_config(name: str, seed: int = None, **overrides) -> SynthesisConfig:
    """Look up a scenario; optionally override the seed or any other
    :class:`SynthesisConfig` field (e.g. ``jobs=4`` for sharded runs)."""
    try:
        base = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    if seed is not None:
        overrides["seed"] = seed
    if not overrides:
        return base
    return dataclasses.replace(base, **overrides)
