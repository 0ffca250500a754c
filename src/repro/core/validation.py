"""Statistical validation utilities: comparing distributions rigorously.

The per-figure experiments compare anchor points; this module provides
the heavier machinery used by the closed-loop validation and available
to downstream users who want to check their own workloads against the
model:

* :func:`quantile_report` -- side-by-side quantiles of two samples;
* :func:`ccdf_max_gap` -- largest vertical gap between two empirical
  CCDFs, evaluated on the union of their supports (the two-sample
  Kolmogorov-Smirnov statistic);
* :func:`compare_models` -- one-line verdicts ("close" / "divergent")
  given a tolerance, for batch validation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "quantile_report",
    "ccdf_max_gap",
    "ComparisonVerdict",
    "compare_models",
]


def quantile_report(
    a: Sequence[float],
    b: Sequence[float],
    quantiles: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
) -> List[Dict[str, float]]:
    """Side-by-side quantiles with the log-ratio between the samples.

    A |log10 ratio| under ~0.15 (factor 1.4) at every quantile is the
    practical "same shape" bar used by the closed-loop benchmark.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    rows = []
    for q in quantiles:
        qa = float(np.quantile(a, q))
        qb = float(np.quantile(b, q))
        if qa > 0 and qb > 0:
            log_ratio = float(np.log10(qa / qb))
        else:
            log_ratio = float("nan")
        rows.append({"quantile": q, "a": qa, "b": qb, "log10_ratio": log_ratio})
    return rows


def ccdf_max_gap(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest |CCDF_a(x) - CCDF_b(x)| over the union of sample points.

    This is the two-sample Kolmogorov-Smirnov statistic.  It is reported
    as the "curve gap" without a p-value, which at trace sample sizes
    is uninformatively tiny.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    support = np.union1d(a, b)
    ccdf_a = 1.0 - np.searchsorted(a, support, side="right") / a.size
    ccdf_b = 1.0 - np.searchsorted(b, support, side="right") / b.size
    return float(np.max(np.abs(ccdf_a - ccdf_b)))


@dataclass(frozen=True)
class ComparisonVerdict:
    """Summary verdict of a model/sample comparison."""

    name: str
    max_gap: float
    close: bool

    def __str__(self) -> str:
        status = "close" if self.close else "DIVERGENT"
        return f"{self.name}: max CCDF gap {self.max_gap:.3f} ({status})"


def compare_models(
    samples: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    tolerance: float = 0.10,
) -> List[ComparisonVerdict]:
    """Batch-compare (sample_a, sample_b) pairs by max CCDF gap."""
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    verdicts = []
    for name, (a, b) in samples.items():
        gap = ccdf_max_gap(a, b)
        verdicts.append(ComparisonVerdict(name=name, max_gap=gap, close=gap <= tolerance))
    return verdicts
