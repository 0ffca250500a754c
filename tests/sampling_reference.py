"""One-distribution batch sampling: the reference the stacked draws are held to.

The columnar generator draws each conditional table through
:class:`repro.core.distributions.DistributionStack`, one uniform batch
in ascending key order and one quantile pass per wave.  The form it
replaced -- one batch per distribution -- now lives only here, as the
tests' per-group reference.
"""

import numpy as np


def sample_n(dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms from ``rng`` through ``dist.ppf``, as a flat float64 array."""
    return np.asarray(dist.ppf(rng.random(int(n))), dtype=np.float64).reshape(-1)
