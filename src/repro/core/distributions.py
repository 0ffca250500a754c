"""Model distribution families used by the IMC'04 workload characterization.

The paper (Appendix, Tables A.1-A.5 and Figure 11) models every workload
measure with one of four parametric families, sometimes spliced into a
body/tail mixture:

* **Lognormal** -- passive session duration (body and tail), number of
  queries per active session, time-until-first-query tail, interarrival
  body, time after last query.
* **Weibull** -- time-until-first-query body.  The paper writes the CDF as
  ``F(x) = 1 - exp(-lambda * x**alpha)`` (rate parameterization).
* **Pareto** -- query interarrival tail, ``CCDF(x) = (beta / x)**alpha``
  for ``x >= beta``.
* **Zipf-like** -- query popularity, ``p(r)`` proportional to ``r**-alpha``.

This module implements those families with a uniform interface
(:class:`Distribution`), plus the combinators the Appendix uses:
:class:`Truncated` for conditioning on an interval and :class:`Spliced`
for body/tail mixtures ("Body: 0-45 seconds (w%), Tail: > 45 seconds").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from .special import erf, ndtri

__all__ = [
    "Distribution",
    "Lognormal",
    "Weibull",
    "Pareto",
    "Exponential",
    "Uniform",
    "Zipf",
    "Truncated",
    "Spliced",
    "Empirical",
    "DistributionStack",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


class Distribution(ABC):
    """A continuous distribution on ``[0, inf)`` with inverse-CDF sampling."""

    @abstractmethod
    def cdf(self, x):
        """Return ``P[X <= x]`` (vectorized)."""

    @abstractmethod
    def ppf(self, q):
        """Return the quantile function (inverse CDF), vectorized."""

    def ccdf(self, x):
        """Return the complementary CDF ``P[X > x]``."""
        return 1.0 - self.cdf(x)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw samples via inverse-CDF on uniforms from ``rng``."""
        u = rng.random(size)
        return self.ppf(u)

    def mean(self) -> float:
        """Analytic mean; subclasses without a closed form raise."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form mean")

    def median(self) -> float:
        return float(self.ppf(0.5))


class Lognormal(Distribution):
    """Lognormal distribution: ``ln X ~ Normal(mu, sigma**2)``.

    The paper states parameters as ``sigma`` and ``mu`` of the underlying
    normal, with all times measured in seconds.
    """

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def cdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        z = (np.log(x[pos]) - self.mu) / self.sigma
        out[pos] = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        z = _norm_ppf_vec(q)
        out = np.exp(self.mu + self.sigma * z)
        return out if out.shape else float(out)

    def pdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(-((np.log(xp) - self.mu) ** 2) / (2 * self.sigma**2)) / (
            xp * self.sigma * math.sqrt(2 * math.pi)
        )
        return out if out.shape else float(out)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def __repr__(self):
        return f"Lognormal(mu={self.mu:.4g}, sigma={self.sigma:.4g})"


class Weibull(Distribution):
    """Weibull in the paper's rate form: ``CDF(x) = 1 - exp(-lam * x**alpha)``.

    ``alpha`` is the shape and ``lam`` the rate (Table A.3 lists e.g.
    ``alpha = 1.477, lambda = 0.005252``).
    """

    def __init__(self, alpha: float, lam: float):
        if alpha <= 0 or lam <= 0:
            raise ValueError(f"alpha and lam must be positive, got {alpha}, {lam}")
        self.alpha = float(alpha)
        self.lam = float(lam)

    @property
    def scale(self) -> float:
        """Equivalent scale parameter of the standard parameterization."""
        return self.lam ** (-1.0 / self.alpha)

    def cdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = 1.0 - np.exp(-self.lam * x[pos] ** self.alpha)
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        out = (-np.log1p(-q) / self.lam) ** (1.0 / self.alpha)
        return out if out.shape else float(out)

    def pdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = self.lam * self.alpha * xp ** (self.alpha - 1) * np.exp(-self.lam * xp**self.alpha)
        return out if out.shape else float(out)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.alpha)

    def __repr__(self):
        return f"Weibull(alpha={self.alpha:.4g}, lam={self.lam:.4g})"


class Pareto(Distribution):
    """Pareto distribution: ``CCDF(x) = (beta / x)**alpha`` for ``x >= beta``.

    Table A.4 uses this for the interarrival tail with ``beta = 103``.
    """

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"alpha and beta must be positive, got {alpha}, {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def cdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        above = x >= self.beta
        out[above] = 1.0 - (self.beta / x[above]) ** self.alpha
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        out = self.beta * (1.0 - q) ** (-1.0 / self.alpha)
        return out if out.shape else float(out)

    def pdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        above = x >= self.beta
        out[above] = self.alpha * self.beta**self.alpha / x[above] ** (self.alpha + 1)
        return out if out.shape else float(out)

    def mean(self) -> float:
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.beta / (self.alpha - 1.0)

    def __repr__(self):
        return f"Pareto(alpha={self.alpha:.4g}, beta={self.beta:.4g})"


class Exponential(Distribution):
    """Exponential distribution with rate ``lam`` (arrival-process substrate)."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.lam = float(lam)

    def cdf(self, x):
        x = _as_array(x)
        out = np.where(x > 0, 1.0 - np.exp(-self.lam * np.maximum(x, 0.0)), 0.0)
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        out = -np.log1p(-q) / self.lam
        return out if out.shape else float(out)

    def mean(self) -> float:
        return 1.0 / self.lam

    def __repr__(self):
        return f"Exponential(lam={self.lam:.4g})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if high <= low:
            raise ValueError(f"need high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def cdf(self, x):
        x = _as_array(x)
        out = np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        out = self.low + q * (self.high - self.low)
        return out if out.shape else float(out)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self):
        return f"Uniform({self.low:.4g}, {self.high:.4g})"


class Zipf:
    """Zipf-like distribution over ranks ``1..n``: ``p(r) ~ r**-alpha``.

    Not a :class:`Distribution` subclass because its support is discrete
    ranks, but it offers the same ``sample`` interface plus ``pmf``.
    """

    def __init__(self, alpha: float, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self.n = int(n)
        weights = np.arange(1, self.n + 1, dtype=float) ** (-self.alpha)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._table = None  # lazy kernels.CategoricalTable over _cdf

    def pmf(self, rank):
        """Probability of ``rank`` (1-based); zero outside ``1..n``."""
        rank = np.asarray(rank, dtype=int)
        out = np.zeros(rank.shape if rank.shape else (1,))
        flat_rank = np.atleast_1d(rank)
        valid = (flat_rank >= 1) & (flat_rank <= self.n)
        out = np.where(valid, self._pmf[np.clip(flat_rank, 1, self.n) - 1], 0.0)
        return out if rank.shape else float(out[0])

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw 1-based ranks (via the precomputed categorical table,
        draw-for-draw identical to ``searchsorted(cdf, u, 'left')``)."""
        if self._table is None:
            from .kernels import CategoricalTable

            self._table = CategoricalTable(self._cdf)
        ranks = self._table.lookup(rng.random(size)) + 1
        if size is None:
            return int(ranks)
        return ranks.astype(int)

    def __repr__(self):
        return f"Zipf(alpha={self.alpha:.4g}, n={self.n})"


class Truncated(Distribution):
    """``base`` conditioned on the interval ``(low, high]``.

    Used to realize the Appendix's body/tail components, e.g. a lognormal
    restricted to "> 2 minutes".
    """

    def __init__(self, base: Distribution, low: float = 0.0, high: float = math.inf):
        if high <= low:
            raise ValueError(f"need high > low, got ({low}, {high}]")
        self.base = base
        self.low = float(low)
        self.high = float(high)
        self._cdf_low = float(base.cdf(self.low)) if self.low > 0 else float(base.cdf(0.0))
        self._cdf_high = float(base.cdf(self.high)) if math.isfinite(self.high) else 1.0
        self._mass = self._cdf_high - self._cdf_low
        if self._mass <= 0:
            raise ValueError(
                f"base distribution {base!r} has no mass on ({low}, {high}]"
            )

    def cdf(self, x):
        x = _as_array(x)
        raw = np.clip((self.base.cdf(x) - self._cdf_low) / self._mass, 0.0, 1.0)
        raw = np.where(x < self.low, 0.0, raw)
        raw = np.where(x >= self.high, 1.0, raw)
        return raw if raw.shape else float(raw)

    def ppf(self, q):
        q = _as_array(q)
        out = self.base.ppf(self._cdf_low + q * self._mass)
        out = np.clip(out, self.low, self.high if math.isfinite(self.high) else np.inf)
        return out if out.shape else float(out)

    def __repr__(self):
        return f"Truncated({self.base!r}, ({self.low:.4g}, {self.high:.4g}])"


class Spliced(Distribution):
    """Body/tail mixture with an explicit boundary, as in Tables A.1-A.4.

    With probability ``body_weight`` a value is drawn from ``body``
    truncated to ``(body_low, boundary]``; otherwise from ``tail``
    truncated to ``(boundary, inf)``.  ``body_low`` realizes entries like
    Table A.1's "Body: 1-2 minutes": the filtered data starts at the
    64-second cutoff, so the body component only covers (64 s, 120 s].
    """

    def __init__(
        self,
        body: Distribution,
        tail: Distribution,
        boundary: float,
        body_weight: float,
        body_low: float = 0.0,
    ):
        if not 0.0 < body_weight < 1.0:
            raise ValueError(f"body_weight must be in (0, 1), got {body_weight}")
        if boundary <= 0:
            raise ValueError(f"boundary must be positive, got {boundary}")
        if not 0.0 <= body_low < boundary:
            raise ValueError(f"need 0 <= body_low < boundary, got {body_low}")
        self.boundary = float(boundary)
        self.body_weight = float(body_weight)
        self.body_low = float(body_low)
        self.body = Truncated(body, body_low, boundary)
        self.tail = Truncated(tail, boundary, math.inf)

    def cdf(self, x):
        x = _as_array(x)
        below = self.body_weight * self.body.cdf(np.minimum(x, self.boundary))
        above = (1.0 - self.body_weight) * self.tail.cdf(x)
        out = np.where(x <= self.boundary, below, self.body_weight + above)
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        in_body = q <= self.body_weight
        qb = np.clip(q / self.body_weight, 0.0, 1.0)
        qt = np.clip((q - self.body_weight) / (1.0 - self.body_weight), 0.0, 1.0)
        out = np.where(in_body, self.body.ppf(qb), self.tail.ppf(qt))
        return out if out.shape else float(out)

    def __repr__(self):
        return (
            f"Spliced(body={self.body.base!r}, tail={self.tail.base!r}, "
            f"boundary={self.boundary:.4g}, body_weight={self.body_weight:.3g})"
        )


class Empirical(Distribution):
    """Empirical distribution of observed samples (inverse-transform on sorted data)."""

    def __init__(self, samples: Sequence[float]):
        data = np.sort(np.asarray(samples, dtype=float))
        if data.size == 0:
            raise ValueError("need at least one sample")
        self.data = data

    def cdf(self, x):
        x = _as_array(x)
        out = np.searchsorted(self.data, x, side="right") / self.data.size
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        idx = np.clip((q * self.data.size).astype(int), 0, self.data.size - 1)
        out = self.data[idx]
        return out if out.shape else float(out)

    def mean(self) -> float:
        return float(self.data.mean())

    def __repr__(self):
        return f"Empirical(n={self.data.size})"


class DistributionStack:
    """The quantile functions of several distributions, evaluated together.

    ``ppf(q, group)`` returns ``dists[group[i]].ppf(q[i])`` for every
    ``i``, bit for bit, in one pass instead of one ``ppf`` call per
    distribution: when all of ``dists`` are of one family, their
    parameters are stacked into arrays and gathered per element.  The
    columnar generator evaluates a whole conditional table once per
    wave this way.  Every step is elementwise, the same operation on
    the same operands as in the single-distribution ``ppf``, with two
    parts kept per group:

    * ``x ** c`` keeps each group's Python-float exponent, because NumPy
      takes a sqrt or square fast path for ``c`` of 0.5 or 2 (a Weibull
      of shape 2) that an array of exponents would not;
    * mixed families, and families without a stacked form (subclasses
      included), call each distribution's own ``ppf`` on its group.
    """

    def __init__(self, dists: Sequence[Distribution]):
        self.dists = tuple(dists)
        self._ppf = _stacked_ppf(self.dists)

    def __reduce__(self):
        return (DistributionStack, (self.dists,))

    def ppf(self, q, group) -> np.ndarray:
        """Quantile ``q[i]`` of ``dists[group[i]]``, as a float64 array."""
        return self._ppf(np.asarray(q, dtype=np.float64), np.asarray(group, dtype=np.intp))


def _per_group(fns, x: np.ndarray, group: np.ndarray) -> np.ndarray:
    """``fns[g](x[group == g])`` for every group ``g`` present."""
    out = np.empty_like(x)
    for g in np.unique(group).tolist():
        sel = group == g
        out[sel] = fns[g](x[sel])
    return out


def _powers(exponents: Sequence[float]):
    """``x ** c`` per group, ``c`` a Python float as in the scalar ``ppf``."""
    return [lambda x, c=c: x ** c for c in exponents]


def _stacked_ppf(dists: Sequence[Distribution]):
    """``ppf(q, group)`` over ``dists``, step for step as in their ``ppf``."""
    family = type(dists[0])
    if any(type(d) is not family for d in dists):
        family = None

    def param(name):
        return np.array([getattr(d, name) for d in dists], dtype=np.float64)

    if family is Lognormal:
        mu, sigma = param("mu"), param("sigma")
        return lambda q, g: np.exp(mu[g] + sigma[g] * _norm_ppf_vec(q))
    if family is Weibull:
        lam, power = param("lam"), _powers([1.0 / d.alpha for d in dists])
        return lambda q, g: _per_group(power, -np.log1p(-q) / lam[g], g)
    if family is Pareto:
        beta, power = param("beta"), _powers([-1.0 / d.alpha for d in dists])
        return lambda q, g: beta[g] * _per_group(power, 1.0 - q, g)
    if family is Truncated:
        base = DistributionStack([d.base for d in dists])
        cdf_low, mass = param("_cdf_low"), param("_mass")
        low, high = param("low"), param("high")
        return lambda q, g: np.clip(base.ppf(cdf_low[g] + q * mass[g], g), low[g], high[g])
    if family is Spliced:
        body = DistributionStack([d.body for d in dists])
        tail = DistributionStack([d.tail for d in dists])
        weight = param("body_weight")

        def spliced(q, g):
            w = weight[g]
            body_mask = q <= w
            in_body = np.flatnonzero(body_mask)
            in_tail = np.flatnonzero(~body_mask)
            out = np.empty_like(q)
            wb, wt = w[in_body], w[in_tail]
            out[in_body] = body.ppf(np.clip(q[in_body] / wb, 0.0, 1.0), g[in_body])
            qt = np.clip((q[in_tail] - wt) / (1.0 - wt), 0.0, 1.0)
            out[in_tail] = tail.ppf(qt, g[in_tail])
            return out

        return spliced
    own = [d.ppf for d in dists]
    return lambda q, g: _per_group(own, q, g)


def _norm_ppf_vec(q):
    """Vectorized standard normal quantile function."""
    q = np.clip(q, 1e-15, 1.0 - 1e-15)
    return ndtri(q)
