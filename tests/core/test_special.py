"""The Cephes port in :mod:`repro.core.special`, with SciPy as the oracle.

Every comparison is exact (``==``, NaN equal to NaN, and the sign of
zero compared too): the port exists to return SciPy's bits, so a
tolerance would hide exactly the last-bit drift it must not have.
Each function gets over 10**6 seeded inputs spread over all of its
branches, plus the special values.  The stacked quantile evaluation
the columnar generator uses is held to the per-group ``sample_n`` it
replaced on every table it samples from.
"""

import math

import numpy as np
import pytest
import scipy.special

from repro.core import special
from repro.core.distributions import (
    DistributionStack,
    Lognormal,
    Pareto,
    Spliced,
    Truncated,
    Uniform,
    Weibull,
)
from repro.core.generator_columnar import GeneratorTables, _draw_grouped
from repro.core.kernels import group_slices
from repro.core.model import WorkloadModel
from repro.core.popularity import QueryUniverse
from repro.core.regions import MAJOR_REGIONS
from sampling_reference import sample_n

MAXLOG = 7.09782712893383996843e2
EXP_M2 = math.exp(-2.0)
EXP_M32 = math.exp(-32.0)

SPECIALS = np.array(
    [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 0.5, 8.0, -8.0,
     math.sqrt(0.5), -math.sqrt(0.5), 5e-324, -5e-324, 1e-300, 1.7976931348623157e308]
)


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    both_nan = np.isnan(actual) & np.isnan(expected)
    same = (actual == expected) & (np.signbit(actual) == np.signbit(expected))
    bad = np.flatnonzero(~(same | both_nan))
    assert bad.size == 0, [
        (int(i), float(actual.flat[i]), float(expected.flat[i])) for i in bad[:5]
    ]


def around(rng, points, n, width):
    """``n`` draws within ``width`` of each point, both sides."""
    return np.concatenate(
        [p + rng.uniform(-width, width, n) for p in points]
    )


def ndtri_inputs():
    rng = np.random.default_rng(20040315)
    n = 120_000
    return np.concatenate([
        rng.random(2 * n),                                   # all of [0, 1)
        around(rng, [EXP_M2, 1.0 - EXP_M2], n, 1e-3),        # central/tail switch
        around(rng, [EXP_M2, 1.0 - EXP_M2], n // 10, 1e-15),
        EXP_M32 * np.exp(rng.uniform(-0.01, 0.01, n)),       # the x = 8 switch
        1.0 - EXP_M32 * np.exp(rng.uniform(-0.01, 0.01, n // 10)),
        np.exp(-rng.uniform(2.0, 32.0, n)),                  # near tail
        np.exp(-rng.uniform(32.0, 690.0, n)),                # far tail, to 1e-300
        1.0 - np.exp(-rng.uniform(2.0, 36.0, n)),            # upper tail
        rng.uniform(0.0, 5e-308, n // 10),                   # subnormals, to 5e-324
        rng.uniform(-1.0, 2.0, n // 10),                     # outside [0, 1]
        SPECIALS,
    ])


def real_inputs():
    rng = np.random.default_rng(404)
    n = 120_000
    return np.concatenate([
        rng.normal(0.0, 4.0, 2 * n),
        around(rng, [-1.0, 1.0, -8.0, 8.0], n // 2, 1e-2),                # erf/erfc switches
        around(rng, [-1.0, 1.0, -8.0, 8.0], n // 20, 1e-14),
        around(rng, [-math.sqrt(2.0), math.sqrt(2.0)], n // 2, 1e-2),     # ndtr's sqrt(1/2)
        around(rng, [-math.sqrt(0.5), math.sqrt(0.5)], n // 2, 1e-2),
        around(rng, [-math.sqrt(2.0), math.sqrt(2.0)], n // 20, 1e-14),
        around(rng, [-math.sqrt(MAXLOG), math.sqrt(MAXLOG)], n // 2, 1e-2),  # past MAXLOG
        around(rng, [-math.sqrt(2 * MAXLOG), math.sqrt(2 * MAXLOG)], n // 2, 1e-2),
        rng.uniform(-40.0, 40.0, n),
        SPECIALS,
    ])


@pytest.mark.parametrize("name,inputs", [
    ("ndtri", ndtri_inputs),
    ("ndtr", real_inputs),
    ("erf", real_inputs),
    ("erfc", real_inputs),
])
def test_array_path_matches_scipy_bit_for_bit(name, inputs):
    x = inputs()
    assert x.size >= 1_000_000
    assert_same_bits(getattr(special, name)(x), getattr(scipy.special, name)(x))


@pytest.mark.parametrize("name,inputs", [
    ("ndtri", ndtri_inputs),
    ("ndtr", real_inputs),
    ("erf", real_inputs),
    ("erfc", real_inputs),
])
def test_scalar_path_matches_array_path(name, inputs):
    x = inputs()
    sample = np.concatenate([x[:: x.size // 20_000], SPECIALS])
    fn = getattr(special, name)
    scalars = [fn(float(v)) for v in sample]
    assert all(type(v) is float for v in scalars)
    assert_same_bits(scalars, fn(sample))
    assert_same_bits([fn(np.float64(v)) for v in sample[:100]], scalars[:100])


def test_special_values():
    assert special.ndtri(0.0) == -math.inf
    assert special.ndtri(-0.0) == -math.inf
    assert special.ndtri(1.0) == math.inf
    assert special.ndtri(0.5) == 0.0
    for outside in (-1e-300, -1.0, 1.0 + 2**-52, 2.0, math.inf, -math.inf, math.nan):
        assert math.isnan(special.ndtri(outside))
    assert special.erf(math.inf) == 1.0 and special.erf(-math.inf) == -1.0
    assert special.erfc(math.inf) == 0.0 and special.erfc(-math.inf) == 2.0
    assert special.ndtr(math.inf) == 1.0 and special.ndtr(-math.inf) == 0.0
    assert math.copysign(1.0, special.erf(-0.0)) == -1.0
    for name in ("ndtri", "ndtr", "erf", "erfc"):
        fn = getattr(special, name)
        assert math.isnan(fn(math.nan))
        assert_same_bits(fn(SPECIALS), getattr(scipy.special, name)(SPECIALS))


def test_shapes_and_small_arrays():
    grid = np.linspace(0.01, 0.99, 12).reshape(3, 4)
    assert special.ndtri(grid).shape == (3, 4)
    assert_same_bits(special.ndtri(grid), scipy.special.ndtri(grid))
    assert special.erf(np.array([])).shape == (0,)
    assert isinstance(special.ndtr(np.array(0.3)), float)
    for n in range(1, 20):  # both sides of the scalar-path cutoff
        x = np.linspace(-3.0, 3.0, n)
        assert_same_bits(special.erf(x), scipy.special.erf(x))


# ---------------------------------------------------------------------------
# Stacked evaluation == per-group sample_n
# ---------------------------------------------------------------------------

TABLES = ("queries_per_session", "passive_duration", "first_query",
          "interarrival", "last_query")


def per_group_sample_n(rng, dists, keys):
    """The reference: one ``sample_n`` per group, ascending key order."""
    out = np.empty(keys.size)
    order, group_keys, bounds = group_slices(keys)
    for g in range(group_keys.size):
        idx = order[bounds[g]:bounds[g + 1]]
        out[idx] = sample_n(dists[int(group_keys[g])], rng, idx.size)
    return out


def edge_quantiles(dists):
    """Each group's edge quantiles: 0, the splice weight and its neighbours."""
    q, g = [], []
    for k, dist in enumerate(dists):
        points = [0.0, 5e-324, 1e-300, 1e-15, 0.5, 1.0 - 2**-53]
        if isinstance(dist, Spliced):
            w = dist.body_weight
            points += [w, np.nextafter(w, 0.0), np.nextafter(w, 1.0)]
        q += points
        g += [k] * len(points)
    return np.array(q), np.array(g)


def assert_stack_matches(stack, seed):
    dists = stack.dists
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 400, len(dists))
    keys = np.repeat(np.arange(len(dists)), sizes)
    rng.shuffle(keys)
    expected = per_group_sample_n(np.random.default_rng(seed + 1), dists, keys)
    actual = _draw_grouped(np.random.default_rng(seed + 1), stack, keys)
    assert_same_bits(actual, expected)
    q, g = edge_quantiles(dists)
    expected = np.concatenate(
        [np.asarray(dists[k].ppf(q[g == k]), dtype=np.float64) for k in range(len(dists))]
    )
    assert_same_bits(stack.ppf(q, g), expected)


@pytest.mark.parametrize("table", TABLES)
def test_stacked_paper_tables_match_per_group_sample_n(table):
    tables = GeneratorTables.from_model(WorkloadModel.paper(), QueryUniverse())
    stack = getattr(tables, table)
    assert len(stack.dists) == {"queries_per_session": 3, "passive_duration": 6}.get(table, 18)
    assert_stack_matches(stack, seed=TABLES.index(table))


def test_weibull_shape_two_keeps_the_sqrt_fast_path():
    # 1 / alpha = 0.5: NumPy's ``x ** 0.5`` takes a sqrt fast path that
    # ``x ** array`` does not, so the stack must keep scalar exponents.
    body = Weibull(2.0, 0.0004)
    fits = {
        (region, peak, label): Spliced(body, Lognormal(5.5, 2.2), 45.0, 0.5)
        for region in MAJOR_REGIONS for peak in (False, True)
        for label in ("<3", "=3", ">3")
    }
    model = WorkloadModel.from_fits({}, {}, fits, {}, {})
    tables = GeneratorTables.from_model(model, QueryUniverse())
    assert all(d.body.base is body for d in tables.first_query.dists)
    assert_stack_matches(tables.first_query, seed=7)
    x = np.random.default_rng(1).random(10_000) * 50.0
    assert not np.array_equal(x ** 0.5, x ** np.full_like(x, 0.5)), (
        "the sqrt fast path no longer differs; the per-group exponent is moot"
    )


def test_mixed_families_and_fallback():
    class Shifted(Lognormal):
        def ppf(self, q):
            return super().ppf(q) + 1.0

    dists = [
        Lognormal(1.0, 0.5), Weibull(2.0, 0.01), Pareto(1.2, 103.0),
        Truncated(Weibull(0.9, 0.03), 0.0, 45.0), Uniform(2.0, 5.0),
        Shifted(0.0, 1.0), Spliced(Lognormal(3.0, 1.6), Pareto(0.9, 103.0), 103.0, 0.7),
    ]
    assert_stack_matches(DistributionStack(dists), seed=3)


def test_stack_pickles():
    import pickle

    tables = GeneratorTables.from_model(WorkloadModel.paper(), QueryUniverse())
    clone = pickle.loads(pickle.dumps(tables.interarrival))
    q = np.linspace(0.0, 0.999, 200)
    g = np.arange(200) % len(clone.dists)
    assert_same_bits(clone.ppf(q, g), tables.interarrival.ppf(q, g))
