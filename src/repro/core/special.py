"""The normal-distribution special functions, ported from Cephes.

The lognormal quantile and CDF, the truncated-lognormal likelihood and
the probit anchors of the discrete lognormal fit need four functions:
the standard normal quantile :func:`ndtri`, the standard normal CDF
:func:`ndtr`, and the error functions :func:`erf` and :func:`erfc`.
They are ported here from the Cephes Mathematical Library (Stephen L.
Moshier, ``ndtri.c`` and ``ndtr.c``), in the form SciPy compiles them
(``scipy.special``; SciPy is distributed under the BSD-3-Clause
license, Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
Developers), so that they return SciPy's values bit for bit:

* the coefficient tables are Cephes' published ones, evaluated in the
  same Horner order (``polevl``/``p1evl``) with the same branch points;
* every ``+ - * /`` and ``sqrt`` is a correctly rounded IEEE-754
  operation, in NumPy as in C, so the arrays match element for element;
* ``log`` and ``exp`` are not correctly rounded, and NumPy's SIMD
  versions differ from the C library's in the last bit on some inputs.
  Cephes calls the C library, so these two come from :mod:`math`
  (which calls it too), applied to only the elements that need them.

Each function takes a Python or NumPy scalar (a plain-float path
returning ``float``) or an array (returning a float64 array of the same
shape).  Small arrays go through the scalar path element by element,
which is cheaper than a vectorized pass; both paths give the same bits.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "erfc", "ndtr", "ndtri"]

# ndtri.c ------------------------------------------------------------------

_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central/tail switch
_ONE_MINUS_EXP_M2 = 1.0 - _EXP_M2

# Central range, 0 <= |y - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267E1,
    9.80010754185999661536E1,
    -5.66762857469070293439E1,
    1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0,
    4.67627912898881538453E0,
    8.63602421390890590575E1,
    -2.25462687854119370527E2,
    2.00260212380060660359E2,
    -8.20372256168333339912E1,
    1.59056225126211695515E1,
    -1.18331621121330003142E0,
)
# Tails with z = sqrt(-2 log y) in [2, 8), i.e. exp(-32) < y <= exp(-2).
_P1 = (
    4.05544892305962419923E0,
    3.15251094599893866154E1,
    5.71628192246421288162E1,
    4.40805073893200834700E1,
    1.46849561928858024014E1,
    2.18663306850790267539E0,
    -1.40256079171354495875E-1,
    -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1,
    4.53907635128879210584E1,
    4.13172038254672030440E1,
    1.50425385692907503408E1,
    2.50464946208309415979E0,
    -1.42182922854787788574E-1,
    -3.80806407691578277194E-2,
    -9.33259480895457427372E-4,
)
# Far tails, z in [8, 64): y <= exp(-32).
_P2 = (
    3.23774891776946035970E0,
    6.91522889068984211695E0,
    3.93881025292474443415E0,
    1.33303460815807542389E0,
    2.01485389549179081538E-1,
    1.23716634817820021358E-2,
    3.01581553508235416007E-4,
    2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_Q2 = (
    6.02427039364742014255E0,
    3.67983563856160859403E0,
    1.37702099489081330271E0,
    2.16236993594496635890E-1,
    1.34204006088543189037E-2,
    3.28014464682127739104E-4,
    2.89247864745380683936E-6,
    6.79019408009981274425E-9,
)

# ndtr.c -------------------------------------------------------------------

_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): exp(-x*x) underflows past it
_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)

# erfc on 1 <= x < 8.
_P = (
    2.46196981473530512524E-10,
    5.64189564831068821977E-1,
    7.46321056442269912687E0,
    4.86371970985681366614E1,
    1.96520832956077098242E2,
    5.26445194995477358631E2,
    9.34528527171957607540E2,
    1.02755188689515710272E3,
    5.57535335369399327526E2,
)
_Q = (
    1.32281951154744992508E1,
    8.67072140885989742329E1,
    3.54937778887819891062E2,
    9.75708501743205489753E2,
    1.82390916687909736289E3,
    2.24633760818710981792E3,
    1.65666309194161350182E3,
    5.57535340817727675546E2,
)
# erfc on x >= 8.
_R = (
    5.64189583547755073984E-1,
    1.27536670759978104416E0,
    5.01905042251180477414E0,
    6.16021097993053585195E0,
    7.40974269950448939160E0,
    2.97886665372100240670E0,
)
_S = (
    2.26052863220117276590E0,
    9.39603524938001434673E0,
    1.20489539808096656605E1,
    1.70814450747565897222E1,
    9.60896809063285878198E0,
    3.36907645100081516050E0,
)
# erf on |x| <= 1.
_T = (
    9.60497373987051638749E0,
    9.00260197203842689217E1,
    2.23200534594684319226E3,
    7.00332514112805075473E3,
    5.55923013010394962768E4,
)
_U = (
    3.35617141647503099647E1,
    5.21357949780152679795E2,
    4.59432382970980127987E3,
    2.26290000613890934246E4,
    4.92673942608635921086E4,
)

#: Arrays up to this size take the scalar path element by element.
_SCALAR_MAX = 8


def _polevl(x, coef):
    """Cephes ``polevl``: Horner from the leading coefficient."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: as :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (``math.log`` or ``math.exp``) element by element."""
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64, count=values.size)


def _split(cond: np.ndarray, x: np.ndarray, if_true, if_false) -> np.ndarray:
    """``if_true`` on ``x`` where ``cond``, ``if_false`` elsewhere.

    Each branch runs on its own elements only, and not at all when no
    element takes it.
    """
    if cond.all():
        return if_true(x)
    if not cond.any():
        return if_false(x)
    out = np.empty_like(x)
    out[cond] = if_true(x[cond])
    out[~cond] = if_false(x[~cond])
    return out


# -- scalar path ------------------------------------------------------------


def _ndtri1(y0: float) -> float:
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0 or y0 != y0:
        return math.nan
    negate = True
    y = y0
    if y > _ONE_MINUS_EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _erf1(x: float) -> float:
    if x != x:
        return math.nan
    if x < 0.0:
        return -_erf1(-x)
    if x > 1.0:
        return 1.0 - _erfc1(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc1(a: float) -> float:
    if a != a:
        return math.nan
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf1(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            p = _polevl(x, _P)
            q = _p1evl(x, _Q)
        else:
            p = _polevl(x, _R)
            q = _p1evl(x, _S)
        y = (z * p) / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0


def _ndtr1(a: float) -> float:
    if a != a:
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf1(x)
    y = 0.5 * _erfc1(z)
    return 1.0 - y if x > 0 else y


# -- array path -------------------------------------------------------------


def _erf_small(x: np.ndarray) -> np.ndarray:
    """``erf`` on ``|x| <= 1``: the odd rational approximation.

    ``erf(-x) = -erf(x)`` holds bit for bit here (rounding is symmetric
    under negation), so Cephes' reflection needs no separate pass.
    """
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_large(x: np.ndarray) -> np.ndarray:
    """``erfc`` on ``x >= 1`` (no NaN), 0 where ``exp(-x*x)`` underflows."""
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):  # x*x overflows to inf past 1.3e154
        live = np.flatnonzero(-x * x >= -_MAXLOG)
    if live.size:
        xl = x[live]
        z = _libm(math.exp, -xl * xl)
        p = _split(xl < 8.0, xl, lambda v: _polevl(v, _P), lambda v: _polevl(v, _R))
        q = _split(xl < 8.0, xl, lambda v: _p1evl(v, _Q), lambda v: _p1evl(v, _S))
        out[live] = (z * p) / q
    return out


def _ndtri_array(y: np.ndarray) -> np.ndarray:
    valid = (y > 0.0) & (y < 1.0)
    if valid.all():
        return _ndtri_open(y)
    out = np.full_like(y, np.nan)
    out[y == 0.0] = -np.inf
    out[y == 1.0] = np.inf
    out[valid] = _ndtri_open(y[valid])
    return out


def _ndtri_open(y: np.ndarray) -> np.ndarray:
    """``ndtri`` on ``0 < y < 1``."""
    flip = y > _ONE_MINUS_EXP_M2
    y = np.where(flip, 1.0 - y, y)
    out = np.empty_like(y)
    central = y > _EXP_M2
    if central.any():
        c = y[central] - 0.5
        c2 = c * c
        x = c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))
        out[central] = x * _S2PI
    tail = ~central
    if tail.any():
        x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
        x0 = x - _libm(math.log, x) / x
        x1 = _split(
            x < 8.0, 1.0 / x,
            lambda z: z * _polevl(z, _P1) / _p1evl(z, _Q1),
            lambda z: z * _polevl(z, _P2) / _p1evl(z, _Q2),
        )
        x = x0 - x1
        out[tail] = np.where(flip[tail], x, -x)
    return out


def _erf_array(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    out = x.copy()  # keeps NaN
    small = ax <= 1.0
    out[small] = _erf_small(x[small])
    large = ax > 1.0
    r = 1.0 - _erfc_large(ax[large])
    out[large] = np.where(x[large] < 0.0, -r, r)
    return out


def _erfc_array(a: np.ndarray) -> np.ndarray:
    x = np.abs(a)
    out = a.copy()  # keeps NaN
    small = x < 1.0
    out[small] = 1.0 - _erf_small(a[small])
    large = x >= 1.0
    y = _erfc_large(x[large])
    out[large] = np.where(a[large] < 0.0, 2.0 - y, y)
    return out


def _ndtr_array(a: np.ndarray) -> np.ndarray:
    x = a * _SQRTH
    z = np.abs(x)
    out = a.copy()  # keeps NaN
    small = z < _SQRTH
    out[small] = 0.5 + 0.5 * _erf_small(x[small])
    rest = z >= _SQRTH
    zr = z[rest]
    mid = zr < 1.0
    e = np.empty_like(zr)
    e[mid] = 1.0 - _erf_small(zr[mid])
    e[~mid] = _erfc_large(zr[~mid])
    y = 0.5 * e
    out[rest] = np.where(x[rest] > 0, 1.0 - y, y)
    return out


def _dispatch(scalar_fn, array_fn, x):
    if isinstance(x, float):
        return scalar_fn(float(x))
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return scalar_fn(float(arr))
    flat = arr.ravel()
    if flat.size <= _SCALAR_MAX:
        out = np.array([scalar_fn(v) for v in flat.tolist()], dtype=np.float64)
    else:
        out = array_fn(flat)
    return out.reshape(arr.shape)


def ndtri(y):
    """Standard normal quantile: ``x`` with ``ndtr(x) == y``.

    ``-inf`` at 0, ``inf`` at 1, NaN outside ``[0, 1]`` and for NaN.
    """
    return _dispatch(_ndtri1, _ndtri_array, y)


def ndtr(a):
    """Standard normal CDF, ``(1 + erf(a / sqrt(2))) / 2``."""
    return _dispatch(_ndtr1, _ndtr_array, a)


def erf(x):
    """Error function ``2/sqrt(pi) * integral_0^x exp(-t**2) dt``."""
    return _dispatch(_erf1, _erf_array, x)


def erfc(x):
    """Complementary error function ``1 - erf(x)``, accurate in the tail."""
    return _dispatch(_erfc1, _erfc_array, x)
