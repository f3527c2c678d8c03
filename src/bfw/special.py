"""Special-function kernel used by every other module, and the one module
that reaches ``scipy.special``.

The distribution side runs on numpy and ``math``: :func:`_log_beta` is
TOMS 708's exact ``betaln`` (:func:`log_beta` behind validation), and
:func:`_fraction_tails` is the one incomplete beta, a continued fraction
with an exponent summed in double-double that returns both Beta tails,
I_y(a, b) and I_{1-y}(b, a), from one pass, as TOMS 708's ``bratio``
returns w and w1 = 1 - w (:func:`reg_inc_beta` is its lower tail behind
validation).  This module alone chooses the side of a Beta tail: like
``bratio(a, b, x, y)``, the tail kernels (:func:`_beta_tails`,
:func:`_fraction_tails`, :func:`_beta_cdf`) take z = min(y, 1 - y), which
the caller holds exactly, and whether z is 1 - y, and form the other
argument as z's double-double complement, so a y within an ulp of 1 keeps
its digits.  :func:`_beta_tails` is the entry of :mod:`bfw.core`: below
:data:`_LARGE_FROM` points the cdf, the survival and the log tails all
read one fraction pass at (p, q).  Three kernels more:
:func:`polygamma_gaps` integrates the polygamma differences that direct
subtraction would cancel; :func:`_beta_cdf` sums the Beta cdf of batches
of :data:`_LARGE_FROM` points or more as a Taylor series from a node of a
fixed grid at or below each point, the nodes' I and density factor from
one fraction call, at a fraction of the fraction's cost per point; and
:func:`_beta_quantile` solves Beta quantiles on the reflected problem, by a
bracketed Halley step on :func:`_beta_cdf` for large batches and by the
series form where the quantile is small.  Both large-batch paths start at
:data:`_LARGE_FROM` points.  :func:`inv_reg_inc_beta` is their Beta
inverse (:func:`_inverse`) behind validation.  The Beta kernels take the
shapes alone: no caller passes ln B.  Everything is pure and thread-safe;
the per-shape constants of the kernels are cached.

``scipy.special`` costs about twice as much to import as numpy (scipy
1.17 imports ``array_api_compat.numpy``, whose namespace clone imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``), so it is loaded on
first use through :func:`_scipy`, not when ``bfw`` is imported, and
:func:`std_normal_quantile`, the interval z of every fit, does not use it.
What still takes it: the fitter's psi and zeta and the likelihood's
normalizer (:func:`_scipy_betaln`), so ``fit`` and ``compare`` of the
four-parameter model; ``betaincinv`` and ``expit`` in the quantile; and
``betainc`` and ``betaincc`` at z, called from :func:`_fraction_tails`
alone, at concentrated shapes (:func:`_cdf_plan` None) and for a tail read
as the complement of a direct tail above 3/4, at either batch size.
``eval`` of every family, the order statistics and the cumulative hazard
at the published shapes and at (300, 5), ``fit`` of the two-parameter
families, ``sample``, ``km`` and ``--help`` never load it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._stable import _TINY, _ret, checked

__all__ = [
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "log_beta",
    "polygamma_gaps",
    "std_normal_quantile",
]


@functools.cache
def _scipy():
    """The ``scipy.special`` module, imported on the first call."""
    from scipy import special

    return special


def log_beta(p, q):
    """ln B(p, q) for p, q > 0 by :func:`_log_beta`, element by element."""
    pa, qa = checked(p, "p"), checked(q, "q")
    if np.ndim(pa) == np.ndim(qa) == 0:
        return _log_beta(float(pa), float(qa))
    return np.vectorize(_log_beta, otypes=[float])(pa, qa)


def _scipy_betaln(p, q):
    """scipy's ``betaln``, the normalizer of the likelihood kernel only: it
    loses digits where one shape is large (1.5e-9 relative near 1e5-1e6),
    but the benchmark's fit reference sums ``loggamma`` differences that
    lose the same ones, so an exact ln B would read as a wrong fit there."""
    return _scipy().betaln(p, q)


# TOMS 708 (Didonato & Morris 1992, ACM TOMS 18:360): the Stirling series
# coefficients of del(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2, and
# the rational forms of gamln1(a) = ln Gamma(1 + a) on [-0.2, 0.6) and [0.6, 1.25]
_DEL = (0.833333333333333e-01, -0.277777777760991e-02, 0.793650666825390e-03,
        -0.595202931351870e-03, 0.837308034031215e-03, -0.165322962780713e-02)
_GAMLN1_LOW = ((-0.271935708322958e-02, -0.673562214325671e-01, -0.402055799310489e+00,
                -0.780427615533591e+00, -0.168860593646662e+00, 0.844203922187225e+00,
                0.577215664901533e+00),
               (0.667465618796164e-03, 0.325038868253937e-01, 0.361951990101499e+00,
                0.156875193295039e+01, 0.312755088914843e+01, 0.288743195473681e+01, 1.0))
_GAMLN1_HIGH = ((0.497958207639485e-03, 0.170502484022650e-01, 0.156513060486551e+00,
                 0.565221050691933e+00, 0.848044614534529e+00, 0.422784335098467e+00),
                (0.116165475989616e-03, 0.713309612391000e-02, 0.101552187439830e+00,
                 0.548042109832463e+00, 0.124313399877507e+01, 1.0))
_HALF_LN_2PI = 0.918938533204673


def _horner(coefficients, x):
    out = 0.0
    for c in coefficients:
        out = out * x + c
    return out


def _gamln1(a):
    """ln Gamma(1 + a) for -0.2 <= a <= 1.25."""
    if a < 0.6:
        num, den = _GAMLN1_LOW
        return -a * (_horner(num, a) / _horner(den, a))
    x = (a - 0.5) - 0.5
    num, den = _GAMLN1_HIGH
    return x * (_horner(num, x) / _horner(den, x))


def _gamln(a):
    """ln Gamma(a) for a > 0."""
    if a <= 0.8:
        return _gamln1(a) - math.log(a)
    if a <= 2.25:
        return _gamln1((a - 0.5) - 0.5)
    if a < 10.0:
        w = 1.0
        for _ in range(int(a - 1.25)):
            a -= 1.0
            w *= a
        return _gamln1(a - 1.0) + math.log(w)
    return (0.418938533204673 + _del(a)) + (a - 0.5) * (math.log(a) - 1.0)


def _del(a):
    t = (1.0 / a) ** 2
    return _horner(_DEL[::-1], t) / a


def _del_gap(h, b):
    """del(b) - del(a + b) for b >= 8 and h = a / b (TOMS 708's algdiv and bcorr)."""
    c, x = h / (1.0 + h), 1.0 / (1.0 + h)
    x2 = x * x
    s = [1.0]  # s_n = (1 - x^n) / (1 - x), n = 1, 3, ..., 11
    for _ in range(5):
        s.append(1.0 + (x + x2 * s[-1]))
    t = (1.0 / b) ** 2
    w = _DEL[5] * s[5]
    for k in range(4, -1, -1):
        w = w * t + _DEL[k] * s[k]
    return w * (c / b)


def _algdiv(a, b):
    """ln(Gamma(b) / Gamma(a + b)) for b >= 8."""
    h = a / b
    w = _del_gap(h, b)
    u = (a + (b - 0.5) if a > b else b + (a - 0.5)) * math.log1p(h)
    v = a * (math.log(b) - 1.0)
    return (w - v) - u if u > v else (w - u) - v


def _gsumln(a, b):
    """ln Gamma(a + b) for 1 <= a, b <= 2."""
    x = a + b - 2.0
    if x <= 0.25:
        return _gamln1(1.0 + x)
    if x <= 1.25:
        return _gamln1(x) + math.log1p(x)
    return _gamln1(x - 1.0) + math.log(x * (1.0 + x))


def _log_beta(p, q):
    """ln B(p, q) for floats p, q > 0, unchecked: TOMS 708's ``betaln``.

    With a <= b the shapes: from a = 8 on the Stirling form, whose large
    terms -(a - 1/2) ln(a / (a + b)) and b ln(1 + a / b) do not cancel, plus
    the correction del(a) + del(b) - del(a + b); below it a is reduced to
    [1, 2] by Gamma(a + 1) = a Gamma(a), b likewise while b < 8, and
    ln(Gamma(b) / Gamma(a + b)) is taken whole (``algdiv``).  Within
    0.91 eps max(1, |ln B|) of 60-digit values at the pairs of
    ``tests/test_special.py``, where scipy's ``betaln``, a ln Gamma
    difference at some shapes, is 79 such units off at (300, 5), 2.1e3 at
    (1e4, 2) and 34 at (1e7, 1e7); 8.6 over 3,000 random pairs, at
    a < 1 < b < 8, where a ln Gamma difference remains.
    """
    a, b = min(p, q), max(p, q)
    if a >= 8.0:
        h = a / b
        u = -(a - 0.5) * math.log(h / (1.0 + h))
        v = b * math.log1p(h)
        w = (-0.5 * math.log(b) + _HALF_LN_2PI) + (_del(a) + _del_gap(h, b))
        return (w - v) - u if u > v else (w - u) - v
    if a < 1.0:
        if b >= 8.0:
            return _gamln(a) + _algdiv(a, b)
        return _gamln(a) + (_gamln(b) - _gamln(a + b))
    w = 0.0
    if a > 2.0:
        n = int(a - 1.0)
        w = 1.0
        if b > 1000.0:
            for _ in range(n):
                a -= 1.0
                w *= a / (1.0 + a / b)
            return (math.log(w) - n * math.log(b)) + (_gamln(a) + _algdiv(a, b))
        for _ in range(n):
            a -= 1.0
            h = a / b
            w *= h / (1.0 + h)
        w = math.log(w)
    elif b <= 2.0:
        return _gamln(a) + _gamln(b) - _gsumln(a, b)
    if b >= 8.0:
        return w + _gamln(a) + _algdiv(a, b)
    z = 1.0
    for _ in range(int(b - 1.0)):
        b -= 1.0
        z *= b / (a + b)
    return w + math.log(z) + (_gamln(a) + (_gamln(b) - _gsumln(a, b)))


# three-point Gauss-Legendre nodes and weights on [0, 1]
_GAUSS_NODES = 0.5 + 0.5 * np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])[:, None, None]
# weights of the psi' and 2 zeta(3, .) rows, one row per node
_GAUSS_WEIGHTS = (np.array([5.0, 8.0, 5.0]) / 18.0 * np.array([1.0, 2.0])[:, None]).T[:, :, None]
_ZETA_ORDERS = np.array([2.0, 3.0])[:, None]  # psi' = zeta(2, .), -psi'' = 2 zeta(3, .)
_LEADING_FROM = 2.0**60  # base from which the gaps are their leading terms


def polygamma_gaps(b, s):
    """psi(b + s) - psi(b) and psi'(b) - psi'(b + s) for arrays 0 < s <= b/64,
    without the cancellation of the direct differences (which lose every
    digit once b + s rounds to b).

    Each gap is the integral of its derivative over [c, c + s]:
    psi(c + s) - psi(c) = int psi' and psi'(c) - psi'(c + s) = int -psi'',
    with psi'(x) = zeta(2, x) and -psi''(x) = 2 zeta(3, x), by three-point
    Gauss-Legendre quadrature, whose relative error is about
    2.5e-3 (s/c)^6: below 1e-13 for s <= c/64, whatever the scale of c.
    c is b, or b + 1 for b < 1 (where zeta(2, b) ~ 1/b^2 may overflow), the
    recurrences psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2
    adding t = 1/b - 1/(b + s) to the first gap and t (1/b + 1/(b + s)) to
    the second, both without cancellation.  From b = 2^60 on, where
    zeta(3, b) ~ 1/(2 b^2) would underflow first, the gaps are their
    leading terms ln(1 + s/b) and 1/b - 1/(b + s); the rest is below
    1/b relative.
    """
    with np.errstate(over="ignore"):
        return _polygamma_gaps(np.asarray(b, dtype=float), np.asarray(s, dtype=float))


def _polygamma_gaps(b, s):
    """:func:`polygamma_gaps` on float arrays, for callers that hold
    ``np.errstate(all="ignore")`` (:func:`_log_beta_derivatives`)."""
    shift = b < 1.0
    # (node, order, element); an explicit sum over the nodes: a matrix product
    # rounds differently with the number of columns, and each element must get
    # the value it gets alone
    terms = np.multiply(_scipy().zeta(_ZETA_ORDERS, b + shift + s * _GAUSS_NODES), _GAUSS_WEIGHTS)
    d_psi, d_tri = s * (terms[0] + terms[1] + terms[2])
    b_s = b + s
    t = (s / b) / b_s  # 1/b - 1/(b + s)
    if shift.any():
        np.add(d_psi, t, d_psi, where=shift)
        np.add(d_tri, t * (1.0 / b + 1.0 / b_s), d_tri, where=shift)
    huge = b >= _LEADING_FROM
    if huge.any():
        d_psi[huge] = np.log1p(s[huge] / b[huge])
        d_tri[huge] = t[huge]
    return d_psi, d_tri


_GAP_RATIO = 64.0  # shape ratio from which the psi gaps are integrated


def _log_beta_derivatives(p, q, order):
    """The derivatives of -ln B(p, q) at shapes p and q, for the score
    (order >= 1) and information (order 2) of a Beta likelihood: the digamma
    gaps psi(p+q) - (psi(p), psi(q)), a (2, m) array, and for order 2 the
    (3, m) array of the trigamma gaps (psi'(p), psi'(q)) - psi'(p+q) and the
    trigamma psi'(p+q), psi and psi' by one call each on (p, q, p + q).
    Between shapes more than :data:`_GAP_RATIO` times apart, where a direct
    difference would lose some (b/s) max(1, ln b) ulps of psi(b), the gaps
    at the larger shape b come from :func:`polygamma_gaps`, which does not
    cancel.  Returns (gaps, trigammas), None for the second below order 2.
    Callers hold ``np.errstate(all="ignore")``."""
    sp = _scipy()
    stack = np.array([p, q, p + q])
    psi = sp.psi(stack)
    gaps = np.subtract(psi[2], psi[:2], psi[:2])
    tri = None
    if order == 2:
        tri = sp.zeta(2.0, stack)  # polygamma(1, s) = zeta(2, s), bit for bit
        np.subtract(tri[:2], tri[2], tri[:2])
    shapes, other = stack[:2], stack[1::-1]
    far = other * _GAP_RATIO < shapes
    if far.any():
        d_psi, d_tri = _polygamma_gaps(shapes[far], other[far])
        gaps[far] = d_psi
        if order == 2:
            tri[:2][far] = d_tri
    return gaps, tri


def reg_inc_beta(y, p, q):
    """Regularized incomplete beta I_y(p, q), the Beta(p, q) CDF at y: the
    lower tail of :func:`_fraction_tails` at z = min(y, 1 - y), which is
    exact, once per distinct (p, q) pair, the shapes broadcast against y.
    Endpoints map to themselves: y = 0 -> 0 and y = 1 -> 1."""
    def lower(v, a, b):
        return _fraction_tails(np.minimum(v, 1.0 - v), v > 0.5, a, b, sf=False)[0]

    return _by_shapes(lower, checked(y, "y", high=1.0, closed=True), p, q)


def inv_reg_inc_beta(u, p, q):
    """Inverse of ``reg_inc_beta`` in its first argument: :func:`_inverse`
    once per distinct (p, q) pair, the shapes broadcast against u.
    Endpoints map to themselves: u = 0 -> 0 and u = 1 -> 1."""
    return _by_shapes(_inverse, checked(u, "u", high=1.0, closed=True), p, q)


def _by_shapes(kernel, v, p, q):
    """kernel(v, a, b) over a checked array v, once per distinct pair of the
    checked shapes p and q broadcast against it."""
    p, q = checked(p, "p"), checked(q, "q")
    if np.ndim(p) == np.ndim(q) == 0:
        return _ret(kernel(np.atleast_1d(v), float(p), float(q)).reshape(np.shape(v)))
    shapes = np.broadcast_arrays(p, q)
    va, pa, qa = np.broadcast_arrays(v, *shapes)
    out = np.empty(va.shape)
    for a, b in set(zip(shapes[0].flat, shapes[1].flat)):
        at = (pa == a) & (qa == b)
        out[at] = kernel(va[at], float(a), float(b))
    return _ret(out)


# Both large-batch kernels, :func:`_beta_cdf` and :func:`_beta_quantile`, run
# from this many points on; below it the tails are one :func:`_fraction_tails`
# pass and each quantile one betaincinv.  Measured crossover against betainc (2-vCPU x86_64
# VM, median of 41 interleaved calls): at the published shapes the cdf kernel
# breaks even with betainc near 550 points (0.40 against 0.66 ms at 1024) and
# the Halley quantile with betaincinv near 800 (0.95 against 1.19 ms); at
# (2, 2) the quantile near 700 (0.52 against 0.75 ms at 1024), while the cdf
# kernel costs 0.09 ms more than betainc's closed form at 1024 points and
# breaks even near 2500.
_LARGE_FROM = 1024


def _beta_tails(z, upper, a, b, cdf=True, sf=True):
    """(I_y(a, b), I_{1-y}(b, a)) at y = z, or y = 1 - z where ``upper``, for
    arrays z in [0, 1/2] and ``upper`` of one shape, None for a tail not
    read (``cdf``, ``sf``): the Beta tails of :mod:`bfw.core`.

    Below :data:`_LARGE_FROM` points both come from one
    :func:`_fraction_tails` pass at (a, b), so a tail read alone is the one
    read with the other, bit for bit.  From there on a tail read alone is
    one :func:`_beta_cdf` call, and both together are I_y(a, b) on every
    element and, where that is above 1/2, I_{1-y}(b, a) by this function on
    those elements; elsewhere the upper tail is 1 - I_y(a, b), at least
    1/2.  Both paths keep the fraction's edge rules; the series adds a few
    eps to the fraction's error at its node."""
    if np.size(z) < _LARGE_FROM:
        return _fraction_tails(z, upper, a, b, cdf, sf)[:2]
    if not sf:
        return _beta_cdf(z, upper, a, b), None
    if not cdf:
        return None, _beta_cdf(z, ~upper, b, a)
    low = _beta_cdf(z, upper, a, b)
    high = 1.0 - low
    right = low > 0.5
    if right.any():
        high[right] = _beta_tails(z[right], ~upper[right], b, a, sf=False)[0]
    return low, high


# The continued fraction (:func:`_fraction_tails`) is summed to where the step
# at the top of its side is below this relative change (``bfrac``'s own rule)
_FRACTION_TOL = 2.0**-52
# far more rows than the shape pairs that :func:`_cdf_plan` admits need (146
# at (16000, 16000)); a fraction that would need more is betainc's
_FRACTION_ROWS = 4096


def _fraction_tails(z, upper, a, b, cdf=True, sf=True):
    """(I_y(a, b), I_{1-y}(b, a), P(y)) at y = z, or y = 1 - z where
    ``upper``, for arrays z in [0, 1/2] and ``upper`` of one shape: both
    Beta tails from one pass, None for a tail not read (``cdf``, ``sf``),
    and P over the flattened z, None where :func:`_cdf_plan` is None.  The
    one incomplete beta of this module: the small-batch path of
    :func:`_beta_tails`, the lower tail of :func:`reg_inc_beta`, and each
    node's I and P and every refused element of :func:`_beta_cdf`.  In
    numpy, TOMS 708's ``bfrac`` with its ``brcomp`` prefactor (Didonato &
    Morris 1992, ACM TOMS 18:360):

        I_y(a, b) = P(y) r(y),  P(y) = y^a (1 - y)^b / B(a, b),

    r the continued fraction of DLMF 8.17.22 in its even contraction
    (:func:`_fraction_ratio`), where y is at most x0 = (a + 1) / (a + b + 2),
    and above it I_{1-y}(b, a) = P(y) r'(1 - y), r' that at the shapes
    (b, a).  That direct tail is each element's, and the other is 1 minus it
    (DLMF 8.17.4), as ``bratio`` returns w and w1 = 1 - w from one
    evaluation; the elements of both sides share one ratio loop.  Like
    ``bratio(a, b, x, y)`` it reads both arguments: z exactly, and its
    complement 1 - z as a double-double pair, so y keeps its digits where it
    is within an ulp of 1.  ``betainc`` and ``betaincc`` are called here and
    nowhere else in the package, on z, and only for a tail that is read:
    I_y(a, b) is ``betainc(a, b, z)``, or ``betaincc(b, a, z)`` where
    ``upper``, and I_{1-y}(b, a) the other of the two at the shapes (b, a).
    They take every point where :func:`_cdf_plan` is None (concentrated
    shapes, and a shape below about 1e-305, where the fraction has no rows),
    and the complement of every direct tail above 3/4, since there the
    complement is below 1/4 and 1 - P r would lose more than two bits (at
    (2, 1e-8) it kept about 8 digits of I ~ 1e-8).

    P is one power for both sides, formed as ``brcomp`` forms it, relative
    to the top of the side: P(y) = (y / x0)^a ((1 - y) / y0)^b / S with
    y0 = 1 - x0 and S = r(x0) + r'(y0), which is B(a, b) / (x0^a y0^b) by
    I_x0(a, b) + I_y0(b, a) = 1, so the normalizer needs no Stirling series
    and holds where a shape is below 8 as well.  The exponent
    a ln(y / x0) + b ln((1 - y) / y0) - ln S is summed in double-double,
    from :func:`_log_dd` of z and of its complement, so the power keeps its
    relative precision where it nears underflow and where a shape is large.
    The fraction's first denominator takes c = 1 + a - (a + b) y in
    double-double (the reflected side's is 2 - c), so it keeps its digits
    where (a + b) y nears 1 + a.  Every value depends on its own z and the
    shapes only: the fraction's length is fixed per shape pair at the top of
    its side (:func:`_fraction_rows`)."""
    shape, z, upper = np.shape(z), np.ravel(z), np.ravel(upper)
    power = None
    if _cdf_plan(a, b) is not None:
        x0, ln_ends, ln_sum, weights = _fraction_center(a, b)
        with np.errstate(all="ignore"):
            ends = np.empty((2, z.size))
            ends[0] = z
            np.subtract(1.0, z, out=ends[1])
            comp_lo = (1.0 - ends[1]) - z  # 1 - z = ends[1] + comp_lo exactly
            hi, lo = _log_dd(ends)
            lo[1] += comp_lo / ends[1]  # ln(u + du) = ln u + du / u, to O(eps^2)
            if upper.any():  # rows (y, 1 - y)
                ends, hi, lo = (np.where(upper, pair[::-1], pair) for pair in (ends, hi, lo))
            y, y1 = ends
            hi -= ln_ends[0]  # exact
            lo -= ln_ends[1]
            # times (a, b): a = w1 + w2 with w1 of 18 bits, so hi w1 is exact
            lo *= weights[0] + weights[1]
            lo += hi * weights[1]
            hi *= weights[0]
            power, err = _two_sum(hi[0], hi[1])
            power, err2 = _two_sum(power, -ln_sum[0])
            power, tail = _two_sum(power, ((lo[0] + lo[1]) + (err + err2)) - ln_sum[1])
            power = np.exp(power)
            power *= 1.0 + tail
            c, c_lo = _shift(y, a, b, comp_lo * upper)  # y = ends[0] + comp_lo where upper
            reflected = y > x0  # the direct tail is I_{1-y}(b, a)
            # the reflected side's x is 1 - y and its c is 2 - c
            np.subtract(2.0, c, out=c, where=reflected)
            np.negative(c_lo, out=c_lo, where=reflected)
            c += c_lo
            ratio = _fraction_ratio(np.where(reflected, y1, y), c, a, b, reflected)
            direct = ratio * power
            other = 1.0 - direct
            far = direct > 0.75  # the complement 1 - P r loses more than 2 bits
            edge = z == 0.0  # y = 0 -> (0, 1) and y = 1 -> (1, 0)
    tails = []
    for read, s, t, at_one, flip in ((cdf, a, b, upper, False), (sf, b, a, ~upper, True)):
        if not read:
            tails.append(None)
            continue
        if power is None:
            tail, scipy_at = np.empty(z.size), np.arange(z.size)
        else:
            side = reflected ^ flip  # where this tail is 1 minus the direct one
            tail = np.where(side, other, direct)
            np.copyto(tail, at_one, where=edge)
            scipy_at = np.flatnonzero(side & far)
        if scipy_at.size:
            sp, at, part = _scipy(), at_one.take(scipy_at), z.take(scipy_at)
            sp.betainc(s, t, part, out=part, where=~at)
            tail[scipy_at] = sp.betaincc(t, s, part, out=part, where=at)
        tails.append(tail.reshape(shape))
    return tails[0], tails[1], power


def _shift(y, a, b, y_lo=0.0):
    """c = 1 + a - (a + b) (y + y_lo) for an array y, as a pair (hi, lo) of
    arrays; hi is exact where 1 + a and (a + b) y are within a factor 2, the
    only place where they cancel."""
    s, s_lo = _two_sum(a, b)
    one, one_lo = _two_sum(1.0, a)
    p, p_lo = _two_product(y, s)
    return one - p, (one_lo - p_lo) - s_lo * y - s * y_lo


def _fraction_ratio(x, c, a, b, reflected):
    """r(x) of TOMS 708's ``bfrac``, I_x(a, b) = x^a (1 - x)^b r(x) / B(a, b),
    for an array x at most the x0 of (a, b) and c = 1 + a - (a + b) x; where
    ``reflected`` the same at the shapes (b, a) and their x0.

    The even contraction of DLMF 8.17.22, r = 1 / (b_0 + a_1 / (b_1 + a_2 /
    (b_2 + ...))), summed from its last row back (:func:`_fraction_rows`).
    Its first denominator is b_0 = c a / (a + 1), where the uncontracted
    fraction's first step 1 + d_1 cancels near x0 for a large; the other
    denominators are sums of positive terms.  Both shape orders run one
    loop over the rows of :func:`_fraction_table`, as deep as the deeper
    order present; the shorter is padded below its last row with rows
    b_n = 1 and a_n = 0, through which the sum passes unchanged (at its last
    row a_n / t + b_n is b_n), so each value is bit for bit the one of a
    loop over its own rows."""
    rows, width, lead, amp, first, depths = _fraction_table(a, b)
    depth = max(depths[0] if not reflected.all() else 1, depths[1] if reflected.any() else 1)
    side = reflected.astype(np.intp)
    # row n, n = 1, 2, ...: b_n = rows[n - 1] + width x + lead c and a_n = amp x^2
    beta = width[:depth].take(side, axis=1)
    beta *= x
    beta += rows[:depth].take(side, axis=1)
    step = lead[:depth].take(side, axis=1)
    step *= c
    beta += step
    alpha = amp[:depth].take(side, axis=1)
    alpha *= x * x
    t = beta[-1].copy()
    for a_n, b_n in zip(alpha[:0:-1], beta[-2::-1]):
        np.divide(a_n, t, out=t)
        t += b_n
    np.divide(alpha[0], t, out=t)
    t += c * first.take(side)
    return np.divide(1.0, t, out=t)


@functools.lru_cache(maxsize=1024)
def _fraction_table(a, b):
    """The rows of :func:`_fraction_ratio`: :func:`_fraction_rows` at (a, b)
    and at (b, a) as the two columns of four (depth, 2) arrays, the shorter
    padded with rows b_n = 1 and a_n = 0, then the factors a / (a + 1) and
    b / (b + 1) of the first denominators and each order's own depth."""
    orders = (_fraction_rows(a, b), _fraction_rows(b, a))
    depths = tuple(order[0].size for order in orders)
    columns = []
    for k, pad in enumerate((1.0, 0.0, 0.0, 0.0)):
        column = np.full((max(depths), 2), pad)
        for j, order in enumerate(orders):
            column[:depths[j], j] = order[k]
        columns.append(column)
    return (*columns, np.array([a / (a + 1.0), b / (b + 1.0)]), depths)


@functools.lru_cache(maxsize=1024)
def _fraction_rows(a, b):
    """Row coefficients of :func:`_fraction_ratio` at shapes (a, b), as four
    arrays over n = 1, 2, ...: b_n = n (1 + 2 e_n) + (k_n - n e_n) x + e_n c
    with e_n = (a + n) / (a + 1 + 2n) and k_n = n (b - n) / (a + 2n - 1),
    and a_n = g_n x^2 with g_n = n (b - n) (a + n - 1) (a + b + n - 1) /
    (a + 2n - 1)^2: ``bfrac``'s rows, with y = 1 - x and its products of
    p = 1 + (n - 1) / a and 1 / a regrouped so that no factor overflows at
    tiny a.  As many rows as ``bfrac`` takes at x0, where its fraction
    converges slowest, to :data:`_FRACTION_TOL`; None where the fraction is
    not finite there (a shape so small that its first denominator
    underflows) or needs more than :data:`_FRACTION_ROWS`."""
    x = np.float64(_fraction_center_point(a, b))
    y = 1.0 - x
    c = (1.0 + a) - (a + b) * x
    coefficients = []
    # bfrac's forward recurrence at x0, rescaled at every step
    a_prev, b_prev, a_cur, b_cur = 0.0, 1.0, 1.0, c * (a / (a + 1.0))
    with np.errstate(all="ignore"):
        r = 1.0 / b_cur
    for n in range(1, _FRACTION_ROWS + 1):
        if not np.isfinite(r):
            return None
        s = a + (2.0 * n - 1.0)
        e = (a + n) / (a + (2.0 * n + 1.0))
        k = n * (b - n) / s
        g = n * (b - n) * ((a + (n - 1.0)) / s) * ((a + (b + (n - 1.0))) / s)
        coefficients.append((n * (1.0 + 2.0 * e), k - n * e, e, g))
        alpha, beta = g * x * x, n + k * x + e * (c + n * (1.0 + y))
        a_prev, a_cur = a_cur, alpha * a_prev + beta * a_cur
        b_prev, b_cur = b_cur, alpha * b_prev + beta * b_cur
        with np.errstate(all="ignore"):
            r_prev, r = r, a_cur / b_cur
            a_prev, b_prev, a_cur, b_cur = a_prev / b_cur, b_prev / b_cur, r, 1.0
        if abs(r - r_prev) <= _FRACTION_TOL * r:
            return tuple(np.array(column) for column in zip(*coefficients))
    return None


def _fraction_center_point(a, b):
    """x0 near (a + 1) / (a + b + 2), rounded so that 1 - x0 is exact."""
    return 1.0 - (1.0 - (a + 1.0) / (a + b + 2.0))


@functools.lru_cache(maxsize=1024)
def _fraction_center(a, b):
    """(x0, ln_ends, ln_sum, weights) of :func:`_fraction_tails`: the top x0
    of the fraction's lower side, (ln x0, ln y0) as a (hi, lo) pair of
    columns, ln(r(x0) + r'(y0)) as a (hi, lo) pair of floats, and the
    column (a, b) split into 18 leading bits and the rest."""
    x0 = _fraction_center_point(a, b)
    ends = np.array([x0, 1.0 - x0])
    c, c_lo = _shift(ends[:1], a, b)
    total, total_lo = _two_sum(*_fraction_ratio(ends, np.append(c + c_lo, (2.0 - c) - c_lo),
                                                a, b, np.array([False, True])))
    hi, lo = _log_dd(np.append(ends, total))
    ln_sum = _two_sum(hi[2], lo[2] + total_lo / total)
    shapes = np.array([[a], [b]])
    top, e = np.frexp(shapes)
    high = np.ldexp(np.floor(np.ldexp(top, 18)), e - 18)
    return (x0, (hi[:2, None], lo[:2, None]), (float(ln_sum[0]), float(ln_sum[1])),
            (high, shapes - high))


_SQRT_HALF = math.sqrt(0.5)
# ln 2 split so that e * _LN2_HI is a multiple of 2^-24 below 2^10 for every
# binary exponent e of a double, exactly
_LN2_HI = 11629079 / 2.0**24
_LN2_LO = 5.7699990475432854e-08
_LOG_STEPS = 256  # the nodes c_j = 1 + j / 256 of :func:`_log_dd`
_LOG_NODES = range(-75, 107)  # the j of every m in [sqrt(1/2), sqrt(2))


@functools.cache
def _log_table():
    """(hi, lo) arrays of ln c_j over :data:`_LOG_NODES`, hi a multiple of
    2^-24: 2 atanh(j / (512 + j)) summed in integers scaled by 2^120."""
    shift = 120
    his, los = [], []
    for j in _LOG_NODES:
        num, den = abs(2 * j) << shift, 2 * _LOG_STEPS + j
        total, k = 0, 1
        while term := num // (den * k):
            total += term
            num *= j * j
            den *= (2 * _LOG_STEPS + j) ** 2
            k += 2
        total = total if j >= 0 else -total
        hi = total >> (shift - 24)
        his.append(hi / 2.0**24)
        los.append((total - (hi << (shift - 24))) / 2.0**shift)
    return np.array(his), np.array(los)


def _log_dd(v):
    """(hi, lo), arrays with hi + lo = ln v for an array v of positive
    doubles, within 2e-20 and within eps |ln v|: v = m 2^e with m in
    [sqrt(1/2), sqrt(2)) nearest the node c_j = 1 + j / 256,
    ln v = e ln 2 + ln c_j + ln(1 + u)
    with u = (m - c_j) / c_j, the first two from :func:`_log_table`.  u's
    leading bits to 2^-24 join hi, which stays a multiple of 2^-24 below
    2^10, so two of them subtract exactly and the difference times 18 bits
    is exact; lo takes the rest of u, exactly up to its last rounding, and
    ln(1 + u) - u by its series to u^8 (|u| < 2^-8).  lo is below 7e-5, so
    a shape times lo keeps its digits where a shape is large."""
    m, e = np.frexp(v)
    low = m < _SQRT_HALF
    np.multiply(m, 2.0, out=m, where=low)
    e = (e - low).astype(float)
    j = np.rint((m - 1.0) * _LOG_STEPS)
    node = j * (1.0 / _LOG_STEPS) + 1.0
    m -= node  # exact: m and c_j are within a factor 2
    u = m / node
    u_hi = np.rint(u * 2.0**24)
    u_hi *= 2.0**-24
    m -= u_hi * node  # exact: u_hi has at most 16 bits and c_j 9
    m /= node
    series = u * (-1.0 / 8.0)
    for n in range(7, 1, -1):
        series += (-1.0) ** (n + 1) / n
        series *= u
    series *= u
    idx = j.astype(np.intp) - _LOG_NODES.start
    table_hi, table_lo = _log_table()
    hi = e * _LN2_HI
    hi += table_hi.take(idx)
    hi += u_hi
    lo = e * _LN2_LO
    lo += table_lo.take(idx)
    lo += m
    lo += series
    return hi, lo


def _two_sum(x, c):
    """(s, r) with s = fl(x + c) and s + r = x + c exactly (Knuth)."""
    s = x + c
    z = s - x
    return s, (x - (s - z)) + (c - z)

# The bracketed Beta quantile (:func:`_beta_quantile`).  Node probabilities
# lie on the logit grid -k * _NODE_STEP, k = 0, 1, ...; at this step the
# cubic Hermite start is within ~1e-8 relative of the root on the shapes
# tested, so one Halley step reaches the last bit (at twice the step, 12% of
# the elements at (2, 2) were not done after it).
_NODE_STEP = 0.125
# A Halley step d (in ln y) with |d| max(1, |g''/g'|) below this leaves an
# error of order (d g''/g')^2 d, far below one ulp: the element is done
# after it.  An element the step leaves short of this goes to betaincinv.
_STEP_DONE = 2.0**-22
# The Beta quantile's series form (:func:`_inverse`) is solved where its
# fixed-point map contracts by 2^-9 or more and the terms of its
# hypergeometric factor shrink by 1/8 or more: seven steps reach 2^-63, and
# 19 terms leave below 2^-57.  That takes in a subnormal t at (300, 5),
# where z is 0.08, and starts below t = 4e-6 at (2, 2).
_SERIES_FROM = 2.0**-9
_SERIES_RATIO = 0.125
_FIXED_STEPS = 7
_SERIES_TERMS = 19


def _beta_quantile(u, p, q):
    """The Beta(p, q) quantile of an array u in (0, 1) as ``(v, upper)``: v
    is y with I_y(p, q) = u, or 1 - y where ``upper``.

    Each u > 1/2 is reflected to I_{1-y}(q, p) = 1 - u (DLMF 8.17.4, with
    1 - u exact), so every element solves I_z(a, b) = t with t <= 1/2 and
    returns z.  From :data:`_LARGE_FROM` points on, its start is a cubic
    Hermite interpolant of ln z in logit(t) between the two nodes of a fixed
    logit grid that bracket t; the nodes come from :func:`_inverse`, only
    those some element needs.  One Halley step on
    g(ln z) = ln I_z(a, b) - ln t, with I from :func:`_beta_cdf`, refines
    it.  Every value depends on its own u and the shapes only, not on the
    rest of the batch.

    :func:`_inverse` solves I_z(a, b) = t instead below :data:`_LARGE_FROM`
    points; where t is small enough for its series root
    (:func:`_series_top`); where a < 1, since each ulp of the cdf's error
    costs 1/a ulps of z there; where a node's t or z is not a normal double
    (the cdf would be subnormal, or z underflows); and where the step does
    not leave the element done (:data:`_STEP_DONE`).  A reflected element
    whose z exceeds 1/2 is solved for y directly (``upper`` False), since
    1 - z would lose the digits of a small y.
    """
    u = np.asarray(u, dtype=float)
    upper = u > 0.5
    v = np.empty_like(u)
    large = u.size >= _LARGE_FROM
    for reflected, a, b in ((False, p, q), (True, q, p)):
        side = upper if reflected else ~upper
        if not side.any():
            continue
        t = 1.0 - u[side] if reflected else u[side]
        if a < 1.0 or not large:
            v[side] = _inverse(t, a, b)
            continue
        z, ok = _halley_quantile(t, a, b)
        ok &= t > _series_top(a, b)
        if not ok.all():
            z[~ok] = _inverse(t[~ok], a, b)
        v[side] = z
    swap = upper & (v > 0.5)
    if swap.any():
        v[swap] = _inverse(u[swap], p, q)
        upper &= ~swap
    return v, upper


def _inverse(t, a, b):
    """z with I_z(a, b) = t for an array t in [0, 1], the Beta inverse of
    :func:`_beta_quantile` and :func:`inv_reg_inc_beta`: ``betaincinv``, or
    at or below :func:`_series_top` the root of the series form (DLMF 8.17.8)

        I_z(a, b) = z^a (1 - z)^b F(z) / (a B(a, b)),
        F(z) = 2F1(a + b, 1; a + 1; z) = 1 + (a + b) / (a + 1) z + ...,

    that is z = z0 ((1 - z)^b F(z))^(-1/a) with the leading term
    z0 = (t a B(a, b))^(1/a).  Where z0 (b + (a + b) / (a + 1)) / a is at
    most :data:`_SERIES_FROM` this map contracts by that much, and where
    z0 max(1, (a + b) / (a + 1)) is at most :data:`_SERIES_RATIO` the terms
    of F shrink by that much, so :data:`_FIXED_STEPS` steps from z0 reach
    the root to rounding (where the correction is below eps/4 z is z0
    itself).  There ``betaincinv`` is NaN (at (5, 300) for every t below
    ~1e-170, at (2, 2) for t = 5e-324) or far off (5.4% and 103% at the
    published shapes for t = 1e-310 and 5e-324, 6% at (300, 5) for a
    subnormal t).  Where a subnormal t has z near 1 (a first shape in the
    thousands) ``betaincinv`` is all there is."""
    t = np.asarray(t, dtype=float)
    near = t <= _series_top(a, b)
    if not near.any():
        return _scipy().betaincinv(a, b, t)
    z = np.empty_like(t)
    far = ~near
    if far.any():
        z[far] = _scipy().betaincinv(a, b, t[far])
    z0 = _leading_root(t[near], a, _log_norm(a, b))
    root = z0
    for _ in range(_FIXED_STEPS):
        # F(z) - 1 by Horner over its first terms, each (a + b + n) / (a + 1 + n) z
        # times the one before
        rest = np.zeros_like(root)
        for n in range(_SERIES_TERMS - 1, -1, -1):
            rest += 1.0
            rest *= ((a + b + n) / (a + 1.0 + n)) * root
        root = z0 * np.exp(-(b * np.log1p(-root) + np.log1p(rest)) / a)
    z[near] = root
    return z


@functools.lru_cache(maxsize=1024)
def _series_top(a, b):
    """The largest t that :func:`_inverse` takes to the series root: the
    leading term z0^a / (a B(a, b)) at the largest z0 the series admits."""
    grow = (a + b) / (a + 1.0)
    z0 = min(_SERIES_FROM * a / (b + grow), _SERIES_RATIO / max(1.0, grow))
    return math.exp(a * math.log(z0) - _log_norm(a, b))


def _leading_root(t, a, log_norm):
    """(t a B)^(1/a) for an array t, with ``log_norm`` = ln(a B), as
    exp((ln t + ln(a B)) / a), the large part of ln t kept exact: for
    t = m 2^e it is 2^(e/a) exp((ln m + ln(a B)) / a), e/a split into a
    double and its remainder by Dekker's product, so the rounding of ~745/a
    never reaches the result; a few eps remain.  At tiny a the two factors
    can leave the normal doubles while the root is one: where 2^(e/a) is
    below them and the other factor above 1, or that factor overflows, the
    root is the exp of the sum of their logarithms, which adds an error of
    about eps |e/a| ln 2 to the eps |ln(a B)/a| already in the exponent."""
    m, e = np.frexp(t)
    e = e.astype(float)
    q = e / a
    hi, lo = _two_product(q, a)
    rest = (e - hi) - lo  # e - q a, exactly up to the last rounding
    with np.errstate(all="ignore"):
        power = (rest * _LN2 + np.log(m) + log_norm) / a
        lead, tail = np.exp2(q), np.exp(power)
        root = lead * tail
        wide = ((lead < _TINY) & (tail > 1.0)) | (tail == np.inf)
        if wide.any():
            root[wide] = np.exp(q[wide] * _LN2 + power[wide])
    return root


@functools.lru_cache(maxsize=1024)
def _log_norm(a, b):
    """ln(a B(a, b)), ln a plus :func:`_log_beta`."""
    return math.log(a) + _log_beta(a, b)


_LN2 = math.log(2.0)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit doubles


def _two_product(x, c):
    """(p, r) with p = fl(x c) and p + r = x c exactly (Dekker), for an array
    x and a float c."""
    p = x * c
    big = _SPLIT * x
    x_hi = big - (big - x)
    x_lo = x - x_hi
    big = _SPLIT * c
    c_hi = big - (big - c)
    c_lo = c - c_hi
    return p, ((x_hi * c_hi - p) + x_hi * c_lo + x_lo * c_hi) + x_lo * c_lo


def _halley_quantile(t, a, b):
    """(z, ok): z with I_z(a, b) = t for t in (0, 1/2], ok False where the
    element must be solved elsewhere (see :func:`_beta_quantile`).  Written
    in place where it can: at 5e4 points a bulk call holds few arrays."""
    # -logit(t) / step lies in [k, k + 1]: t is bracketed by nodes k and k + 1.
    # ln(1 - t) - ln t, not ln((1 - t) / t), whose quotient overflows for a
    # subnormal t; this stays below ~745 for every t > 0.
    tau = np.log1p(-t)
    tau -= np.log(t)
    tau *= 1.0 / _NODE_STEP
    j = np.floor(tau)
    np.subtract(j, tau, out=tau)
    tau += 1.0  # 0 at node k + 1, 1 at node k
    j = j.astype(np.intp)
    k_lo = int(j.min())
    j -= k_lo
    ln_lo, rise, bend_lo, bend_hi, good = _node_table(k_lo, j, a, b)
    ok = good.take(j)
    run = np.flatnonzero(ok)
    if run.size < ok.size:
        j, tau, t = j[run], tau[run], t[run]
    # the cubic Hermite start ln z = ln_lo + tau (rise + (1 - tau)
    # ((1 - tau) bend_lo - tau bend_hi)), exact at both nodes with their slopes
    ln_z = bend_hi.take(j)
    ln_z *= tau
    up = 1.0 - tau
    ln_z -= bend_lo.take(j) * up
    ln_z *= up
    del up
    ln_z -= rise.take(j)
    ln_z *= tau
    np.subtract(ln_lo.take(j), ln_z, out=ln_z)
    del tau, j
    y = np.exp(ln_z)
    with np.errstate(all="ignore"):
        big_i = _beta_cdf(np.minimum(y, 1.0 - y), y > 0.5, a, b)
        g = np.subtract(big_i, t)
        g /= t
        np.log1p(g, out=g)  # ln(I / t), without rounding I / t
        gp = np.negative(y)  # y f(y) / I = exp(a ln y + (b - 1) ln(1 - y) - ln B) / I
        np.log1p(gp, out=gp)
        gp *= b - 1.0
        ln_z *= a
        gp += ln_z
        gp -= _log_beta(a, b)
        np.exp(gp, out=gp)
        gp /= big_i
        del big_i, ln_z
        curv = np.subtract(1.0, y)  # g'' / g' = a - (b - 1) y / (1 - y) - g'
        np.divide(y, curv, out=curv)
        curv *= 1.0 - b
        curv += a
        curv -= gp
        g /= gp  # the Newton step r = g / g'
        del gp
        d = np.multiply(g, curv)
        d *= 0.5
        d -= 1.0
        np.divide(g, d, out=d)  # the Halley step in ln z, r / (r g'' / (2 g') - 1)
        del g
        np.abs(curv, out=curv)
        np.maximum(curv, 1.0, out=curv)
        curv *= d
        np.abs(curv, out=curv)
        done = curv <= _STEP_DONE  # False where the step is NaN
        del curv
        np.expm1(d, out=d)
        d *= y
        y += d
        del d
    if run.size == ok.size and done.all():
        return y, ok
    z = np.zeros(ok.shape)
    z[run] = y
    ok[run[~done]] = False
    return z, ok


def _node_table(k_lo, j, a, b):
    """The nodes k_lo + j and k_lo + j + 1 for every interval index in ``j``,
    solved by :func:`_inverse`.  Returns arrays over the intervals j = 0, 1,
    ... : ln y at the lower node j + 1, the rise of ln y to node j, each
    end's slope times the step less that rise, and whether the interval is
    usable (both nodes' probabilities and y normal, y below 1, finite
    slopes).  Intervals no element needs are not usable."""
    used = np.zeros(int(j.max()) + 2, dtype=bool)
    used[j] = True
    used[1:] |= used[:-1]
    nodes = np.flatnonzero(used)
    t_nodes = _scipy().expit(-_NODE_STEP * (nodes + k_lo))
    y_nodes = np.full(used.size, np.nan)
    y_nodes[nodes] = _inverse(t_nodes, a, b)
    t_lo = np.zeros(used.size - 1)  # each interval's lower node probability
    t_lo[nodes[nodes > 0] - 1] = t_nodes[nodes > 0]
    with np.errstate(all="ignore"):
        ln_y = np.log(y_nodes)
        # d ln y / d logit(t) = t (1 - t) / (y f(y)), times the step
        slope = np.full(used.size, np.nan)
        slope[nodes] = _NODE_STEP * t_nodes * (1.0 - t_nodes) * np.exp(
            _log_beta(a, b) - a * ln_y[nodes] - (b - 1.0) * np.log1p(-y_nodes[nodes]))
        # node j + 1 is the lower end of interval j
        rise = ln_y[:-1] - ln_y[1:]
        bend_lo, bend_hi = slope[1:] - rise, slope[:-1] - rise
        good = ((t_lo >= _TINY) & (y_nodes[1:] >= _TINY) & (y_nodes[:-1] < 1.0)
                & np.isfinite(bend_lo) & np.isfinite(bend_hi))
    return ln_y[1:], rise, bend_lo, bend_hi, good


# The Beta cdf kernel (:func:`_beta_cdf`).  Its grid keeps 5 to 16 mantissa
# bits of a node, its series has at most degree 30, and each node's cut-off
# series is at most 2^-55 of the node's I.  Shapes that need a finer grid
# (|a - 1| + |b - 1| above 2^15) are concentrated enough that nearly every
# point would need its own node (a 5e4-point Beta(1e6, 1e6) sample needs
# 2.1e4 nodes at the 22 bits its shapes ask for), so they stay with betainc.
_GRID_BITS = (5, 16)
_MAX_DEGREE = 30
_SERIES_TOL = 2.0**-55
# a node mask spans up to this many keys per point; np.unique sorts wider ranges
_COMPACT_SPAN = 4


@functools.lru_cache(maxsize=1024)
def _cdf_plan(a, b):
    """(shift, degree, tail) of :func:`_beta_cdf` at shapes (a, b), or None
    where ``betainc`` takes every point of both incomplete-beta paths: at
    concentrated shapes (see :data:`_GRID_BITS`) and where the continued
    fraction has no rows (:func:`_fraction_rows`).

    Nodes keep the top ``52 - shift`` bits of the mantissa of the distance
    z to the nearer end of [0, 1], so an element's series variable v is below
    U = 2^(shift - 52).  The integrand factor (1 + e1 v)^(a-1) (1 - e2 v)^(b-1)
    has 0 < e1, e2 <= 1, so its Taylor coefficients are bounded by those of
    (1 - v)^-k, k = |a - 1| + |b - 1|, and the series cut after v^degree
    leaves at most ``tail`` = U sum_{n > degree} C(k + n - 1, n) U^n of the
    integral.  U is the largest power of 2 at most 1/(2k) and 1/32, which
    keeps that majorant near e^(1/2); the degree is the least for which
    ``tail`` times 4 max(a, b, 1) (about the largest z f(y) / I of a node)
    is below 2^-55.
    Where a - 1 and b - 1 are non-negative integers the series ends by
    itself, after v^(a + b - 2), and nothing is cut."""
    k = abs(a - 1.0) + abs(b - 1.0)
    bits = max(_GRID_BITS[0], math.ceil(math.log2(2.0 * k))) if k > 0.5 else _GRID_BITS[0]
    if bits > _GRID_BITS[1] or _fraction_rows(a, b) is None or _fraction_rows(b, a) is None:
        return None
    step = 2.0**-bits
    terms = [1.0]  # C(k + n - 1, n) step^n, summed far beyond where they matter
    for n in range(1, 256):
        terms.append(terms[-1] * (k + n - 1.0) / n * step)
    ratio = 4.0 * max(a, b, 1.0)
    ends = a >= 1.0 and b >= 1.0 and a == int(a) and b == int(b)
    for degree in range(_MAX_DEGREE + 1):
        if ends and degree == a + b - 2.0:
            return 52 - bits, degree, 0.0
        tail = step * math.fsum(terms[degree + 1:])
        if ratio * tail <= _SERIES_TOL:
            return 52 - bits, degree, tail
    return None


def _beta_cdf(z, upper, a, b):
    """I_y(a, b) at y = z, or y = 1 - z where ``upper``, for arrays z in
    [0, 1/2] and ``upper`` of one shape and shapes a, b > 0, by a node-grid
    series; the large-batch path of :func:`_beta_tails` and the cdf of the
    Halley step of :func:`_beta_quantile`.

    Each element adds to the I of a node y_k <= y the integral of the
    density from y_k to y, so the increment never cancels, and the result
    keeps the relative precision of the node's I wherever it lies.  A node
    keeps the top bits of z (see :func:`_cdf_plan`): rounded down where z is
    y, rounded up where it is 1 - y, so y_k and 1 - y_k are both exact
    doubles and |z - z_k| <= 2^(shift - 52) z_k.  With
    v = (y - y_k) / z_k = +-(z - z_k) / z_k,

        inc = f(y_k) z_k int_0^v (1 + e1 s)^(a-1) (1 - e2 s)^(b-1) ds,

    f the Beta(a, b) density, e1 = z_k / y_k and e2 = z_k / (1 - y_k), the
    larger of them 1.  The integrand's Taylor coefficients follow a
    three-term recurrence from its logarithmic derivative; each node's
    coefficients of the integral, times f(y_k) z_k, are one row of a table,
    and every element sums its series by Horner.  Each node's I and
    f(y_k) z_k come from one :func:`_fraction_tails` call over the nodes, and
    only the nodes some element needs are built.  Every value depends on
    its own z and the shapes only: the tables are built element-wise, with
    no reduction across nodes.

    The error is the fraction's at the node plus a few eps: f(y_k) z_k is
    the fraction's power P(y_k), whose exponent is summed in double-double,
    over max(y_k, 1 - y_k).  :func:`_fraction_tails` takes an element whose
    node or node's I is not a normal double or whose series bound is not
    met, and every element where :func:`_cdf_plan` is None; both rules look
    at the element's node and the shapes only, and the fraction's own edge
    rules are those of a small batch.
    """
    shape, z, upper = np.shape(z), np.ravel(z), np.ravel(upper)
    plan = _cdf_plan(float(a), float(b)) if z.size else None
    if plan is None:
        return _fraction_tails(z, upper, a, b, sf=False)[0].reshape(shape)
    shift, degree, tail = plan
    bits = z.view(np.int64)
    key = bits >> shift  # z rounded down to a node ...
    up = (key << shift) != bits
    up &= upper  # ... or up, where z is 1 - y
    del bits
    key += up
    del up
    key <<= 1
    key += upper  # a node is (z_k, whether y_k = 1 - z_k)
    nodes, idx = _compact(key)
    del key
    node_z, scale, base, coef, usable = _cdf_nodes(nodes, shift, degree, tail, a, b)
    # v = +-(z - z_k) / z_k; z - z_k is exact (both within a factor 2)
    v = node_z.take(idx)
    np.subtract(z, v, out=v)
    v *= scale.take(idx)
    out = coef[degree].take(idx)
    for n in range(degree - 1, -1, -1):
        out *= v
        out += coef[n].take(idx)
    out *= v
    out += base.take(idx)
    if not usable.all():
        sel = np.flatnonzero(~usable.take(idx))
        out[sel] = _fraction_tails(z[sel], upper[sel], a, b, sf=False)[0]
    return out.reshape(shape)


def _compact(key):
    """(nodes, idx): the sorted distinct values of an int64 array and each
    element's position among them, by a mask over their range where that is
    short, and by sorting where it is not."""
    lo = int(key.min())
    span = int(key.max()) - lo + 1
    if span > _COMPACT_SPAN * key.size:
        return np.unique(key, return_inverse=True)
    rel = key - lo
    used = np.zeros(span, dtype=bool)
    used[rel] = True
    nodes = np.flatnonzero(used)
    lut = np.cumsum(used, dtype=np.intp)
    lut -= 1
    idx = lut.take(rel)
    nodes += lo
    return nodes, idx


def _cdf_nodes(nodes, shift, degree, tail, a, b):
    """The node table of :func:`_beta_cdf`: each node's z_k, the factor
    +-1/z_k of v (negative where y_k = 1 - z_k), its I, the Horner rows
    (``degree`` + 1, nodes) of f(y_k) z_k c_n / (n + 1), and whether the
    node is usable.  I and the power P(y_k) = y_k^a (1 - y_k)^b / B(a, b)
    are :func:`_fraction_tails`', and f(y_k) z_k = P(y_k) / (1 - z_k)."""
    hi = (nodes & 1).astype(bool)
    z = ((nodes >> 1) << shift).view(float)
    base, _, fac = _fraction_tails(z, hi, a, b, sf=False)
    with np.errstate(all="ignore"):  # subnormal and zero nodes are not used
        far = 1.0 - z
        fac /= far
        usable = (z > _TINY) & (base >= _TINY) & (fac * tail <= _SERIES_TOL * base)
        usable &= np.isfinite(fac)
        ratio = z / far
        e1 = np.where(hi, ratio, 1.0)  # z_k / y_k
        e2 = np.where(hi, 1.0, ratio)  # z_k / (1 - y_k)
        scale = np.where(hi, -1.0, 1.0) / z
    fac[~usable] = e1[~usable] = e2[~usable] = scale[~usable] = base[~usable] = 0.0
    # Taylor coefficients c_n of g(s) = (1 + e1 s)^alpha (1 - e2 s)^beta from
    # (1 + e1 s)(1 - e2 s) g' = (alpha e1 (1 - e2 s) - beta e2 (1 + e1 s)) g:
    # (n + 1) c_{n+1} = (alpha e1 - beta e2 - n (e1 - e2)) c_n
    #                   - e1 e2 (alpha + beta + 1 - n) c_{n-1}
    alpha, beta = a - 1.0, b - 1.0
    lead, both, prod = alpha * e1 - beta * e2, e1 - e2, e1 * e2
    coef = np.empty((degree + 1, nodes.size))
    prev, cur = np.zeros_like(z), fac  # f(y_k) z_k c_{n-1} and f(y_k) z_k c_n
    for n in range(degree + 1):
        np.divide(cur, n + 1.0, out=coef[n])
        if n < degree:
            nxt = (lead - n * both) * cur - (alpha + beta + 1.0 - n) * prod * prev
            prev, cur = cur, nxt / (n + 1.0)
    return z, scale, base, coef, usable


# Wichura's AS241 (PPND16) numerator and denominator coefficients, highest
# degree first: in r = 0.180625 - (u - 1/2)^2 for |u - 1/2| <= 0.425 (central),
# else in r - 1.6 up to r = 5 (near) and r - 5 beyond (far), r = sqrt(-ln min(u, 1 - u))
_PPND16_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_PPND16_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_PPND16_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _ppnd16(coefficients, r, scale=1.0):
    """scale P(r) / Q(r) by Horner, in the order of operations of AS241."""
    num, den = coefficients
    return np.polyval(num, r) * scale / np.polyval(den, r)


def std_normal_quantile(u):
    """z with Phi(z) = u, for u in the open interval (0, 1).

    Wichura's algorithm AS241, PPND16 (Applied Statistics 37:477-484,
    1988), in the order of operations of the standard library's
    ``statistics.NormalDist.inv_cdf`` (the two differ only where numpy's
    and libm's logarithms round apart): relative error below 1e-15 from
    u = 1e-300 to 1 - 1e-16.  Written in numpy so that the interval z of a
    fit imports neither ``scipy.special`` nor ``statistics`` (which imports
    ``decimal``, ``fractions`` and ``random``).  Every branch is evaluated
    at every element, where each stays finite, and each element takes its
    own."""
    u = checked(u, "u", high=1.0)
    q = np.subtract(u, 0.5)
    central = _ppnd16(_PPND16_CENTRAL, 0.180625 - q * q, q)
    r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
    tail = np.where(r <= 5.0, _ppnd16(_PPND16_NEAR, r - 1.6), _ppnd16(_PPND16_FAR, r - 5.0))
    return _ret(np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail)))
