"""Special-function kernel used by every other module.

Mostly thin wrappers over the scipy implementations, each input validated
by :func:`bfw._stable.checked`.  Three kernels do more, the last two private
and taking validated input: :func:`polygamma_gaps` integrates the polygamma
differences that direct subtraction would cancel; :func:`_beta_cdf` sums
the Beta cdf of large batches as a Taylor series from a node of a fixed
grid at or below each point, one ``betainc`` per node, at about a tenth of
``betainc``'s cost per point at the published shapes; and
:func:`_beta_quantile` solves Beta quantiles on the reflected problem, by
a bracketed Halley step on :func:`_beta_cdf` for large batches and by the
series form where the quantile is small.  Both large-batch paths start at
:data:`_LARGE_FROM` points.  Everything is pure and thread-safe; the
per-shape constants of the kernels are cached.

``scipy.special`` costs about twice as much to import as numpy (scipy
1.17 imports ``array_api_compat.numpy``, whose namespace clone imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``), so it is loaded on
first use through :func:`_scipy`, not when ``bfw`` is imported, and
:func:`std_normal_quantile`, the interval z of every fit, does not use it.
Of the CLI commands, ``fit``, ``compare`` and ``eval`` of the
four-parameter model load it with their first kernel call; ``fit`` and
``eval`` of the two-parameter families, ``sample``, ``km`` and ``--help``
never do.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._stable import _TINY, _ret, checked
from .errors import DomainError

__all__ = [
    "log_gamma",
    "polygamma",
    "digamma",
    "trigamma",
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


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    return _ret(_scipy().gammaln(checked(x, "x")))


def polygamma(order, x):
    """Digamma (order 0) or trigamma (order 1) at x > 0."""
    if order not in (0, 1):
        raise DomainError("polygamma supports orders 0 and 1 only")
    arr = checked(x, "x")
    return _ret(_scipy().psi(arr) if order == 0 else _scipy().polygamma(1, arr))


def digamma(x):
    return polygamma(0, x)


def trigamma(x):
    return polygamma(1, x)


def log_beta(p, q):
    """ln B(p, q) for p, q > 0, by ``betaln``, which does not cancel where
    one shape swamps the other as ln Gamma(p) + ln Gamma(q) - ln Gamma(p + q)
    does (at p ~ 2.5e-5, q ~ 2e32 that difference loses every digit)."""
    return _ret(_scipy().betaln(checked(p, "p"), checked(q, "q")))


# three-point Gauss-Legendre nodes and weights on [0, 1]
_GAUSS_NODES = 0.5 + 0.5 * np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])[:, None]
# weights of the psi' and 2 zeta(3, .) rows, one column per node
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0 * np.array([1.0, 2.0])[:, None]
_ZETA_ORDERS = np.array([2.0, 3.0])[:, None, None]  # psi' = zeta(2, .), -psi'' = 2 zeta(3, .)
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
    b, s = np.asarray(b, dtype=float), np.asarray(s, dtype=float)
    shift = b < 1.0
    zeta = _scipy().zeta(_ZETA_ORDERS, b + shift + s * _GAUSS_NODES)
    # an explicit sum over the nodes: a matrix product rounds differently with
    # the number of columns, and each element must get the value it gets alone
    w = _GAUSS_WEIGHTS[:, :, None]
    d_psi, d_tri = s * (w[:, 0] * zeta[:, 0] + w[:, 1] * zeta[:, 1] + w[:, 2] * zeta[:, 2])
    if shift.any():
        with np.errstate(over="ignore"):
            t = (s[shift] / b[shift]) / (b[shift] + s[shift])  # 1/b - 1/(b + s)
            d_psi[shift] += t
            d_tri[shift] += t * (1.0 / b[shift] + 1.0 / (b[shift] + s[shift]))
    huge = b >= _LEADING_FROM
    if huge.any():
        d_psi[huge] = np.log1p(s[huge] / b[huge])
        d_tri[huge] = (s[huge] / b[huge]) / (b[huge] + s[huge])
    return d_psi, d_tri


def reg_inc_beta(y, p, q):
    """Regularized incomplete beta I_y(p, q), the Beta(p, q) CDF at y."""
    ya = checked(y, "y", high=1.0, closed=True)
    return _ret(_scipy().betainc(checked(p, "p"), checked(q, "q"), ya))


def inv_reg_inc_beta(u, p, q):
    """Inverse of ``reg_inc_beta`` in its first argument.

    Endpoints map to themselves: u = 0 -> 0 and u = 1 -> 1.
    """
    ua = checked(u, "u", high=1.0, closed=True)
    return _ret(_scipy().betaincinv(checked(p, "p"), checked(q, "q"), ua))


# Both large-batch kernels, :func:`_beta_cdf` and :func:`_beta_quantile`, run
# from this many points on; below it each point is one betainc or betaincinv.
# Measured crossover (2-vCPU x86_64 VM, median of 41 interleaved calls): at
# the published shapes the cdf kernel breaks even with betainc near 550
# points (0.40 against 0.66 ms at 1024) and the Halley quantile with
# betaincinv near 800 (0.95 against 1.19 ms); at (2, 2) the quantile near 700
# (0.52 against 0.75 ms at 1024), while the cdf kernel costs 0.09 ms more
# than betainc's closed form at 1024 points and breaks even near 2500.
_LARGE_FROM = 1024

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


def _beta_quantile(u, p, q, log_beta):
    """The Beta(p, q) quantile of an array u in (0, 1) as ``(v, upper)``: v
    is y with I_y(p, q) = u, or 1 - y where ``upper``.  ``log_beta`` is
    ln B(p, q).

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
            v[side] = _inverse(t, a, b, log_beta)
            continue
        z, ok = _halley_quantile(t, a, b, log_beta)
        ok &= t > _series_top(a, b, log_beta)
        if not ok.all():
            z[~ok] = _inverse(t[~ok], a, b, log_beta)
        v[side] = z
    swap = upper & (v > 0.5)
    if swap.any():
        v[swap] = _inverse(u[swap], p, q, log_beta)
        upper &= ~swap
    return v, upper


def _inverse(t, a, b, log_beta):
    """z with I_z(a, b) = t for an array t in [0, 1]: ``betaincinv``, or at
    or below :func:`_series_top` the root of the series form (DLMF 8.17.8)

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
    near = t <= _series_top(a, b, log_beta)
    if not near.any():
        return _scipy().betaincinv(a, b, t)
    z = np.empty_like(t)
    far = ~near
    if far.any():
        z[far] = _scipy().betaincinv(a, b, t[far])
    z0 = _leading_root(t[near], a, _log_norm(a, b, log_beta))
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
def _series_top(a, b, log_beta):
    """The largest t that :func:`_inverse` takes to the series root: the
    leading term z0^a / (a B(a, b)) at the largest z0 the series admits."""
    grow = (a + b) / (a + 1.0)
    z0 = min(_SERIES_FROM * a / (b + grow), _SERIES_RATIO / max(1.0, grow))
    return math.exp(a * math.log(z0) - _log_norm(a, b, log_beta))


def _leading_root(t, a, log_norm):
    """(t a B)^(1/a) for an array t, with ``log_norm`` = ln(a B), as
    exp((ln t + ln(a B)) / a), the large part of ln t kept exact: for
    t = m 2^e it is 2^(e/a) exp((ln m + ln(a B)) / a), e/a split into a
    double and its remainder by Dekker's product, so the rounding of ~745/a
    never reaches the result; a few eps remain."""
    m, e = np.frexp(t)
    e = e.astype(float)
    q = e / a
    hi, lo = _two_product(q, a)
    rest = (e - hi) - lo  # e - q a, exactly up to the last rounding
    with np.errstate(divide="ignore"):
        return np.exp2(q) * np.exp((rest * _LN2 + np.log(m) + log_norm) / a)


@functools.lru_cache(maxsize=1024)
def _log_norm(a, b, log_beta):
    """ln(a B(a, b)), given ``log_beta`` = scipy's ``betaln(a, b)``, to a
    few eps where one shape is 4 or more times the other.

    There ``betaln`` cancels ln Gamma terms of the larger shape: it is
    4.4e-13 off at (5, 300) and 1.3e-10 at (10, 1e5).  With s <= l the
    shapes, DLMF 8.17.20 gives y^s (1 - y)^l / (s B) = I_y(s, l) - I_y(s + 1, l),
    which at y = s / (s + l) is the larger part of I_y(s, l), so
    ln(s B) = s ln y + l ln(1 - y) - ln(that difference), whose terms are
    all small: ln B so formed is 3.1e-16 off at (5, 300) and 7.7e-15 at
    (10, 1e5).  Where the shapes are within a factor 4 the difference
    cancels as s grows (1.9e-12 off at (1e4, 1e4), where ``betaln`` is
    6.4e-14 off), and ln a + ``log_beta`` is kept.
    """
    s, l = min(a, b), max(a, b)
    if l >= 4.0 * s:
        y = s / (s + l)
        head = _scipy().betainc(s, l, y) - _scipy().betainc(s + 1.0, l, y)
        if head > 0.0:
            scaled = s * math.log(y) + l * math.log1p(-y) - math.log(head)
            return scaled if a == s else scaled - math.log(s) + math.log(a)
    return math.log(a) + log_beta


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


def _halley_quantile(t, a, b, log_beta):
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
    ln_lo, rise, bend_lo, bend_hi, good = _node_table(k_lo, j, a, b, log_beta)
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
        big_i = _beta_cdf(y, a, b, log_beta)
        g = np.subtract(big_i, t)
        g /= t
        np.log1p(g, out=g)  # ln(I / t), without rounding I / t
        gp = np.negative(y)  # y f(y) / I = exp(a ln y + (b - 1) ln(1 - y) - ln B) / I
        np.log1p(gp, out=gp)
        gp *= b - 1.0
        ln_z *= a
        gp += ln_z
        gp -= log_beta
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


def _node_table(k_lo, j, a, b, log_beta):
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
    y_nodes[nodes] = _inverse(t_nodes, a, b, log_beta)
    t_lo = np.zeros(used.size - 1)  # each interval's lower node probability
    t_lo[nodes[nodes > 0] - 1] = t_nodes[nodes > 0]
    with np.errstate(all="ignore"):
        ln_y = np.log(y_nodes)
        # d ln y / d logit(t) = t (1 - t) / (y f(y)), times the step
        slope = np.full(used.size, np.nan)
        slope[nodes] = _NODE_STEP * t_nodes * (1.0 - t_nodes) * np.exp(
            log_beta - a * ln_y[nodes] - (b - 1.0) * np.log1p(-y_nodes[nodes]))
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
# betainc loses digits where its result nears underflow (at (300, 5): 35 ulp
# at 1e-300, 4.8e4 ulp at 1e-303, 3 ulp from 1e-295 up), so a node whose I
# is below this is not used, and its elements are betainc's
_NODE_FLOOR = 2.0**-960


@functools.lru_cache(maxsize=1024)
def _cdf_plan(a, b):
    """(shift, degree, tail) of :func:`_beta_cdf` at shapes (a, b), or None
    where ``betainc`` takes every point (see :data:`_GRID_BITS`).

    Nodes keep the top ``52 - shift`` bits of the mantissa of the distance
    z to the nearer end of [0, 1], so an element's series variable v is below
    U = 2^(shift - 52).  The integrand factor (1 + e1 v)^(a-1) (1 - e2 v)^(b-1)
    has 0 < e1, e2 <= 1, so its Taylor coefficients are bounded by those of
    (1 - v)^-k, k = |a - 1| + |b - 1|, and the series cut after v^degree
    leaves at most ``tail`` = U sum_{n > degree} C(k + n - 1, n) U^n of the
    integral.  U is the largest power of 2 at most 1/(2k) and 1/32, which
    keeps that majorant near e^(1/2); the degree is the least for which ``tail`` times
    4 max(a, b, 1) (about the largest z f(y) / I of a node) is below 2^-55.
    Where a - 1 and b - 1 are non-negative integers the series ends by
    itself, after v^(a + b - 2), and nothing is cut."""
    k = abs(a - 1.0) + abs(b - 1.0)
    bits = max(_GRID_BITS[0], math.ceil(math.log2(2.0 * k))) if k > 0.5 else _GRID_BITS[0]
    if bits > _GRID_BITS[1]:
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


def _beta_cdf(y, a, b, log_beta):
    """I_y(a, b) for an array y in [0, 1], shapes a, b > 0 and ``log_beta``
    = ln B(a, b), by a node-grid series; the large-batch path of
    :func:`bfw.core.bfw_cdf` and :func:`bfw.core.bfw_survival` and the cdf of
    the Halley step of :func:`_beta_quantile`.

    Each element adds to the I of a node y_k <= y the integral of the
    density from y_k to y, so the increment never cancels, and the result
    keeps the relative precision of the node's I wherever it lies.  A node
    keeps the top bits of z = min(y, 1 - y) (see :func:`_cdf_plan`): below
    1/2 the bits of y rounded down, above it those of 1 - y rounded up, so
    y_k and 1 - y_k are both exact doubles and y - y_k <= 2^(shift - 52) z_k.
    With v = (y - y_k) / z_k,

        inc = f(y_k) z_k int_0^v (1 + e1 s)^(a-1) (1 - e2 s)^(b-1) ds,

    f the Beta(a, b) density, e1 = z_k / y_k and e2 = z_k / (1 - y_k), the
    larger of them 1.  The integrand's Taylor coefficients follow a
    three-term recurrence from its logarithmic derivative; each node's
    coefficients of the integral, times f(y_k) z_k, are one row of a table,
    and every element sums its series by Horner.  Each node's I comes from
    one ``betainc``, and only the nodes some element needs are built.  Every
    value depends on its own y and the shapes only: the tables are built
    element-wise, with no reduction across nodes.

    The error is the node's ``betainc`` error plus that of
    f(y_k) z_k = exp(phi), about |phi| eps / 2 of the increment, and a few
    eps; ln B is :func:`_log_norm`'s.  ``betainc`` takes an element whose
    node is subnormal, whose node's I is below :data:`_NODE_FLOOR` or whose
    series bound is not met, and every element at concentrated shapes
    (:data:`_GRID_BITS`); both rules look at the element's node and the
    shapes only.
    """
    y = np.asarray(y, dtype=float)
    plan = _cdf_plan(float(a), float(b)) if y.size else None
    if plan is None:
        return _scipy().betainc(a, b, y)
    shape, y = y.shape, y.ravel()
    shift, degree, tail = plan
    z = np.subtract(1.0, y)  # exact where y >= 1/2, the only place it is kept
    np.minimum(y, z, out=z)
    bits = z.view(np.int64)
    key = bits >> shift  # z rounded down to a node ...
    hi = y > 0.5
    up = (key << shift) != bits
    up &= hi  # ... or up, where z is 1 - y
    del z, bits
    key += up
    del up
    key <<= 1
    key += hi  # a node is (z_k, whether y_k = 1 - z_k)
    del hi
    nodes, idx = _compact(key)
    del key
    node_y, scale, base, coef, usable = _cdf_nodes(nodes, shift, degree, tail, a, b, log_beta)
    # v = (y - y_k) / z_k; y - y_k is exact (both within a factor 2, or both in [1/2, 1])
    v = node_y.take(idx)
    np.subtract(y, v, out=v)
    v *= scale.take(idx)
    out = coef[degree].take(idx)
    for n in range(degree - 1, -1, -1):
        out *= v
        out += coef[n].take(idx)
    out *= v
    out += base.take(idx)
    if not usable.all():
        sel = np.flatnonzero(~usable.take(idx))
        out[sel] = _scipy().betainc(a, b, y[sel])
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


def _cdf_nodes(nodes, shift, degree, tail, a, b, log_beta):
    """The node table of :func:`_beta_cdf`: each node's y_k, the factor
    1/z_k of v, its I, the Horner rows (``degree`` + 1, nodes) of
    f(y_k) z_k c_n / (n + 1), and whether the node is usable."""
    hi = (nodes & 1).astype(bool)
    z = ((nodes >> 1) << shift).view(float)
    node_y = np.where(hi, 1.0 - z, z)  # exact: a node above 1/2 is a multiple of 2^-53
    base = _scipy().betainc(a, b, node_y)
    with np.errstate(all="ignore"):  # subnormal and zero nodes are not used
        ln_z, ln_far = np.log(z), np.log1p(-z)
        ln_y, ln_1y = np.where(hi, ln_far, ln_z), np.where(hi, ln_z, ln_far)
        # f(y_k) z_k = exp(phi), the one factor whose rounding reaches the result
        log_beta = _log_norm(a, b, log_beta) - math.log(a)
        fac = np.exp((a - 1.0) * ln_y + (b - 1.0) * ln_1y + ln_z - log_beta)
        usable = (z > _TINY) & (base >= _NODE_FLOOR) & (fac * tail <= _SERIES_TOL * base)
        usable &= np.isfinite(fac)
        ratio = z / (1.0 - z)
        e1 = np.where(hi, ratio, 1.0)  # z_k / y_k
        e2 = np.where(hi, 1.0, ratio)  # z_k / (1 - y_k)
        scale = 1.0 / z
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
    return node_y, scale, base, coef, usable


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
