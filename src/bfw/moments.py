"""Raw moments, summary shape measures, and the moment generating function.

Every moment-like quantity is an integral of weight(x) f(x) over (0, inf).
In t = ln x the integrand is analytic and decays double-exponentially at
both ends (its logarithm falls like -p beta e^{-t} on the left and like
-q e^{alpha e^t} on the right), so all moments and the MGF exist for every
parameter set and every real t, and the plain trapezoid rule in t converges
geometrically.

One call integrates several weights on one grid.  A uniform scan of the
log-integrand finds the range outside which every weighted integrand has
fallen below e^-745 of its peak.  The scan nodes over that range, from one
step outside the outermost alive node to one step outside the other, are
the first trapezoid level; a level of fewer than 64 intervals is halved
without a test first.  The step is then halved, reusing the old nodes,
until successive levels agree to 1e-10 relative for every weight, so a
quadrature that converges at its first halving evaluates the density
twice: once on the scan, once on the new midpoints.  When the budget of
``_QUAD_SUBDIVISIONS`` intervals runs out first,
:class:`QuadratureAccuracyError` is raised instead of a doubtful number.
This rule is the only moment method: no series expansion is offered.

The density comes from :func:`bfw.core.bfw_log_pdf`, whose beta normalizer
ln B(p, q) is computed once per parameter set
(:attr:`bfw.core.BFWParams.log_beta`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import bfw_log_pdf
from .errors import DomainError, QuadratureAccuracyError
from .flexible_weibull import _x_at_exponent

__all__ = [
    "MomentSummary",
    "raw_moment_quadrature",
    "central_moment_quadrature",
    "moment_summary",
    "mgf",
]

_QUAD_SUBDIVISIONS = 16384  # budget: intervals of the finest trapezoid level
_QUAD_REL_TARGET = 1e-10
_LOG_CUT = 745.0  # e^-745 is below the smallest positive double
_LOG_X_LIMIT = 345.0  # |ln x| up to which x^2 and 1/x^2 stay finite
_SCAN_POINTS = 128
_SCAN_STEPS = np.arange(float(_SCAN_POINTS))
_SCAN_WIDENINGS = 8
_TESTED_INTERVALS = 64  # fewest intervals of the coarser level a convergence test compares


@dataclass(frozen=True)
class _Quadrature:
    values: np.ndarray  # one integral per weight
    rel_errors: np.ndarray  # last level difference over the integral of |integrand|
    evaluations: int  # density points, scan included


def _log_xf(x, t, params):
    """ln(x f(x)) at x = e^t, the density part of every integrand in t."""
    return bfw_log_pdf(x, params) + t


def _support(params, weight):
    """The scan nodes that bound every weighted integrand above e^-745 of its
    largest scanned value, with ln(x f(x)) at each: the quadrature's first
    level.

    The scan is uniform in t = ln x.  It starts where the exponent w has
    reached -1490/p on the left and q e^w = 1490 + 3p on the right, where the
    density alone has fallen by several hundred, and widens while an end node
    is still above the cut.  Both tails decay monotonically, so the nodes one
    step outside the outermost ones above the cut bound every point above it;
    the returned nodes run from one to the other.
    """
    p, q = params.p, params.q
    w_lo = -2.0 * _LOG_CUT / p + min(0.0, math.log(p / q))
    w_hi = math.log((2.0 * _LOG_CUT + 3.0 * p) / q)
    evaluations = 0
    for _ in range(_SCAN_WIDENINGS):
        lo, hi = (min(max(float(v), -_LOG_X_LIMIT), _LOG_X_LIMIT)
                  for v in np.log(_x_at_exponent(np.array([w_lo, w_hi]), params)))
        t = lo + (hi - lo) / (_SCAN_POINTS - 1) * _SCAN_STEPS
        x = np.exp(t)
        log_xf = _log_xf(x, t, params)
        evaluations += t.size
        logs = log_xf + weight(x, t)[0]
        peak = logs.max(axis=1)
        alive = np.flatnonzero(np.any(logs > peak[:, None] - _LOG_CUT, axis=0))
        if alive.size == 0:  # every scanned value is -inf or NaN
            raise QuadratureAccuracyError(
                "no scanned value of the integrand is above its cut",
                estimate=math.nan,
                error_bound=math.inf,
            )
        left_open, right_open = alive[0] == 0, alive[-1] == t.size - 1
        if not (left_open or right_open):
            keep = slice(alive[0] - 1, alive[-1] + 2)
            return t[keep], log_xf[keep], evaluations
        if left_open:
            w_lo *= 4.0
        if right_open:
            w_hi = min(w_hi + 2.0, 700.0)
    raise QuadratureAccuracyError(
        "the integrand stays above its cut at an end of the representable range",
        estimate=math.nan,
        error_bound=math.inf,
    )


def _relative(error, scale):
    """Error over the integral of |integrand|, or the error itself where that is 0."""
    return error / np.where(scale > 0.0, scale, 1.0)


def _ln_x_quadrature(params, weight, first_level_weight=None):
    """Integrals of weight_k(x) f(x) over (0, inf) by the trapezoid rule in ln x.

    ``weight(x, t)`` returns ``(ln|weight|, sign)`` with one row per weight
    (``t = ln x``); ``sign`` is None for positive weights.

    The first level is the alive part of the support scan, halved without a
    test while it has fewer than ``_TESTED_INTERVALS`` intervals.
    ``first_level_weight(x, log_xf)``, when given, is called once with that
    level's nodes and ln(x f) and returns the weight used on every level;
    ``weight`` then only sets the support.  The step is halved, reusing the
    old nodes, until successive levels differ by at most 1e-10 of the
    integral of |weight| f for every weight, which for positive weights is a
    purely relative target.  Raises :class:`QuadratureAccuracyError`,
    carrying the worst weight's estimate and absolute error bound, when the
    next level would exceed ``_QUAD_SUBDIVISIONS`` intervals first; with no
    room for a second level, the bound compares the first level with the
    rule on every other of its nodes.
    """
    t, log_xf, evaluations = _support(params, weight)
    n = t.size - 1
    while n < _TESTED_INTERVALS and 2 * n <= _QUAD_SUBDIVISIONS:
        mid = 0.5 * (t[:-1] + t[1:])
        between = np.arange(1, n + 1)
        log_xf = np.insert(log_xf, between, _log_xf(np.exp(mid), mid, params))
        t = np.insert(t, between, mid)
        evaluations += n
        n *= 2
    x = np.exp(t)
    if first_level_weight is not None:
        weight = first_level_weight(x, log_xf)
    log_abs, sign = weight(x, t)
    peak = (log_xf + log_abs).max(axis=1)

    def scaled(log_xf, log_abs, sign):
        absolute = np.exp(log_xf + log_abs - peak[:, None])
        return (absolute if sign is None else absolute * sign), absolute

    lo, h = t[0], (t[-1] - t[0]) / n
    # the end nodes lie below the scan's cut, so the trapezoid's end weights do not matter
    nodes, node_absolute = scaled(log_xf, log_abs, sign)
    signed, absolute = nodes.sum(axis=1), node_absolute.sum(axis=1)
    if 2 * n > _QUAD_SUBDIVISIONS:  # no room for a second level: compare every other node
        error = np.abs(signed - 2.0 * nodes[:, ::2].sum(axis=1)) * h
        rel_errors = _relative(error, h * absolute)
    converged = False
    while not converged and 2 * n <= _QUAD_SUBDIVISIONS:
        mid = lo + h * (np.arange(n) + 0.5)
        x = np.exp(mid)
        new_signed, new_absolute = (
            v.sum(axis=1) for v in scaled(_log_xf(x, mid, params), *weight(x, mid))
        )
        evaluations += n
        error = np.abs(new_signed - signed) * (h / 2.0)
        signed, absolute = signed + new_signed, absolute + new_absolute
        n, h = 2 * n, h / 2.0
        scale = h * absolute
        rel_errors = _relative(error, scale)
        converged = np.all((rel_errors <= _QUAD_REL_TARGET) & (scale > 0.0))
    with np.errstate(over="ignore"):  # a moment beyond double range is inf
        values = np.exp(peak) * h * signed
        bounds = np.exp(peak) * error
    if not converged:
        k = int(np.argmax(rel_errors))
        estimate, bound = float(values[k]), float(bounds[k])
        raise QuadratureAccuracyError(
            f"integration stalled at estimate {estimate!r} with error bound {bound!r}",
            estimate=estimate,
            error_bound=bound,
        )
    return _Quadrature(values=values, rel_errors=rel_errors, evaluations=evaluations)


def _moment_order(r):
    if r < 1 or r != int(r):
        raise DomainError("moment order r must be a positive integer")
    return int(r)


def _powers(orders):
    """Weights x^r for each order r, as ln x^r = r t."""
    orders = np.asarray(orders, dtype=float)[:, None]
    return lambda x, t: (orders * t, None)


def raw_moment_quadrature(r, params):
    """E[X^r] for integer r >= 1 by the trapezoid rule in ln x.

    The result carries at most 1e-10 relative error by the rule's own
    estimate; otherwise :class:`QuadratureAccuracyError` is raised.
    """
    return float(_ln_x_quadrature(params, _powers([_moment_order(r)])).values[0])


def central_moment_quadrature(r, params, center):
    """E[(X - center)^r] with the signed weight (x - center)^r on the same rule.

    The error target is 1e-10 of E[|X - center|^r], the scale at which the
    cancellation between both sides of the center is resolved.
    """
    r = _moment_order(r)
    center = float(center)
    if not math.isfinite(center):
        raise DomainError("center must be finite")

    def weight(x, t):
        d = x - center
        with np.errstate(divide="ignore"):
            return r * np.log(np.abs(d))[None, :], np.sign(d)[None, :] ** r

    return float(_ln_x_quadrature(params, weight).values[0])


def mgf(t, params):
    """M(t) = E[e^{tX}], defined for every finite real t; M(0) = 1."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    return float(_ln_x_quadrature(params, lambda x, _: (t * x[None, :], None)).values[0])


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    raw_moments: tuple[float, float, float, float]
    evaluations: int = 0  # density points: the support scan, any untested halvings, every level
    error_bound: float = math.nan  # largest relative error estimate of the integrals


_RAW_ORDERS = np.arange(5.0)[:, None]
_CENTRAL_ORDERS = np.arange(2.0, 5.0)[:, None]
_SIGNED_ROW = (np.arange(8) == 6)[:, None]  # (x - c)^3


def _raw_and_central(center):
    """Weights x^0..x^4 and (x - center)^2..(x - center)^4, the odd one signed."""

    def weight(x, t):
        d = x - center
        log_abs = np.empty((8, x.size))
        np.multiply(_RAW_ORDERS, t, out=log_abs[:5])
        with np.errstate(divide="ignore"):
            np.multiply(_CENTRAL_ORDERS, np.log(np.abs(d)), out=log_abs[5:])
        return log_abs, np.where(_SIGNED_ROW, np.sign(d), 1.0)

    return weight


def moment_summary(params):
    """First four raw moments with mean/variance/skewness/kurtosis.

    One quadrature integrates the raw weights x^r, r = 0..4, and the central
    weights (x - c)^k, k = 2..4, about the first level's mean c, on one
    density grid per level.  The central moments about the mean follow from
    those about c by the binomial formula; as |mean - c| is a small part of
    sigma, neither step cancels, also where sigma is many orders below the
    mean.  The variance and the shape measures are those of the density
    normalized by its integral (x^0), so a rounding error of ln B(p, q),
    about 1e-7 at p = q = 1e7, does not shift the mean that the binomial
    formula subtracts.  The kurtosis is the fourth central moment over
    sigma^4.
    """
    center = math.nan

    def about_first_mean(x, log_xf):
        nonlocal center
        mass = np.exp(log_xf - log_xf.max())
        center = float(mass @ x / mass.sum())  # the end nodes lie below the cut
        return _raw_and_central(center)

    quad = _ln_x_quadrature(params, _powers([1, 2, 3, 4]), about_first_mean)
    m0, m1, m2, m3, m4, c2, c3, c4 = (float(v) for v in quad.values)
    c2, c3, c4 = c2 / m0, c3 / m0, c4 / m0
    d = m1 / m0 - center
    variance = c2 - d * d
    sigma = math.sqrt(variance)
    third = c3 - 3.0 * d * c2 + 2.0 * d**3
    fourth = c4 - 4.0 * d * c3 + 6.0 * d * d * c2 - 3.0 * d**4
    return MomentSummary(
        mean=m1,
        variance=variance,
        skewness=third / sigma**3,
        kurtosis=fourth / sigma**4,
        raw_moments=(m1, m2, m3, m4),
        evaluations=quad.evaluations,
        error_bound=float(quad.rel_errors.max()),
    )
