"""Raw moments, summary shape measures, and the moment generating function.

Every moment-like quantity is an integral of weight(x) f(x) over (0, inf).
In t = ln x the integrand is analytic and decays double-exponentially at
both ends (its logarithm falls like -p beta e^{-t} on the left and like
-q e^{alpha e^t} on the right), so all moments and the MGF exist for every
parameter set and every real t, and the plain trapezoid rule in t converges
geometrically.

One call integrates several weights on one grid.  A coarse scan of the
log-integrand finds the range outside which every weighted integrand has
fallen below e^-745 of its peak; the step is then halved, reusing the old
nodes, until successive levels agree to 1e-10 relative for every weight.
The density is evaluated once per level, on the whole grid.  When the
budget of ``_QUAD_SUBDIVISIONS`` intervals runs out first,
:class:`QuadratureAccuracyError` is raised instead of a doubtful number.
This rule is the only moment method: no series expansion is offered.
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
_SCAN_WIDENINGS = 8
_FIRST_LEVEL = 128


@dataclass(frozen=True)
class _Quadrature:
    values: np.ndarray  # one integral per weight
    rel_errors: np.ndarray  # last level difference over the integral of |integrand|
    evaluations: int  # density points, scan included


def _log_integrand(t, params, weight):
    """ln|weight(x) f(x) x| at x = e^t, one row per weight, and the sign of
    the weight (None when every weight is positive)."""
    x = np.exp(t)
    log_abs, sign = weight(x, t)
    return bfw_log_pdf(x, params) + t + log_abs, sign


def _support(params, weight):
    """Range [lo, hi] in t = ln x outside which every weighted integrand is
    below e^-745 of its largest scanned value.

    The scan is uniform in t.  It starts where the exponent w has reached
    -1490/p on the left and q e^w = 1490 + 3p on the right, where the density
    alone has fallen by several hundred, and widens while an end node is
    still above the cut.  Both tails decay monotonically, so the nodes one
    step outside the outermost ones above the cut bound every point above it.
    """
    p, q = params.p, params.q
    w_lo = -2.0 * _LOG_CUT / p + min(0.0, math.log(p / q))
    w_hi = math.log((2.0 * _LOG_CUT + 3.0 * p) / q)
    evaluations = 0
    for _ in range(_SCAN_WIDENINGS):
        ends = np.clip(np.log(_x_at_exponent(np.array([w_lo, w_hi]), params)),
                       -_LOG_X_LIMIT, _LOG_X_LIMIT)
        t = np.linspace(ends[0], ends[1], _SCAN_POINTS)
        logs, _ = _log_integrand(t, params, weight)
        evaluations += t.size
        peak = logs.max(axis=1)
        alive = np.flatnonzero(np.any(logs > peak[:, None] - _LOG_CUT, axis=0))
        left_open, right_open = alive[0] == 0, alive[-1] == t.size - 1
        if not (left_open or right_open):
            return t[alive[0] - 1], t[alive[-1] + 1], peak, evaluations
        if left_open:
            w_lo *= 4.0
        if right_open:
            w_hi = min(w_hi + 2.0, 700.0)
    raise QuadratureAccuracyError(
        "the integrand stays above its cut at an end of the representable range",
        estimate=math.nan,
        error_bound=math.inf,
    )


def _ln_x_quadrature(params, weight):
    """Integrals of weight_k(x) f(x) over (0, inf) by the trapezoid rule in ln x.

    ``weight(x, t)`` returns ``(ln|weight|, sign)`` with one row per weight
    (``t = ln x``); ``sign`` is None for positive weights.  The step is halved
    until successive levels differ by at most 1e-10 of the integral of
    |weight| f for every weight, which for positive weights is a purely
    relative target.  Raises :class:`QuadratureAccuracyError`, carrying the
    worst weight's estimate and absolute error bound, when the next level
    would exceed ``_QUAD_SUBDIVISIONS`` intervals first.
    """
    lo, hi, peak, evaluations = _support(params, weight)

    def sums(t, node_weights=1.0):
        logs, sign = _log_integrand(t, params, weight)
        absolute = np.exp(logs - peak[:, None]) * node_weights
        signed = absolute if sign is None else absolute * sign
        return signed.sum(axis=1), absolute.sum(axis=1)

    n = max(1, min(_FIRST_LEVEL, _QUAD_SUBDIVISIONS // 2))
    h = (hi - lo) / n
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    signed, absolute = sums(lo + h * np.arange(n + 1), ends)
    evaluations += n + 1
    while True:
        new_signed, new_absolute = sums(lo + h * (np.arange(n) + 0.5))
        evaluations += n
        error = np.abs(new_signed - signed) * (h / 2.0)
        signed, absolute = signed + new_signed, absolute + new_absolute
        n, h = 2 * n, h / 2.0
        scale = h * absolute
        rel_errors = error / np.where(scale > 0.0, scale, 1.0)
        converged = np.all((rel_errors <= _QUAD_REL_TARGET) & (scale > 0.0))
        if converged or 2 * n > _QUAD_SUBDIVISIONS:
            break
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
    evaluations: int = 0  # density points used by the quadrature
    error_bound: float = math.nan  # largest relative error estimate of the raw moments


def moment_summary(params):
    """First four raw moments with mean/variance/skewness/kurtosis.

    All four raw moments come from one density grid per quadrature level.
    The kurtosis is the fourth central moment over sigma^4.
    """
    quad = _ln_x_quadrature(params, _powers([1, 2, 3, 4]))
    m1, m2, m3, m4 = (float(v) for v in quad.values)
    variance = m2 - m1 * m1
    sigma = math.sqrt(variance)
    skewness = (m3 - 3.0 * m1 * m2 + 2.0 * m1**3) / sigma**3
    kurtosis = (m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4) / sigma**4
    return MomentSummary(
        mean=m1,
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        raw_moments=(m1, m2, m3, m4),
        evaluations=quad.evaluations,
        error_bound=float(quad.rel_errors.max()),
    )
