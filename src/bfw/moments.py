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

The closed-form triple series (regularized with finite-part gamma values at
its poles) is retained purely as a measured diagnostic.  Nothing guarantees
it converges, let alone to the quadrature value, so it reports its partial
sums and lets the caller compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import rgamma

from . import special
from .core import bfw_log_pdf
from .errors import DomainError, QuadratureAccuracyError, SeriesTermOverflowError

__all__ = [
    "MomentSummary",
    "SeriesTruncation",
    "SeriesEvaluation",
    "raw_moment_quadrature",
    "central_moment_quadrature",
    "raw_moment_series",
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


def _x_at_exponent(w, params):
    """The x > 0 at which the flexible Weibull exponent alpha x - beta/x is w."""
    disc = np.sqrt(w * w + 4.0 * params.alpha * params.beta)
    with np.errstate(divide="ignore"):
        return np.where(w >= 0.0, (w + disc) / (2.0 * params.alpha), 2.0 * params.beta / (disc - w))


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


def moment_summary(params, kurtosis_variant="central"):
    """First four raw moments with mean/variance/skewness/kurtosis.

    All four raw moments come from one density grid per quadrature level.
    ``kurtosis_variant="central"`` is the standard fourth central moment over
    sigma^4.  The ``"second_moment"`` variant replaces E[X^3] with E[X^2] in
    the cross term; it is kept only for comparison against sources that
    print the expression that way, and is not a central moment.
    """
    if kurtosis_variant not in ("central", "second_moment"):
        raise DomainError("kurtosis_variant must be 'central' or 'second_moment'")
    quad = _ln_x_quadrature(params, _powers([1, 2, 3, 4]))
    m1, m2, m3, m4 = (float(v) for v in quad.values)
    variance = m2 - m1 * m1
    sigma = math.sqrt(variance)
    skewness = (m3 - 3.0 * m1 * m2 + 2.0 * m1**3) / sigma**3
    if kurtosis_variant == "central":
        kurtosis = (m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4) / sigma**4
    else:
        kurtosis = (m4 - 4.0 * m1 * m2 + 6.0 * m1**2 * m2 - 3.0 * m1**4) / sigma**4
    return MomentSummary(
        mean=m1,
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        raw_moments=(m1, m2, m3, m4),
        evaluations=quad.evaluations,
        error_bound=float(quad.rel_errors.max()),
    )


@dataclass(frozen=True)
class SeriesTruncation:
    """Index caps for the triple moment series.

    ``tail_bound`` is filled in by the evaluator with the magnitude of the
    last included shell (cells of equal n+m+l).
    """

    n_max: int
    m_max: int
    l_max: int
    tail_bound: float = math.nan

    def __post_init__(self):
        for name in ("n_max", "m_max", "l_max"):
            value = getattr(self, name)
            if value < 1 or value != int(value):
                raise DomainError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class SeriesEvaluation:
    """Truncated series value plus the diagnostics needed to judge it."""

    value: float
    partial_sums: tuple[float, ...]
    last_shell_magnitude: float
    truncation: SeriesTruncation

    @property
    def stabilized(self) -> bool:
        """Whether the final shell moved the sum by under 1e-10 relative."""
        return self.last_shell_magnitude < 1e-10 * max(abs(self.value), 1e-300)


def _series_term(r, params, n, m, l):
    """One cell of the triple sum, evaluated through its log magnitude."""
    rg = rgamma(params.p - n)  # zero at the poles of Gamma(p - n)
    if rg == 0.0:
        return 0.0
    bracket = params.alpha * special.neutrix_gamma(-(r + l + 1)) + special.neutrix_gamma(
        -(r + l - 1)
    ) / ((m + 1.0) ** 2 * params.beta)
    if bracket == 0.0:
        return 0.0
    log_mag = (
        (m * math.log(params.q + n) if m else 0.0)
        + (r + 2 * l + 1) * math.log(m + 1.0)
        + l * math.log(params.alpha)
        + (r + l + 1) * math.log(params.beta)
        - special.log_gamma(n + 1.0)
        - special.log_gamma(m + 1.0)
        - special.log_gamma(l + 1.0)
        + math.log(abs(rg))
        + math.log(abs(bracket))
    )
    sign = (-1.0) ** (n + m) * math.copysign(1.0, rg) * math.copysign(1.0, bracket)
    try:
        return sign * math.exp(log_mag)
    except OverflowError:
        return sign * math.inf


def raw_moment_series(r, params, trunc):
    """Triple-series expansion of E[X^r], truncated at the given index caps.

    Cells are accumulated shell by shell (constant n+m+l) and the running
    totals are returned so divergence is visible.  No convergence claim is
    made; compare against :func:`raw_moment_quadrature`.

    Raises :class:`SeriesTermOverflowError` naming the first (n, m, l) cell
    whose value leaves double range.
    """
    if r < 1 or r != int(r):
        raise DomainError("moment order r must be a positive integer")
    r = int(r)
    prefactor = math.exp(special.log_gamma(params.p + params.q) - special.log_gamma(params.q))
    partials = []
    total = 0.0
    last_shell = 0.0
    for s in range(trunc.n_max + trunc.m_max + trunc.l_max + 1):
        shell = 0.0
        for n in range(min(s, trunc.n_max) + 1):
            for m in range(min(s - n, trunc.m_max) + 1):
                l = s - n - m
                if l > trunc.l_max:
                    continue
                term = _series_term(r, params, n, m, l)
                if not math.isfinite(term):
                    raise SeriesTermOverflowError(
                        f"series cell (n={n}, m={m}, l={l}) overflows double precision",
                        cell=(n, m, l),
                    )
                shell += term
        total += shell
        last_shell = abs(prefactor * shell)
        partials.append(prefactor * total)
    value = prefactor * total
    return SeriesEvaluation(
        value=value,
        partial_sums=tuple(partials),
        last_shell_magnitude=last_shell,
        truncation=replace(trunc, tail_bound=last_shell),
    )
