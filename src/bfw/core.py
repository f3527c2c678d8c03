"""Four-parameter beta flexible Weibull distribution.

The distribution passes the flexible Weibull CDF through the regularized
incomplete beta function with shapes (p, q).  The CDF is always evaluated
through the incomplete-beta ratio, which is exact for every q > 0; the
density is assembled in log space so that neither e^{e^w} nor the beta
normalizer can overflow.

Distribution functions are pure and thread-safe.  The sampler owns a
private generator per call (seed in, sequence out); concurrent sampling
needs distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from ._stable import _ret, clamped_exp, fw_tail_terms
from .errors import DomainError, NoInteriorModeError, SaturationError
from .flexible_weibull import FWParams, _check_u, _check_x, _w, fw_cdf, fw_quantile

__all__ = [
    "BFWParams",
    "bfw_cdf",
    "bfw_pdf",
    "bfw_log_pdf",
    "bfw_survival",
    "bfw_hazard",
    "bfw_reversed_hazard",
    "bfw_cumulative_hazard",
    "bfw_quantile",
    "bfw_sample",
    "bfw_mode",
    "mode_equation",
]


@dataclass(frozen=True)
class BFWParams:
    """Base-rate pair (alpha, beta) plus beta-mixing shapes (p, q)."""

    alpha: float
    beta: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("alpha", "beta", "p", "q"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be strictly positive and finite")
            object.__setattr__(self, name, value)

    @property
    def base(self) -> FWParams:
        return FWParams(self.alpha, self.beta)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.p, self.q])


def bfw_cdf(x, params):
    """I_{G(x)}(p, q) with G the flexible Weibull CDF."""
    g = fw_cdf(x, params.base)
    return special.reg_inc_beta(g, params.p, params.q)


def bfw_log_pdf(x, params):
    """Log density; finite wherever the inputs are representable.

    ln Gamma(p+q) - ln Gamma(p) - ln Gamma(q) + ln(alpha + beta/x^2)
    + w - q e^w + (p-1) ln(1 - e^{-e^w}).
    """
    arr = _check_x(x)
    base = params.base
    w = _w(arr, base)
    ew = clamped_exp(w)
    ln_f = fw_tail_terms(w, ew)[0]
    amp = np.log(base.alpha + base.beta / arr**2)
    lnorm = (
        special.log_gamma(params.p + params.q)
        - special.log_gamma(params.p)
        - special.log_gamma(params.q)
    )
    out = lnorm + amp + w - params.q * ew + (params.p - 1.0) * ln_f
    return _ret(out)


def bfw_pdf(x, params):
    """Density of the distribution, exp of the log-space form."""
    return _ret(np.exp(bfw_log_pdf(x, params)))


def bfw_survival(x, params):
    """1 - bfw_cdf(x); nonincreasing, tends to 1 as x -> 0+."""
    return _ret(1.0 - np.asarray(bfw_cdf(x, params)))


def bfw_hazard(x, params):
    """Failure rate pdf/survival.

    Raises :class:`SaturationError` once the survival underflows to zero,
    reporting the largest hazard still representable on the request.
    """
    pdf = np.asarray(bfw_pdf(x, params))
    sf = np.asarray(bfw_survival(x, params))
    if np.any(sf <= 0.0):
        p1, s1 = np.atleast_1d(pdf), np.atleast_1d(sf)
        alive = s1 > 0.0
        last = float(np.max(p1[alive] / s1[alive])) if np.any(alive) else None
        raise SaturationError("survival underflowed to zero", last_value=last)
    return _ret(pdf / sf)


def bfw_reversed_hazard(x, params):
    """Reversed failure rate pdf/cdf; saturates when the CDF underflows."""
    pdf = np.asarray(bfw_pdf(x, params))
    cdf = np.asarray(bfw_cdf(x, params))
    if np.any(cdf <= 0.0):
        p1, c1 = np.atleast_1d(pdf), np.atleast_1d(cdf)
        seen = c1 > 0.0
        last = float(np.max(p1[seen] / c1[seen])) if np.any(seen) else None
        raise SaturationError("distribution function underflowed to zero", last_value=last)
    return _ret(pdf / cdf)


def bfw_cumulative_hazard(x, params):
    """-ln survival, which equals the integral of the hazard from 0 to x."""
    cdf = np.asarray(bfw_cdf(x, params))
    if np.any(cdf >= 1.0):
        raise SaturationError("survival underflowed to zero", last_value=None)
    return _ret(-np.log1p(-cdf))


def bfw_quantile(u, params):
    """Inverse CDF: flexible Weibull quantile of the Beta(p, q) quantile."""
    arr = _check_u(u)
    y = np.asarray(special.inv_reg_inc_beta(arr, params.p, params.q))
    # betaincinv can land exactly on an endpoint for extreme shapes
    y = np.clip(y, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return fw_quantile(y, params.base)


def bfw_sample(n, params, seed):
    """Draw n variates: B ~ Beta(p, q) via a two-gamma ratio, then the
    flexible Weibull quantile of B.  Deterministic for a fixed seed."""
    if n < 0 or n != int(n):
        raise DomainError("n must be a non-negative integer")
    n = int(n)
    if n == 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    g1 = rng.gamma(params.p, size=n)
    g2 = rng.gamma(params.q, size=n)
    b = g1 / (g1 + g2)
    b = np.clip(b, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return np.asarray(fw_quantile(b, params.base))


def mode_equation(x, params):
    """Stationarity function of the density, zero at interior extrema.

    -2 beta / x^3 + (alpha + beta/x^2)^2 [1 - q e^w + (p-1) e^w/(e^{e^w}-1)];
    positive where the density rises and negative where it falls.  The
    final factor comes from :func:`bfw._stable.fw_tail_terms`, which
    neither tail overflows.
    """
    arr = _check_x(x)
    base = params.base
    w = _w(arr, base)
    ew = clamped_exp(w)
    x2 = arr * arr
    amp = base.alpha + base.beta / x2
    ratio = fw_tail_terms(w, ew, log_cdf=False, ratio=True)[1]
    with np.errstate(over="ignore"):
        bracket = 1.0 - params.q * ew + (params.p - 1.0) * ratio
        out = -2.0 * base.beta / (arr * x2) + amp * amp * bracket
    return _ret(out)


_MODE_SUBDIVISIONS = 256  # sub-intervals per bracket and refinement round


def bfw_mode(params, bracket=(1e-6, 1e4), grid_points=400):
    """Locate the interior mode by bracketing the stationarity function
    on a log-spaced grid and refining every descending sign change at once.

    Each refinement round evaluates the stationarity function on
    ``_MODE_SUBDIVISIONS`` equal sub-intervals of every bracket and keeps the
    first that still changes sign downward, until the brackets are one
    rounding step wide; among the roots the one of highest density wins.
    Raises :class:`NoInteriorModeError` when no sign change exists on the
    grid (the density then peaks at a boundary of the bracket).
    """
    xs = np.geomspace(bracket[0], bracket[1], grid_points)
    vals = np.asarray(mode_equation(xs, params))
    # descending sign changes; NaN compares false and never brackets a root
    starts = np.flatnonzero((vals[:-1] > 0) & (vals[1:] <= 0))
    if starts.size == 0:
        raise NoInteriorModeError(
            f"no descending sign change of the mode equation on [{bracket[0]}, {bracket[1]}]"
        )
    lo, hi = xs[starts], xs[starts + 1]
    fractions = np.linspace(0.0, 1.0, _MODE_SUBDIVISIONS + 1)[1:]
    rows = np.arange(starts.size)
    while np.any(hi - lo > 2.0 * np.spacing(hi)):
        grid = lo[:, None] + (hi - lo)[:, None] * fractions
        grid[:, -1] = hi  # keep the upper end exact
        # mode_equation(lo) > 0 >= mode_equation(hi) holds for every bracket
        first = np.argmax(np.asarray(mode_equation(grid, params)) <= 0, axis=1)
        lo = np.where(first > 0, grid[rows, first - 1], lo)
        hi = grid[rows, first]
    roots = 0.5 * (lo + hi)
    best = np.argmax(bfw_log_pdf(roots, params)) if roots.size > 1 else 0
    return float(roots[best])
