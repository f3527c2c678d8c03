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
from functools import cached_property, lru_cache

import numpy as np

from . import special
from ._stable import (
    _ret, checked, checked_fields, clamped_exp, fw_tail_terms, log_amplitude, quiet, tiny_x,
)
from .errors import DomainError, NoInteriorModeError, SaturationError
from .flexible_weibull import FWParams, _w, _x_at_exponent, fw_cdf, fw_quantile, fw_sf

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

    __post_init__ = checked_fields

    @cached_property
    def base(self) -> FWParams:
        """The flexible Weibull (alpha, beta), built once per instance."""
        return FWParams(self.alpha, self.beta)

    @cached_property
    def log_beta(self) -> float:
        """ln B(p, q) by scipy's ``betaln``, computed once per instance."""
        return float(special._scipy().betaln(self.p, self.q))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.p, self.q])


def bfw_cdf(x, params):
    """I_{G(x)}(p, q) with G the flexible Weibull CDF: one ``betainc`` per
    point below :data:`bfw.special._LARGE_FROM` points, the node-grid series
    of :func:`bfw.special._beta_cdf` from there on.  Either way each value
    depends on its own x and the parameters only; the series adds to
    ``betainc``'s error only the rounding of its node factor."""
    return _inc_beta(fw_cdf(x, params.base), params.p, params.q, params)


def _inc_beta(y, a, b, params):
    """I_y(a, b) with (a, b) = (p, q) or (q, p) of ``params``."""
    if np.size(y) < special._LARGE_FROM:
        return special.reg_inc_beta(y, a, b)
    return special._beta_cdf(y, a, b, params.log_beta)


def bfw_log_pdf(x, params):
    """Log density; finite wherever the inputs are representable.

    -ln B(p, q) + ln(alpha + beta/x^2) + w - q e^w + (p-1) ln(1 - e^{-e^w}),
    with ln B(p, q) by scipy's ``betaln``, as in the likelihood kernel and
    the order statistics (cached on the parameters as
    :attr:`BFWParams.log_beta`), and ln(alpha + beta/x^2) by
    :func:`bfw._stable.log_amplitude`, which stays finite for tiny x: at the
    smallest double the log density is -inf, not NaN.
    """
    return _ret(_log_pdf(checked(x, "x"), params))


def _log_pdf(arr, params):
    """:func:`bfw_log_pdf` of checked ``arr``, for callers whose x are
    positive and finite by construction."""
    tiny = tiny_x(arr, params.beta)
    with quiet(tiny):
        w = _w(arr, params)  # -inf where beta/x overflows
        ew = clamped_exp(w)
        ln_f = fw_tail_terms(w, ew)[0]
        amp = log_amplitude(arr, params.alpha, params.beta, tiny)
        out = -params.log_beta + amp + w - params.q * ew + (params.p - 1.0) * ln_f
        if tiny and params.p <= 1.0:  # (p - 1) ln F is not -inf where w = -inf; p w is
            out = np.where(w == -np.inf, -np.inf, out)
    return out


def bfw_pdf(x, params):
    """Density of the distribution, exp of the log-space form."""
    return _ret(np.exp(bfw_log_pdf(x, params)))


def bfw_survival(x, params):
    """I_{S_G(x)}(q, p) with S_G = ``fw_sf`` the flexible Weibull survival:
    1 - bfw_cdf(x) by the reflection I_y(p, q) = 1 - I_{1-y}(q, p)
    (DLMF 8.17.4), so the right tail keeps its relative precision where
    1 - cdf would round to zero (at the published estimates, x = 25 gives
    8.5773e-19, not 0).  Nonincreasing; 1 where x -> 0+.  Like
    :func:`bfw_cdf`, one ``betainc`` per point below
    :data:`bfw.special._LARGE_FROM` points and
    :func:`bfw.special._beta_cdf` from there on."""
    return _inc_beta(fw_sf(x, params.base), params.q, params.p, params)


def bfw_hazard(x, params):
    """Failure rate pdf/survival, the survival by reflection
    (:func:`bfw_survival`), so the hazard keeps its precision as far right
    as the survival is a nonzero double.  Large batches take the survival
    from :func:`bfw.special._beta_cdf`.

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
    """-ln survival, which equals the integral of the hazard from 0 to x:
    -log1p(-cdf) where the cdf is at most 1/2, -ln of the reflected
    survival (:func:`bfw_survival`) elsewhere, each form where its argument
    is exact.  Saturates only where the survival underflows to zero."""
    xa = np.atleast_1d(checked(x, "x"))
    cdf = np.asarray(bfw_cdf(xa, params))
    far = cdf > 0.5
    out = -np.log1p(-np.where(far, 0.0, cdf))
    if far.any():
        sf = np.asarray(bfw_survival(xa[far], params))
        if np.any(sf <= 0.0):
            raise SaturationError("survival underflowed to zero", last_value=None)
        out[far] = -np.log(sf)
    return _ret(out.reshape(np.shape(x)))


_SMALLEST = float(np.nextafter(0.0, 1.0))
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def bfw_quantile(u, params):
    """Inverse CDF: flexible Weibull quantile of the Beta(p, q) quantile y,
    at the exponent w = ln(-ln(1 - y)).

    y comes from :func:`bfw.special._beta_quantile` at every batch size: it
    solves each u > 1/2 for 1 - y directly, so that -ln(1 - y) keeps every
    digit in the right tail, by ``betaincinv`` below
    :data:`bfw.special._LARGE_FROM` points and by a bracketed Halley step on
    :func:`bfw.special._beta_cdf` from there on, and by the series form of
    the Beta cdf wherever y (or 1 - y) is small enough for it, where
    ``betaincinv`` can be NaN or far off.  The value solved for, y or
    1 - y, is kept in [5e-324, 1 - 2^-53].
    """
    ua = checked(u, "u", high=1.0)
    v, upper = special._beta_quantile(np.atleast_1d(ua), params.p, params.q, params.log_beta)
    np.clip(v, _SMALLEST, _BELOW_ONE, out=v)
    # a NaN from betaincinv raises here, as the check of u would
    checked(v, "u", high=1.0)
    log_sf = np.log(v[upper])  # ln(1 - y) where v is 1 - y ...
    np.negative(v, out=v)
    np.log1p(v, out=v)  # ... and where v is y
    v[upper] = log_sf
    np.negative(v, out=v)
    return _ret(_x_at_exponent(np.log(v, out=v), params.base).reshape(np.shape(ua)))


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
    neither tail overflows.  Where that sum is not finite (x below ~1e-100)
    it is (alpha + beta/x^2)^2 [bracket - 2 beta x/(beta + alpha x^2)^2],
    whose sign is the bracket's.
    """
    return _ret(_stationarity(checked(x, "x"), params))


def _stationarity(arr, params):
    """:func:`mode_equation` at checked ``arr``: the sum of
    :func:`_mode_terms`, and its factored form only where that sum is not
    finite."""
    amp, bracket, out = _mode_terms(arr, params)
    if out.size and not np.isfinite(out.min()):
        with np.errstate(all="ignore"):
            gap = 2.0 * params.beta * arr / np.square(params.beta + params.alpha * np.square(arr))
            out = np.where(np.isfinite(out), out, amp * amp * (bracket - gap))
    return out


def _mode_terms(arr, params):
    """alpha + beta/x^2, the bracket and the sum of :func:`mode_equation`
    at checked ``arr``; the sum is NaN where both of its terms overflow."""
    with np.errstate(all="ignore"):
        w = _w(arr, params)
        ew = clamped_exp(w)
        x2 = np.square(arr)
        ratio = fw_tail_terms(w, ew, log_cdf=False, ratio=True)[1]
        amp = params.alpha + params.beta / x2
        bracket = 1.0 - params.q * ew + (params.p - 1.0) * ratio
        out = -2.0 * params.beta / (arr * x2) + amp * amp * bracket
    return amp, bracket, out


_MODE_SUBDIVISIONS = 256  # sub-intervals per bracket and refinement round
_MODE_FRACTIONS = np.linspace(0.0, 1.0, _MODE_SUBDIVISIONS + 1)[1:]


@lru_cache(maxsize=16)
def _mode_grid(lo, hi, points):
    """The read-only log-spaced scan grid of :func:`bfw_mode`, built once per
    ``(lo, hi, points)``."""
    xs = checked(np.geomspace(lo, hi, points), "x")
    xs.flags.writeable = False
    return xs


def bfw_mode(params, bracket=(1e-6, 1e4), grid_points=400):
    """Locate the interior mode by bracketing the stationarity function
    on a log-spaced grid and refining every descending sign change.

    The grid is built once per ``(bracket, grid_points)`` and kept.  Each
    refinement round evaluates the stationarity function on
    ``_MODE_SUBDIVISIONS`` equal sub-intervals of every bracket and keeps the
    first that still changes sign downward, until every bracket is one
    rounding step wide; among the roots the one of highest density wins.
    Raises :class:`NoInteriorModeError` when no sign change exists on the
    grid (the density then peaks at a boundary of the bracket).
    """
    xs = _mode_grid(float(bracket[0]), float(bracket[1]), int(grid_points))
    vals = _stationarity(xs, params)
    # descending sign changes; NaN compares false and never brackets a root
    starts = np.flatnonzero((vals[:-1] > 0) & (vals[1:] <= 0))
    if starts.size == 0:
        raise NoInteriorModeError(
            f"no descending sign change of the mode equation on [{bracket[0]}, {bracket[1]}]"
        )
    lo, hi = xs[starts].tolist(), xs[starts + 1].tolist()
    # every bracket takes a round while any is still wide
    while any(b - a > 2.0 * math.ulp(b) for a, b in zip(lo, hi)):
        for i, (a, b) in enumerate(zip(lo, hi)):
            grid = a + (b - a) * _MODE_FRACTIONS
            grid[-1] = b  # keep the upper end exact
            # mode_equation(a) > 0 >= mode_equation(b) holds for every bracket
            first = int(np.argmax(_mode_terms(grid, params)[2] <= 0))
            lo[i], hi[i] = (grid[first - 1] if first > 0 else a), grid[first]
    roots = 0.5 * (np.array(lo) + np.array(hi))
    best = np.argmax(_log_pdf(roots, params)) if roots.size > 1 else 0
    return float(roots[best])
