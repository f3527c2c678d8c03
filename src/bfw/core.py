"""Four-parameter beta flexible Weibull distribution.

The distribution passes the flexible Weibull CDF through the regularized
incomplete beta function with shapes (p, q).  The CDF is always evaluated
through the incomplete-beta ratio, which is exact for every q > 0.  Both
Beta tails read the smaller of G and S_G = 1 - G, from one e^w
(:func:`_side`), and :mod:`bfw.special` forms the other argument as its
complement, so neither tail loses digits where G or S_G rounds near 1.  The
density is the exp of the log density, which the base model's log-density
kernel (:func:`bfw.flexible_weibull._log_pdf`) forms with the shapes and
ln B(p, q), so that neither e^{e^w} nor the beta normalizer can overflow.

Distribution functions are pure and thread-safe.  The sampler owns a
private generator per call (seed in, sequence out); concurrent sampling
needs distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import special
from ._stable import _ret, checked, checked_fields, fw_tail_terms
from .errors import DomainError, NoInteriorModeError, SaturationError
from .flexible_weibull import FWParams, _log_pdf, _w, _x_at_exponent, fw_quantile
from .flexible_weibull import fw_cdf  # noqa: F401 - kept for perfbench/tracing.py

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
        """ln B(p, q) by :func:`bfw.special._log_beta`, TOMS 708's exact
        ``betaln`` in ``math`` (not scipy's), computed once per instance."""
        return special._log_beta(self.p, self.q)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.p, self.q])


def bfw_cdf(x, params):
    """I_{G(x)}(p, q) with G the flexible Weibull CDF, the lower tail of
    :func:`bfw.special._beta_tails` at the smaller of G and S_G = 1 - G
    (:func:`_side`), so the cdf keeps its digits where G rounds near 1 (at
    (0.5, 0.5, 2, 0.05), x = 8 gives 0.919195, not 1)."""
    z, upper = _side(checked(x, "x"), params)
    return _ret(special._beta_tails(z, upper, params.p, params.q, sf=False)[0])


def bfw_log_pdf(x, params):
    """Log density; finite wherever it is a double.

    -ln B(p, q) + ln(alpha + beta/x^2) + w - q e^w + (p-1) ln(1 - e^{-e^w}),
    by :func:`bfw.flexible_weibull._log_pdf`, the one log-density kernel,
    which at p = q = 1 is :func:`bfw.flexible_weibull.fw_log_pdf` bit for
    bit.  ln B(p, q) is the exact one of :func:`bfw.special._log_beta`, as
    in the order statistics, cached on the parameters as
    :attr:`BFWParams.log_beta`; only the likelihood kernel keeps scipy's
    ``betaln``.  Runs without ``scipy.special``.  -inf where w is +-inf, at
    either end of the doubles, and where q e^w overflows (q < 1 puts that
    past e^w's overflow).
    """
    return _ret(_log_pdf(checked(x, "x"), params, params.p, params.q, params.log_beta))


def bfw_pdf(x, params):
    """Density of the distribution, exp of the log-space form."""
    return _ret(np.exp(bfw_log_pdf(x, params)))


def bfw_survival(x, params):
    """I_{S_G(x)}(q, p) with S_G the flexible Weibull survival:
    1 - bfw_cdf(x) by the reflection I_y(p, q) = 1 - I_{1-y}(q, p)
    (DLMF 8.17.4), so the right tail keeps its relative precision where
    1 - cdf would round to zero (at the published estimates, x = 25 gives
    8.5773e-19, not 0).  Nonincreasing; 1 where x -> 0+.  The upper tail of
    :func:`bfw.special._beta_tails` at the shapes (p, q) and the argument of
    :func:`bfw_cdf`, the smaller of G and S_G, so S_G keeps its digits where
    it rounds near 1 as well; below 1024 points the cdf and the survival
    are the two tails of one continued-fraction pass."""
    z, upper = _side(checked(x, "x"), params)
    return _ret(special._beta_tails(z, upper, params.p, params.q, cdf=False)[1])


def _side(arr, params):
    """(z, upper) at a checked ``arr``: z = min(G, S_G) and ``upper`` where
    z is S_G, the arguments of :func:`bfw.special._beta_tails`.  G = -expm1(-e^w)
    and S_G = exp(-e^w) come from one e^w, each exact to an ulp relative, so
    the smaller is the exact argument of its tail and the Beta kernels form
    the other as its complement."""
    with np.errstate(all="ignore"):
        neg = -np.exp(_w(np.asarray(arr, dtype=float), params.base))
        g, s_g = -np.expm1(neg), np.exp(neg)
    return np.minimum(g, s_g), s_g < g


def bfw_hazard(x, params):
    """Failure rate pdf/survival, the survival by reflection
    (:func:`bfw_survival`), so the hazard keeps its precision as far right
    as the survival is a nonzero double.

    Raises :class:`SaturationError` once the survival underflows to zero,
    reporting the largest hazard still representable on the request.
    """
    return _saturating_ratio(bfw_pdf(x, params), bfw_survival(x, params),
                             "survival underflowed to zero")


def bfw_reversed_hazard(x, params):
    """Reversed failure rate pdf/cdf; saturates when the CDF underflows."""
    return _saturating_ratio(bfw_pdf(x, params), bfw_cdf(x, params),
                             "distribution function underflowed to zero")


def _saturating_ratio(num, den, message):
    """num/den; where some den is zero, :class:`SaturationError` with
    ``message`` and the largest ratio over the others (or None) instead."""
    num, den = np.asarray(num), np.asarray(den)
    if np.any(den <= 0.0):
        n1, d1 = np.atleast_1d(num), np.atleast_1d(den)
        alive = d1 > 0.0
        last = float(np.max(n1[alive] / d1[alive])) if np.any(alive) else None
        raise SaturationError(message, last_value=last)
    return _ret(num / den)


def bfw_cumulative_hazard(x, params):
    """-ln survival, which equals the integral of the hazard from 0 to x, by
    :func:`_log_tails`.  Saturates only where the survival underflows to
    zero, reporting the largest cumulative hazard still finite on the
    request (None if there is none)."""
    log_sf = _log_tails(np.atleast_1d(checked(x, "x")), params)[1]
    if np.any(log_sf == -np.inf):
        finite = log_sf[log_sf > -np.inf]
        raise SaturationError("survival underflowed to zero",
                              last_value=float(-finite.min()) if finite.size else None)
    return _ret(np.negative(log_sf).reshape(np.shape(x)))


def _log_tails(arr, params):
    """(ln cdf, ln survival) at a checked array ``arr``, both Beta tails
    from one :func:`bfw.special._beta_tails` call at :func:`_side`'s
    argument: the log of the cdf where it is at most 1/2 and of the
    survival elsewhere, and the other log1p of minus it, so neither tail is
    read from a 1 - I that rounds it away.  Below 1024 points each tail at
    most 1/2 is the log of :func:`bfw_cdf` or :func:`bfw_survival` bit for
    bit.  -inf where a tail underflows to zero."""
    z, upper = _side(arr, params)
    cdf, sf = special._beta_tails(z, upper, params.p, params.q)
    right = cdf > 0.5
    small = np.where(right, sf, cdf)
    with np.errstate(divide="ignore"):
        near, far = np.log(small), np.log1p(-small)
    return np.where(right, far, near), np.where(right, near, far)


_SMALLEST = float(np.nextafter(0.0, 1.0))
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def bfw_quantile(u, params):
    """Inverse CDF: flexible Weibull quantile of the Beta(p, q) quantile y,
    at the exponent w = ln(-ln(1 - y)).

    y comes from :func:`bfw.special._beta_quantile`, which solves each
    u > 1/2 for 1 - y directly, so that -ln(1 - y) keeps every digit in the
    right tail.  The value solved for, y or 1 - y, is kept in
    [5e-324, 1 - 2^-53].
    """
    ua = checked(u, "u", high=1.0)
    v, upper = special._beta_quantile(np.atleast_1d(ua), params.p, params.q)
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
    flexible Weibull quantile of B.  Deterministic for a fixed seed.

    At shapes near 0 both gammas can underflow to 0.  Those rows alone
    take B from a second draw, made after the first, in logs:
    ln G(a) = ln G(a + 1) + ln(U)/a with U uniform on (0, 1], and
    B = 1/(1 + exp(ln G(q) - ln G(p))).  Every other row is its first
    draw."""
    if n < 0 or n != int(n):
        raise DomainError("n must be a non-negative integer")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError("seed must be a non-negative integer")
    n = int(n)
    if n == 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    g1 = rng.gamma(params.p, size=n)
    g2 = rng.gamma(params.q, size=n)
    with np.errstate(invalid="ignore"):
        b = g1 / (g1 + g2)
    both = np.flatnonzero(np.isnan(b))  # 0/0: both gammas underflowed
    if both.size:
        ln_g1, ln_g2 = (np.log(rng.gamma(a + 1.0, size=both.size))
                        + np.log1p(-rng.random(both.size)) / a for a in (params.p, params.q))
        with np.errstate(over="ignore"):
            b[both] = 1.0 / (1.0 + np.exp(ln_g2 - ln_g1))
    b = np.clip(b, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return np.asarray(fw_quantile(b, params.base))


def mode_equation(x, params):
    """Stationarity function of the density, zero at interior extrema:
    -2 beta/x^3 + (alpha + beta/x^2)^2 [1 - q e^w + (p-1) e^w/(e^{e^w}-1)],
    positive where the density rises and negative where it falls.  By
    :func:`_mode_terms`: +inf where beta/x^2 overflows and -inf where e^w
    does."""
    return _ret(_mode_terms(checked(x, "x"), params))


def _mode_terms(arr, params):
    """:func:`mode_equation` at checked ``arr``, in the one form that
    :func:`bfw_mode` scans and refines too; with D = beta + alpha x^2,

    (alpha + beta/x^2)^2 [1 - q e^w + (p-1) e^w/(e^{e^w}-1) - (2 beta/D)(x/D)].

    2 beta/D <= 2 and x/D <= 1/(2 sqrt(alpha beta)) stay finite where
    2 beta x overflows, and the ratio (:func:`bfw._stable.fw_tail_terms`)
    overflows in neither tail."""
    with np.errstate(all="ignore"):
        w = _w(arr, params)
        ew = np.exp(w)
        x2 = np.square(arr)
        ratio = fw_tail_terms(w, ew, log_cdf=False, ratio=True)[1]
        amp = params.alpha + params.beta / x2
        d = params.beta + params.alpha * x2
        gap = (2.0 * params.beta / d) * (arr / d)  # 2 beta/x^3 over amp^2
        out = amp * amp * (1.0 - params.q * ew + (params.p - 1.0) * ratio - gap)
        over = ew == np.inf  # -inf there, also where amp^2 underflows (0 times -inf)
        return np.where(over, -np.inf, out) if over.any() else out


_MODE_SUBDIVISIONS = 256  # sub-intervals per bracket and refinement round
_MODE_FRACTIONS = np.linspace(0.0, 1.0, _MODE_SUBDIVISIONS + 1)[1:]
# The scan grid of bfw_mode in units of sqrt(beta/alpha), the x where w = 0:
# there w = sqrt(alpha beta) (t - 1/t) at x = t sqrt(beta/alpha), so the scan
# follows the time unit, and the range is symmetric in t and 1/t.
_MODE_GRID = np.geomspace(1e-5, 1e5, 401)
_MODE_GRID.flags.writeable = False


def bfw_mode(params):
    """Locate the interior mode by bracketing the stationarity function
    on a log-spaced grid and refining every descending sign change.

    The grid is :data:`_MODE_GRID` times sqrt(beta/alpha), so the mode of
    the model rescaled to another time unit is the same one rescaled.  Each
    refinement round evaluates the stationarity function on
    ``_MODE_SUBDIVISIONS`` equal sub-intervals of every bracket and keeps the
    first that still changes sign downward, until every bracket is one
    rounding step wide; among the roots the one of highest density wins.
    Raises :class:`NoInteriorModeError` when no sign change exists on the
    grid (the density then peaks outside it).
    """
    xs = _MODE_GRID * (math.sqrt(params.beta) / math.sqrt(params.alpha))
    vals = _mode_terms(xs, params)
    starts = np.flatnonzero((vals[:-1] > 0) & (vals[1:] <= 0))
    if starts.size == 0:
        raise NoInteriorModeError(
            f"no descending sign change of the mode equation on [{xs[0]:g}, {xs[-1]:g}]"
        )
    lo, hi = xs[starts].tolist(), xs[starts + 1].tolist()
    f_lo, f_hi = vals[starts].tolist(), vals[starts + 1].tolist()
    # every bracket takes a round while any is still wide
    while any(b - a > 2.0 * math.ulp(b) for a, b in zip(lo, hi)):
        for i, (a, b) in enumerate(zip(lo, hi)):
            grid = a + (b - a) * _MODE_FRACTIONS
            grid[-1] = b  # keep the upper end exact
            # mode_equation(a) > 0 >= mode_equation(b) holds for every bracket
            f = _mode_terms(grid, params)
            first = int(np.argmax(f <= 0))
            if first:
                lo[i], f_lo[i] = grid[first - 1], f[first - 1]
            hi[i], f_hi[i] = grid[first], f[first]
    # each root is the end of its bracket nearer the zero of the line through
    # both ends: the upper one where the equation is zero there, the lower on a tie
    roots = np.where(-np.array(f_hi) < np.array(f_lo), hi, lo)
    best = 0
    if roots.size > 1:
        best = np.argmax(_log_pdf(roots, params, params.p, params.q, params.log_beta))
    return float(roots[best])
