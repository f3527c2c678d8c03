"""Two-parameter flexible Weibull base distribution.

CDF 1 - exp(-e^w) with w = alpha*x - beta/x.  The exponent w grows linearly
for large x and falls like -beta/x near zero, which gives the family its
bathtub-capable hazard; it also means e^{e^w} overflows doubles near
w = 6.57, so every tail quantity here goes through expm1/log1p forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import _ret, clamped_exp, fw_tail_terms
from .errors import DomainError

__all__ = ["FWParams", "fw_cdf", "fw_pdf", "fw_log_pdf", "fw_log_cdf", "fw_sf", "fw_quantile"]


@dataclass(frozen=True)
class FWParams:
    """Growth rate (per unit time) and early-life shape (time units)."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be strictly positive and finite")
            object.__setattr__(self, name, value)


def _check_x(x):
    arr = np.asarray(x, dtype=float)
    if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
        raise DomainError("x must be strictly positive and finite")
    return arr


def _check_u(u):
    arr = np.asarray(u, dtype=float)
    if arr.size and not (np.all(arr > 0.0) & np.all(arr < 1.0)):
        raise DomainError("u must lie in the open interval (0, 1)")
    return arr


def _w(x, params):
    return params.alpha * x - params.beta / x


def fw_cdf(x, params):
    """P(X <= x) = 1 - exp(-e^w); tends to 0 as x -> 0+ and to 1 as x -> inf."""
    arr = _check_x(x)
    return _ret(-np.expm1(-clamped_exp(_w(arr, params))))


def fw_sf(x, params):
    """Survival exp(-e^w), computed directly so the far right tail keeps precision."""
    arr = _check_x(x)
    return _ret(np.exp(-clamped_exp(_w(arr, params))))


def fw_log_cdf(x, params):
    """ln F(x), finite for every representable positive x."""
    arr = _check_x(x)
    w = _w(arr, params)
    return _ret(fw_tail_terms(w, clamped_exp(w))[0])


def fw_pdf(x, params):
    """(alpha + beta/x^2) e^w exp(-e^w); integrates to one over (0, inf)."""
    arr = _check_x(x)
    w = _w(arr, params)
    amp = params.alpha + params.beta / arr**2
    # w - e^w <= -1 for all w, so the exponential never overflows
    return _ret(amp * np.exp(w - clamped_exp(w)))


def fw_log_pdf(x, params):
    arr = _check_x(x)
    w = _w(arr, params)
    return _ret(np.log(params.alpha + params.beta / arr**2) + w - clamped_exp(w))


def fw_quantile(u, params):
    """Inverse CDF: the positive root of alpha x^2 - t x - beta = 0, t = ln(-ln(1-u)).

    The branch is picked from the sign of t so neither tail subtracts nearly
    equal numbers; the discriminant t^2 + 4 alpha beta is always positive.
    """
    arr = _check_u(u)
    t = np.log(-np.log1p(-arr))
    disc = np.sqrt(t * t + 4.0 * params.alpha * params.beta)
    with np.errstate(invalid="ignore"):
        out = np.where(
            t >= 0.0,
            (t + disc) / (2.0 * params.alpha),
            2.0 * params.beta / (disc - t),
        )
    return _ret(out)
