"""Two-parameter flexible Weibull base distribution.

CDF 1 - exp(-e^w) with w = alpha*x - beta/x.  The exponent w grows linearly
for large x and falls like -beta/x near zero, which gives the family its
bathtub-capable hazard; it also means e^{e^w} overflows doubles near
w = 6.57, so every tail quantity here goes through expm1/log1p forms.  e^w
itself is the plain IEEE value: past w ~ 709.78 it is inf, and each function
returns its limit there without a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import (
    _ret, checked, checked_fields, log_amplitude, quiet, tiny_mask, tiny_x,
)

__all__ = ["FWParams", "fw_cdf", "fw_pdf", "fw_log_pdf", "fw_sf", "fw_quantile"]


@dataclass(frozen=True)
class FWParams:
    """Growth rate (per unit time) and early-life shape (time units)."""

    alpha: float
    beta: float

    __post_init__ = checked_fields


_W_OVERFLOW = math.log(np.finfo(float).max)  # e^w is inf exactly above this w


def _w(x, params):
    return params.alpha * x - params.beta / x


def _overflows(x, params, scale=1.0):
    """Whether ``scale`` e^w, ``scale`` >= 1, overflows at some element of
    ``x``, as :func:`checked` returns it, or comes within 1e-12 in ln of
    it: w grows with x, so the largest element decides, by one comparison
    in Python floats (which overflow to inf without a warning).  Beside
    :func:`tiny_x`, it tells the density functions to run under
    :func:`quiet`."""
    if type(x) is not float:
        if not x.size:
            return False
        x = float(x.max())
    return _w(x, params) + math.log(scale) > _W_OVERFLOW - 1e-12


def _x_at_exponent(w, params):
    """The x > 0 at which w = alpha x - beta/x: the positive root of
    alpha x^2 - w x - beta = 0.

    The branch is picked from the sign of w so neither tail subtracts nearly
    equal numbers; the discriminant w^2 + 4 alpha beta is always positive.
    """
    disc = np.sqrt(w * w + 4.0 * params.alpha * params.beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w >= 0.0, (w + disc) / (2.0 * params.alpha), 2.0 * params.beta / (disc - w))


def fw_cdf(x, params):
    """P(X <= x) = 1 - exp(-e^w); tends to 0 as x -> 0+ and to 1 as x -> inf.
    Where beta/x overflows (x below ~1e-308 beta) w is -inf and the value
    its limit 0, and where e^w overflows 1, without a warning."""
    arr = checked(x, "x")
    with quiet(tiny_x(arr, params.beta) or _overflows(arr, params)):
        return _ret(-np.expm1(-np.exp(_w(arr, params))))


def fw_sf(x, params):
    """Survival exp(-e^w), computed directly so the far right tail keeps
    precision; 1 without a warning where beta/x overflows, 0 where e^w
    does."""
    arr = checked(x, "x")
    with quiet(tiny_x(arr, params.beta) or _overflows(arr, params)):
        return _ret(np.exp(-np.exp(_w(arr, params))))


def fw_pdf(x, params):
    """(alpha + beta/x^2) e^w exp(-e^w); integrates to one over (0, inf).
    Where the amplitude overflows (x below ~1e-154) the density is the exp
    of its log form, which tends to 0; where e^w overflows it is 0."""
    arr = checked(x, "x")
    tiny = tiny_x(arr, params.beta)
    with quiet(tiny or _overflows(arr, params)):
        w = _w(arr, params)
        # w - e^w <= -1 for all w, so the exponential never overflows
        tail = w - np.exp(w)
        out = (params.alpha + params.beta / np.square(arr)) * np.exp(tail)
        if tiny:
            log_pdf = log_amplitude(arr, params.alpha, params.beta, tiny) + tail
            out = np.where(tiny_mask(arr, params.beta), np.exp(log_pdf), out)
    return _ret(out)


def fw_log_pdf(x, params):
    """ln(alpha + beta/x^2) + w - e^w, by :func:`bfw._stable.log_amplitude`;
    exact wherever e^w is a double, and -inf where it overflows."""
    arr = checked(x, "x")
    tiny = tiny_x(arr, params.beta)
    with quiet(tiny or _overflows(arr, params)):
        w = _w(arr, params)
        return _ret(log_amplitude(arr, params.alpha, params.beta, tiny) + w - np.exp(w))


def fw_quantile(u, params):
    """Inverse CDF: the x at which the exponent w is ln(-ln(1-u))."""
    return _ret(_x_at_exponent(np.log(-np.log1p(-checked(u, "u", high=1.0))), params))
