"""Two-parameter flexible Weibull base distribution.

CDF 1 - exp(-e^w) with w = alpha*x - beta/x.  The exponent w grows linearly
for large x and falls like -beta/x near zero, which gives the family its
bathtub-capable hazard; it also means e^{e^w} overflows doubles near
w = 6.57, so every tail quantity here goes through expm1/log1p forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stable import (
    _ret, checked, checked_fields, clamped_exp, log_amplitude, quiet, tiny_mask, tiny_x,
)

__all__ = ["FWParams", "fw_cdf", "fw_pdf", "fw_log_pdf", "fw_sf", "fw_quantile"]


@dataclass(frozen=True)
class FWParams:
    """Growth rate (per unit time) and early-life shape (time units)."""

    alpha: float
    beta: float

    __post_init__ = checked_fields


def _w(x, params):
    return params.alpha * x - params.beta / x


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
    its limit 0, without a warning."""
    arr = checked(x, "x")
    with quiet(tiny_x(arr, params.beta)):
        return _ret(-np.expm1(-clamped_exp(_w(arr, params))))


def fw_sf(x, params):
    """Survival exp(-e^w), computed directly so the far right tail keeps
    precision; 1 without a warning where beta/x overflows."""
    arr = checked(x, "x")
    with quiet(tiny_x(arr, params.beta)):
        return _ret(np.exp(-clamped_exp(_w(arr, params))))


def fw_pdf(x, params):
    """(alpha + beta/x^2) e^w exp(-e^w); integrates to one over (0, inf).
    Where the amplitude overflows (x below ~1e-154) the density is the exp
    of its log form, which tends to 0."""
    arr = checked(x, "x")
    tiny = tiny_x(arr, params.beta)
    with quiet(tiny):
        w = _w(arr, params)
        # w - e^w <= -1 for all w, so the exponential never overflows
        tail = w - clamped_exp(w)
        out = (params.alpha + params.beta / np.square(arr)) * np.exp(tail)
        if tiny:
            log_pdf = log_amplitude(arr, params.alpha, params.beta, tiny) + tail
            out = np.where(tiny_mask(arr, params.beta), np.exp(log_pdf), out)
    return _ret(out)


def fw_log_pdf(x, params):
    arr = checked(x, "x")
    tiny = tiny_x(arr, params.beta)
    with quiet(tiny):
        w = _w(arr, params)
        return _ret(log_amplitude(arr, params.alpha, params.beta, tiny) + w - clamped_exp(w))


def fw_quantile(u, params):
    """Inverse CDF: the x at which the exponent w is ln(-ln(1-u))."""
    return _ret(_x_at_exponent(np.log(-np.log1p(-checked(u, "u", high=1.0))), params))
