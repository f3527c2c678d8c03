"""Two-parameter flexible Weibull base distribution.

CDF 1 - exp(-e^w) with w = alpha*x - beta/x.  The exponent w grows linearly
for large x and falls like -beta/x near zero, which gives the family its
bathtub-capable hazard; it also means e^{e^w} overflows doubles near
w = 6.57, so every tail quantity here goes through expm1/log1p forms.  e^w
itself is the plain IEEE value: past w ~ 709.78 it is inf, and each function
returns its limit there without a warning.  The log density is written once,
in :func:`_log_pdf`, which the beta flexible Weibull calls with its shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import _ret, checked, checked_fields, fw_tail_terms, log_amplitude, tiny_x

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
    its limit 0, and where e^w overflows 1, without a warning."""
    arr = checked(x, "x")
    with np.errstate(all="ignore"):
        return _ret(-np.expm1(-np.exp(_w(arr, params))))


def fw_sf(x, params):
    """Survival exp(-e^w), computed directly so the far right tail keeps
    precision; 1 without a warning where beta/x overflows, 0 where e^w
    does."""
    arr = checked(x, "x")
    with np.errstate(all="ignore"):
        return _ret(np.exp(-np.exp(_w(arr, params))))


def fw_pdf(x, params):
    """(alpha + beta/x^2) e^w exp(-e^w), the exp of :func:`fw_log_pdf`;
    integrates to one over (0, inf).  It tends to 0 as x -> 0+ and is 0
    where e^w overflows."""
    return _ret(np.exp(fw_log_pdf(x, params)))


def fw_log_pdf(x, params):
    """ln(alpha + beta/x^2) + w - e^w, by :func:`_log_pdf` with p = q = 1;
    exact wherever e^w is a double, and -inf where it overflows or where
    beta/x does."""
    return _ret(_log_pdf(checked(x, "x"), params))


def _log_pdf(arr, params, p=1.0, q=1.0, log_beta=0.0):
    """The one log-density kernel, at checked ``arr``:

    -ln B + ln(alpha + beta/x^2) + w - q e^w + (p - 1) ln F,

    of the flexible Weibull at (p, q, ln B) = (1, 1, 0) and of the beta
    flexible Weibull with shapes (p, q) and ln B = ln B(p, q) otherwise;
    ``params`` supplies alpha and beta.  ln(alpha + beta/x^2) is
    :func:`bfw._stable.log_amplitude`, finite for tiny x, and ln F
    :func:`bfw._stable.fw_tail_terms`' first term, formed only where
    p != 1.  e^w is the plain IEEE value; where it overflows and q < 1,
    q e^w is exp(w + ln q), finite where q brings it back into range.
    Runs without warnings.  The terms meet as inf - inf only where w is
    +-inf (beta/x or alpha x overflows), and there the log density is -inf.
    """
    tiny = tiny_x(arr, params.beta)
    with np.errstate(all="ignore"):
        w = _w(arr, params)  # -inf where beta/x overflows, +inf where alpha x does
        ew = np.exp(w)
        overflow = (ew == np.inf).any()
        q_ew = q * ew
        if overflow and q < 1.0:
            q_ew = np.where(ew == np.inf, np.exp(w + math.log(q)), q_ew)
        out = -log_beta + log_amplitude(arr, params.alpha, params.beta, tiny) + w - q_ew
        if p != 1.0:
            out += (p - 1.0) * fw_tail_terms(w, ew)[0]
        if tiny or overflow:  # the only places where w can be infinite
            out = np.where(np.isinf(w), -np.inf, out)
    return out


def fw_quantile(u, params):
    """Inverse CDF: the x at which the exponent w is ln(-ln(1-u))."""
    return _ret(_x_at_exponent(np.log(-np.log1p(-checked(u, "u", high=1.0))), params))
