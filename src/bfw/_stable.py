"""Numerically stable kernels shared by the distribution and likelihood code.

All functions accept scalars or arrays and never raise on extreme inputs;
they return the correct IEEE limit instead.  :func:`fw_tail_terms` is the
one place where the flexible-Weibull tail terms -- ln F, the ratio
e^w/(e^{e^w} - 1) and its curvature -- are formed, for the log-density, the
log-cdf, the mode equation and the likelihood kernel alike.
"""

from __future__ import annotations

import numpy as np

# exp(w) overflows just above 709; exp(exp(w)) already at w ~ 6.57.
W_CLAMP = 700.0

_LN2 = float(np.log(2.0))
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_DEEP = -float(np.log(_TINY))  # e^{-e^w} is subnormal above this e^w
_SHIFT = 700.0  # SHIFT - e^w is exact for e^w in [350, 1400]
_EXP_NEG_SHIFT = float(np.exp(-_SHIFT))
_SERIES_BELOW = 1e-2  # e^w under which the curvature takes its series


def _ret(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def clamped_exp(w):
    """exp(min(w, W_CLAMP)); keeps products like q*e^w representable."""
    return np.exp(np.minimum(w, W_CLAMP))


def fw_tail_terms(w, ew, log_cdf=True, ratio=False, curvature=False):
    """The flexible-Weibull tail terms of exponent ``w``, ``ew`` being
    ``clamped_exp(w)``, all derived from one survival S = e^{-e^w} and one
    cdf F = 1 - S = -expm1(-e^w) per element:

    - ln F: ln F below e^w = ln 2 and ln(1 - S) above it, each form used
      where its argument is at most 1/2;
    - the ratio e^w / (e^{e^w} - 1) = e^w S / F;
    - the curvature, d(ratio)/dw = ratio ((1 - e^w) - S) / F, or below
      e^w = 1e-2, where (1 - e^w) - S cancels, its series
      -u/2 + u^2/6 - u^4/180 + u^6/5040 in u = e^w (Horner form).

    Returns (ln F, ratio, curvature), None for each term not asked for.
    Asked for the ratio alone, it forms e^w / expm1(e^w) and neither S nor
    F, one transcendental per element.  Limits: where e^w is subnormal or
    zero, ln F is w and the ratio 1; where S is subnormal or zero, the ratio
    is e^w e^{700 - e^w} e^{-700} with the subtraction exact.  A limit is
    patched only when an element needs it, and every element gets the value
    it would get alone, so rows of a batch stay independent.
    """
    shape = np.shape(ew)
    w, ew = np.atleast_1d(w, ew)
    ln_f = r = curv = None
    with np.errstate(all="ignore"):
        tiny = ew < _TINY
        any_tiny = tiny.any()
        if log_cdf or curvature:
            s = np.exp(-ew)
            f = -np.expm1(-ew)
        if log_cdf:
            ln_f = np.where(ew < _LN2, np.log(f), np.log1p(-s))
            if any_tiny:
                ln_f[tiny] = w[tiny]
        if ratio or curvature:
            r = ew * s / f if log_cdf or curvature else ew / np.expm1(ew)
            if any_tiny:
                r[tiny] = 1.0
            deep = ew > _DEEP
            if deep.any():
                u = ew[deep]
                r[deep] = u * np.exp(_SHIFT - u) * _EXP_NEG_SHIFT
        if curvature:
            curv = r * ((1.0 - ew) - s) / f
            small = ew < _SERIES_BELOW
            if small.any():
                u = ew[small]
                u2 = u * u
                curv[small] = u * (-0.5 + u * (1.0 / 6.0 + u2 * (-1.0 / 180.0 + u2 / 5040.0)))
    terms = ln_f, (r if ratio else None), curv
    return tuple(None if t is None else t.reshape(shape) for t in terms)
