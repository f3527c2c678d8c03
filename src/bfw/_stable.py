"""Input validation and numerically stable kernels shared by the
distribution and likelihood code.

:func:`checked` is the one place where a public input is validated: every
entry point of ``special``, ``flexible_weibull``, ``core`` and the data and
parameter containers call it, so a value outside its range raises the same
:class:`DomainError` message wherever it enters.  Internal calls pass
checked values on and do not validate again.

The kernels accept scalars or arrays and never raise on extreme inputs;
they return the correct IEEE limit instead.  Every caller forms e^w as the
plain ``np.exp(w)``, exact wherever it is a double and inf past w ~ 709.78,
where each function returns its limit.  :func:`fw_tail_terms` is the one
place where the flexible-Weibull tail terms -- ln F, the ratio
e^w/(e^{e^w} - 1) and its curvature -- are formed, for the log-density, the
mode equation and the likelihood kernel alike.  :func:`tiny_x` and
:func:`log_amplitude` carry the densities down to the smallest double, where
x^2 is subnormal and beta/x^2 overflows.  The kernels take IEEE limits on
purpose, so each runs under ``np.errstate(all="ignore")``, as does every
distribution function that calls them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_LN2 = float(np.log(2.0))
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_HUGE = float(np.finfo(float).max)
_DEEP = -float(np.log(_TINY))  # e^{-e^w} is subnormal above this e^w
_SHIFT = 700.0  # SHIFT - e^w is exact for e^w in [350, 1400]
_EXP_NEG_SHIFT = float(np.exp(-_SHIFT))
_SERIES_BELOW = 1e-2  # e^w under which the curvature takes its series


def _ret(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def checked(x, name, high=math.inf, closed=False):
    """``x`` once every element lies in the open interval (0, high), or in
    [0, high] when ``closed``; raises :class:`DomainError` naming ``name``
    otherwise.  The default (0, inf) means strictly positive and finite, and
    NaN never passes.

    A Python float is checked by one comparison and returned as it is (the
    parameter containers' fast path); anything else is returned as a float
    array, checked by its minimum and maximum, which NaN propagates to.  A
    kernel that takes a returned float squares it by ``np.square``: Python's
    ``x**2`` raises on overflow and ``1.0 / 0.0`` on underflow.
    """
    if type(x) is float:
        lo = hi = x
    else:
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return x
        lo, hi = x.min(), x.max()
    if (0.0 <= lo and hi <= high) if closed else (0.0 < lo and hi < high):
        return x
    if closed:
        bounds = f"in [0, {high:g}]"
    else:
        bounds = "strictly positive and finite" if high == math.inf else f"in (0, {high:g})"
    raise DomainError(f"{name} must be {bounds}")


def checked_fields(obj):
    """``__post_init__`` of a frozen parameter dataclass: every field stored
    as a float and checked strictly positive and finite by :func:`checked`."""
    for name in obj.__dataclass_fields__:
        object.__setattr__(obj, name, checked(float(getattr(obj, name)), name))


def tiny_x(x, beta):
    """Whether some element of ``x``, as :func:`checked` returns it, lies
    where x^2 is subnormal or beta/x^2 overflows: below ~1.5e-154 for beta
    up to 4.  Only there does :func:`log_amplitude` take its second form,
    and only there can w = alpha x - beta/x be -inf; elsewhere a kernel
    pays one comparison of the smallest x."""
    # a Python float squares to inf without a warning, where a numpy one warns
    lo = x if type(x) is float else (float(x.min()) if x.size else 1.0)
    return lo * lo < max(_TINY, beta / _HUGE)


def log_amplitude(x, alpha, beta, tiny):
    """ln(alpha + beta/x^2) for positive x and parameters, ``tiny`` being
    :func:`tiny_x`.  The direct form, except on the elements where x^2 is
    subnormal or beta/x^2 overflows (x^2 below max(tiny, beta/max)), where
    it is ln beta - 2 ln x + log1p(alpha x^2/beta), which does neither.
    ``beta`` may be a column of rows, one row of x each.  Callers run it
    under ``np.errstate(all="ignore")``: the direct form overflows there,
    and its value is discarded."""
    x2 = np.square(x)
    near = np.log(alpha + beta / x2)
    if not tiny:
        return near
    far = np.log(beta) - 2.0 * np.log(x) + np.log1p(alpha * x2 / beta)
    return np.where(x2 < np.maximum(_TINY, beta / _HUGE), far, near)


def fw_tail_terms(w, ew, log_cdf=True, ratio=False, curvature=False, out=None):
    """The flexible-Weibull tail terms of exponent ``w``, ``ew`` being
    ``np.exp(w)``, all derived from one survival S = e^{-e^w} and one
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
    is e^w e^{700 - e^w} e^{-700} with the subtraction exact; where e^w
    overflows to inf, ln F, the ratio and the curvature are 0.  A limit is
    patched, and each form of ln F formed, only where the range of e^w
    reaches it, and every element gets the value it would get alone, so
    rows of a batch stay independent.

    ``out``, when given, holds the buffers, each shaped like ``ew``: five
    float arrays, which receive S, F, ln F, the ratio and the curvature
    (the last also ln F's scratch), and one boolean array for the masks.
    The terms are returned as views of them, and S and F are free for the
    caller to reuse.  The ratio's buffer may be ``w`` itself: w is read for
    the last time before the ratio is written.  Without ``out`` each
    result is a new array.
    """
    shape = np.shape(ew)
    with np.errstate(all="ignore"):
        terms = _tail_terms(*np.atleast_1d(w, ew), log_cdf, ratio, curvature, out)
    return tuple(None if t is None else t.reshape(shape) for t in terms)


def _tail_terms(w, ew, log_cdf, ratio, curvature, out):
    """:func:`fw_tail_terms` on arrays of at least one dimension, the terms
    shaped like ``ew``, for callers that hold ``np.errstate(all="ignore")``
    (the likelihood kernel's data pass)."""
    s, f, ln_f, r, curv, mask = (None,) * 6 if out is None else out
    # the range of e^w gates every patch and form; a NaN opens every gate,
    # and each patch then reads its own mask, which NaN does not enter
    lo = np.minimum.reduce(ew, None, None, None, False, np.inf)
    hi = np.maximum.reduce(ew, None, None, None, False, -np.inf)
    if lo != lo:
        lo, hi = -np.inf, np.inf
    if log_cdf or curvature:
        neg = np.negative(ew, f)  # -e^w, then F in its place
        s = np.exp(neg, s)
        f = np.negative(np.expm1(neg, neg), neg)
    if log_cdf:
        if hi < _LN2:
            ln_f = np.log(f, ln_f)
        else:
            ln_f = np.log1p(np.negative(s, ln_f), ln_f)
            if lo < _LN2:
                np.putmask(ln_f, np.less(ew, _LN2, mask), np.log(f, curv))
        if lo < _TINY:
            np.putmask(ln_f, np.less(ew, _TINY, mask), w)
    if ratio or curvature:
        if log_cdf or curvature:
            r = np.divide(np.multiply(ew, s, r), f, r)
        else:
            r = np.divide(ew, np.expm1(ew, r), r)
        if lo < _TINY:
            np.putmask(r, np.less(ew, _TINY, mask), 1.0)
        if hi > _DEEP:
            deep = np.greater(ew, _DEEP, mask)
            u = ew[deep]
            # e^w = inf takes the limit 0, as the largest double does
            r[deep] = np.minimum(u, _HUGE) * np.exp(_SHIFT - u) * _EXP_NEG_SHIFT
    if curvature:
        curv = np.subtract(np.subtract(1.0, ew, curv), s, curv)
        curv = np.divide(np.multiply(r, curv, curv), f, curv)
        if hi == np.inf:  # 0 (1 - e^w) is NaN where e^w = inf; the limit is 0
            np.putmask(curv, np.equal(ew, np.inf, mask), 0.0)
        if lo < _SERIES_BELOW:
            small = np.less(ew, _SERIES_BELOW, mask)
            u = ew[small]
            u2 = u * u
            curv[small] = u * (-0.5 + u * (1.0 / 6.0 + u2 * (-1.0 / 180.0 + u2 / 5040.0)))
    return (ln_f if log_cdf else None), (r if ratio else None), (curv if curvature else None)
