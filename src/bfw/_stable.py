"""Input validation and numerically stable kernels shared by the
distribution and likelihood code.

:func:`checked` is the one place where a public input is validated: every
entry point of ``special``, ``flexible_weibull``, ``core`` and the data and
parameter containers call it, so a value outside its range raises the same
:class:`DomainError` message wherever it enters.  Internal calls pass
checked values on and do not validate again.

The kernels accept scalars or arrays and never raise on extreme inputs;
they return the correct IEEE limit instead.  :func:`fw_tail_terms` is the
one place where the flexible-Weibull tail terms -- ln F, the ratio
e^w/(e^{e^w} - 1) and its curvature -- are formed, for the log-density, the
mode equation and the likelihood kernel alike.  :func:`tiny_x` and
:func:`log_amplitude` carry the densities down to the smallest double, where
x^2 is subnormal and beta/x^2 overflows.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import DomainError

# exp(w) overflows just above 709; exp(exp(w)) already at w ~ 6.57.
W_CLAMP = 700.0

_LN2 = float(np.log(2.0))
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_HUGE = float(np.finfo(float).max)
_NO_OP = contextlib.nullcontext()
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


def clamped_exp(w, out=None):
    """exp(min(w, W_CLAMP)); keeps products like q*e^w representable.
    Written into ``out`` when given."""
    return np.exp(np.minimum(w, W_CLAMP, out=out), out)


def tiny_x(x, beta):
    """Whether some element of ``x``, as :func:`checked` returns it, lies
    where x^2 is subnormal or beta/x^2 overflows: below ~1.5e-154 for beta
    up to 4.  Only there do the density kernels run under :func:`quiet` and
    take :func:`log_amplitude`'s second form; elsewhere they pay one
    comparison of the smallest x."""
    lo = x if type(x) is float else (x.min() if x.size else 1.0)
    return lo * lo < max(_TINY, beta / _HUGE)


def quiet(tiny):
    """``np.errstate(all="ignore")`` when ``tiny`` (from :func:`tiny_x`),
    where the kernels take IEEE limits on purpose; a no-op otherwise."""
    return np.errstate(all="ignore") if tiny else _NO_OP


def log_amplitude(x, alpha, beta, tiny):
    """ln(alpha + beta/x^2) for positive x and parameters, ``tiny`` being
    :func:`tiny_x`.  The direct form, except where x^2 is subnormal or
    beta/x^2 overflows (:func:`tiny_mask`), where it is
    ln beta - 2 ln x + log1p(alpha x^2/beta), which does neither; callers
    hold :func:`quiet` when ``tiny``."""
    x2 = np.square(x)
    near = np.log(alpha + beta / x2)
    if not tiny:
        return near
    far = np.log(beta) - 2.0 * np.log(x) + np.log1p(alpha * x2 / beta)
    return np.where(tiny_mask(x, beta), far, near)


def tiny_mask(x, beta):
    """Which elements :func:`tiny_x` means: x^2 below max(tiny, beta/max).
    ``beta`` may be a column of rows, one mask row each."""
    return np.square(x) < np.maximum(_TINY, beta / _HUGE)


def fw_tail_terms(w, ew, log_cdf=True, ratio=False, curvature=False, out=None):
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

    ``out``, when given, holds the buffers, each shaped like ``ew``: five
    float arrays, which receive S, F, ln F, the ratio and the curvature
    (the last also ln F's scratch), and one boolean array for the masks.
    The terms are returned as views of them, and S and F are free for the
    caller to reuse.  The ratio's buffer may be ``w`` itself: w is read for
    the last time before the ratio is written.  Without ``out`` each
    result is a new array.
    """
    shape = np.shape(ew)
    w, ew = np.atleast_1d(w, ew)
    s, f, ln_f, r, curv, mask = (None,) * 6 if out is None else out
    with np.errstate(all="ignore"):
        any_tiny = np.less(ew, _TINY, mask).any()
        if log_cdf or curvature:
            s = np.exp(np.negative(ew, s), s)
            f = np.negative(np.expm1(np.negative(ew, f), f), f)
        if log_cdf:
            ln_f = np.log1p(np.negative(s, ln_f), ln_f)
            np.putmask(ln_f, np.less(ew, _LN2, mask), np.log(f, curv))
            if any_tiny:
                np.putmask(ln_f, np.less(ew, _TINY, mask), w)
        if ratio or curvature:
            if log_cdf or curvature:
                r = np.divide(np.multiply(ew, s, r), f, r)
            else:
                r = np.divide(ew, np.expm1(ew, r), r)
            if any_tiny:
                np.putmask(r, np.less(ew, _TINY, mask), 1.0)
            deep = np.greater(ew, _DEEP, mask)
            if deep.any():
                u = ew[deep]
                r[deep] = u * np.exp(_SHIFT - u) * _EXP_NEG_SHIFT
        if curvature:
            curv = np.subtract(np.subtract(1.0, ew, curv), s, curv)
            curv = np.divide(np.multiply(r, curv, curv), f, curv)
            small = np.less(ew, _SERIES_BELOW, mask)
            if small.any():
                u = ew[small]
                u2 = u * u
                curv[small] = u * (-0.5 + u * (1.0 / 6.0 + u2 * (-1.0 / 180.0 + u2 / 5040.0)))
    terms = (ln_f if log_cdf else None), (r if ratio else None), (curv if curvature else None)
    return tuple(None if t is None else t.reshape(shape) for t in terms)
