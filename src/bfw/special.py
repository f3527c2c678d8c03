"""Special-function kernel used by every other module.

Mostly thin wrappers over the scipy implementations, each input validated
by :func:`bfw._stable.checked`.  Two kernels do more: :func:`polygamma_gaps`
integrates the polygamma differences that direct subtraction would cancel,
and the private :func:`_beta_quantile` solves large batches of Beta
quantiles by a bracketed Halley step on ``betainc``, at about half the cost
of ``betaincinv`` (it takes validated input).  Everything is pure and
thread-safe.

``scipy.special`` costs about as much to import as numpy, so it is loaded
on first use through :func:`_scipy`, not when ``bfw`` is imported.  Of the
CLI commands, ``fit``, ``compare`` and ``eval`` load it with their first
kernel call; ``sample``, ``km`` and ``--help`` never do.
"""

from __future__ import annotations

import functools

import numpy as np

from ._stable import _TINY, _ret, checked
from .errors import DomainError

__all__ = [
    "log_gamma",
    "polygamma",
    "digamma",
    "trigamma",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "log_beta",
    "polygamma_gaps",
    "std_normal_quantile",
]


@functools.cache
def _scipy():
    """The ``scipy.special`` module, imported on the first call."""
    from scipy import special

    return special


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    return _ret(_scipy().gammaln(checked(x, "x")))


def polygamma(order, x):
    """Digamma (order 0) or trigamma (order 1) at x > 0."""
    if order not in (0, 1):
        raise DomainError("polygamma supports orders 0 and 1 only")
    arr = checked(x, "x")
    return _ret(_scipy().psi(arr) if order == 0 else _scipy().polygamma(1, arr))


def digamma(x):
    return polygamma(0, x)


def trigamma(x):
    return polygamma(1, x)


def log_beta(p, q):
    """ln B(p, q) for p, q > 0, by ``betaln``, which does not cancel where
    one shape swamps the other as ln Gamma(p) + ln Gamma(q) - ln Gamma(p + q)
    does (at p ~ 2.5e-5, q ~ 2e32 that difference loses every digit)."""
    return _ret(_scipy().betaln(checked(p, "p"), checked(q, "q")))


# three-point Gauss-Legendre nodes and weights on [0, 1]
_GAUSS_NODES = 0.5 + 0.5 * np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])[:, None]
# weights of the psi' and 2 zeta(3, .) rows, one column per node
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0 * np.array([1.0, 2.0])[:, None]
_ZETA_ORDERS = np.array([2.0, 3.0])[:, None, None]  # psi' = zeta(2, .), -psi'' = 2 zeta(3, .)
_LEADING_FROM = 2.0**60  # base from which the gaps are their leading terms


def polygamma_gaps(b, s):
    """psi(b + s) - psi(b) and psi'(b) - psi'(b + s) for arrays 0 < s <= b/64,
    without the cancellation of the direct differences (which lose every
    digit once b + s rounds to b).

    Each gap is the integral of its derivative over [c, c + s]:
    psi(c + s) - psi(c) = int psi' and psi'(c) - psi'(c + s) = int -psi'',
    with psi'(x) = zeta(2, x) and -psi''(x) = 2 zeta(3, x), by three-point
    Gauss-Legendre quadrature, whose relative error is about
    2.5e-3 (s/c)^6: below 1e-13 for s <= c/64, whatever the scale of c.
    c is b, or b + 1 for b < 1 (where zeta(2, b) ~ 1/b^2 may overflow), the
    recurrences psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2
    adding t = 1/b - 1/(b + s) to the first gap and t (1/b + 1/(b + s)) to
    the second, both without cancellation.  From b = 2^60 on, where
    zeta(3, b) ~ 1/(2 b^2) would underflow first, the gaps are their
    leading terms ln(1 + s/b) and 1/b - 1/(b + s); the rest is below
    1/b relative.
    """
    b, s = np.asarray(b, dtype=float), np.asarray(s, dtype=float)
    shift = b < 1.0
    zeta = _scipy().zeta(_ZETA_ORDERS, b + shift + s * _GAUSS_NODES)
    # an explicit sum over the nodes: a matrix product rounds differently with
    # the number of columns, and each element must get the value it gets alone
    w = _GAUSS_WEIGHTS[:, :, None]
    d_psi, d_tri = s * (w[:, 0] * zeta[:, 0] + w[:, 1] * zeta[:, 1] + w[:, 2] * zeta[:, 2])
    if shift.any():
        with np.errstate(over="ignore"):
            t = (s[shift] / b[shift]) / (b[shift] + s[shift])  # 1/b - 1/(b + s)
            d_psi[shift] += t
            d_tri[shift] += t * (1.0 / b[shift] + 1.0 / (b[shift] + s[shift]))
    huge = b >= _LEADING_FROM
    if huge.any():
        d_psi[huge] = np.log1p(s[huge] / b[huge])
        d_tri[huge] = (s[huge] / b[huge]) / (b[huge] + s[huge])
    return d_psi, d_tri


def reg_inc_beta(y, p, q):
    """Regularized incomplete beta I_y(p, q), the Beta(p, q) CDF at y."""
    ya = checked(y, "y", high=1.0, closed=True)
    return _ret(_scipy().betainc(checked(p, "p"), checked(q, "q"), ya))


def inv_reg_inc_beta(u, p, q):
    """Inverse of ``reg_inc_beta`` in its first argument.

    Endpoints map to themselves: u = 0 -> 0 and u = 1 -> 1.
    """
    ua = checked(u, "u", high=1.0, closed=True)
    return _ret(_scipy().betaincinv(checked(p, "p"), checked(q, "q"), ua))


# The bracketed Beta quantile (:func:`_beta_quantile`).  Node probabilities
# lie on the logit grid -k * _NODE_STEP, k = 0, 1, ...; at this step the
# cubic Hermite start is within ~1e-8 relative of the root on the shapes
# tested, so one Halley step reaches the last bit (at twice the step, 12% of
# the elements at (2, 2) were not done after it).
_NODE_STEP = 0.125
# A Halley step d (in ln y) with |d| max(1, |g''/g'|) below this leaves an
# error of order (d g''/g')^2 d, far below one ulp: the element is done
# after it.  An element the step leaves short of this goes to betaincinv.
_STEP_DONE = 2.0**-22


def _beta_quantile(u, p, q, log_beta):
    """The Beta(p, q) quantile of an array u in (0, 1) by a bracketed Halley
    step on ``betainc``, as ``(v, upper)``: v is y with I_y(p, q) = u, or
    1 - y where ``upper``.  ``log_beta`` is ln B(p, q).

    Each u > 1/2 is reflected to I_{1-y}(q, p) = 1 - u (DLMF 8.17.4, with
    1 - u exact), so every element solves I_z(a, b) = t with t <= 1/2 and
    returns z.  Its start is a cubic Hermite interpolant of ln z in
    logit(t) between the two nodes of a fixed logit grid that bracket t;
    the nodes come from ``betaincinv``, only those some element needs.
    One Halley step on g(ln z) = ln I_z(a, b) - ln t refines it.  Every
    value depends on its own u and the shapes only, not on the rest of the
    batch.

    ``betaincinv`` solves I_z(a, b) = t instead where a < 1, since each
    ulp of betainc's error costs 1/a ulps of z there; where a node's t or z
    is not a normal double (betainc's I would be subnormal, or z
    underflows); and where the step does not leave the element done
    (:data:`_STEP_DONE`).  A reflected element whose z exceeds 1/2 is
    solved for y directly (``upper`` False), since 1 - z would lose the
    digits of a small y.
    """
    u = np.asarray(u, dtype=float)
    upper = u > 0.5
    v = np.empty_like(u)
    for reflected, a, b in ((False, p, q), (True, q, p)):
        side = upper if reflected else ~upper
        if not side.any():
            continue
        t = 1.0 - u[side] if reflected else u[side]
        if a < 1.0:
            v[side] = inv_reg_inc_beta(t, a, b)
            continue
        z, ok = _halley_quantile(t, a, b, log_beta)
        if not ok.all():
            z[~ok] = inv_reg_inc_beta(t[~ok], a, b)
        v[side] = z
    swap = upper & (v > 0.5)
    if swap.any():
        v[swap] = inv_reg_inc_beta(u[swap], p, q)
        upper &= ~swap
    return v, upper


def _halley_quantile(t, a, b, log_beta):
    """(z, ok): z with I_z(a, b) = t for t in (0, 1/2], ok False where the
    element must be solved elsewhere (see :func:`_beta_quantile`).  Written
    in place where it can: at 5e4 points a bulk call holds few arrays."""
    scipy = _scipy()
    # -logit(t) / step lies in [k, k + 1]: t is bracketed by nodes k and k + 1.
    # ln(1 - t) - ln t, not ln((1 - t) / t), whose quotient overflows for a
    # subnormal t; this stays below ~745 for every t > 0.
    tau = np.log1p(-t)
    tau -= np.log(t)
    tau *= 1.0 / _NODE_STEP
    j = np.floor(tau)
    np.subtract(j, tau, out=tau)
    tau += 1.0  # 0 at node k + 1, 1 at node k
    j = j.astype(np.intp)
    k_lo = int(j.min())
    j -= k_lo
    ln_lo, rise, bend_lo, bend_hi, good = _node_table(k_lo, j, a, b, log_beta)
    ok = good.take(j)
    run = np.flatnonzero(ok)
    if run.size < ok.size:
        j, tau, t = j[run], tau[run], t[run]
    # the cubic Hermite start ln z = ln_lo + tau (rise + (1 - tau)
    # ((1 - tau) bend_lo - tau bend_hi)), exact at both nodes with their slopes
    ln_z = bend_hi.take(j)
    ln_z *= tau
    up = 1.0 - tau
    ln_z -= bend_lo.take(j) * up
    ln_z *= up
    del up
    ln_z -= rise.take(j)
    ln_z *= tau
    np.subtract(ln_lo.take(j), ln_z, out=ln_z)
    del tau, j
    y = np.exp(ln_z)
    with np.errstate(all="ignore"):
        big_i = scipy.betainc(a, b, y)
        g = np.subtract(big_i, t)
        g /= t
        np.log1p(g, out=g)  # ln(I / t), without rounding I / t
        gp = np.negative(y)  # y f(y) / I = exp(a ln y + (b - 1) ln(1 - y) - ln B) / I
        np.log1p(gp, out=gp)
        gp *= b - 1.0
        ln_z *= a
        gp += ln_z
        gp -= log_beta
        np.exp(gp, out=gp)
        gp /= big_i
        del big_i, ln_z
        curv = np.subtract(1.0, y)  # g'' / g' = a - (b - 1) y / (1 - y) - g'
        np.divide(y, curv, out=curv)
        curv *= 1.0 - b
        curv += a
        curv -= gp
        g /= gp  # the Newton step r = g / g'
        del gp
        d = np.multiply(g, curv)
        d *= 0.5
        d -= 1.0
        np.divide(g, d, out=d)  # the Halley step in ln z, r / (r g'' / (2 g') - 1)
        del g
        np.abs(curv, out=curv)
        np.maximum(curv, 1.0, out=curv)
        curv *= d
        np.abs(curv, out=curv)
        done = curv <= _STEP_DONE  # False where the step is NaN
        del curv
        np.expm1(d, out=d)
        d *= y
        y += d
        del d
    if run.size == ok.size and done.all():
        return y, ok
    z = np.zeros(ok.shape)
    z[run] = y
    ok[run[~done]] = False
    return z, ok


def _node_table(k_lo, j, a, b, log_beta):
    """The nodes k_lo + j and k_lo + j + 1 for every interval index in ``j``,
    solved by ``betaincinv``.  Returns arrays over the intervals j = 0, 1,
    ... : ln y at the lower node j + 1, the rise of ln y to node j, each
    end's slope times the step less that rise, and whether the interval is
    usable (both nodes' probabilities and y normal, y below 1, finite
    slopes).  Intervals no element needs are not usable."""
    used = np.zeros(int(j.max()) + 2, dtype=bool)
    used[j] = True
    used[1:] |= used[:-1]
    nodes = np.flatnonzero(used)
    t_nodes = _scipy().expit(-_NODE_STEP * (nodes + k_lo))
    y_nodes = np.full(used.size, np.nan)
    y_nodes[nodes] = inv_reg_inc_beta(t_nodes, a, b)
    t_lo = np.zeros(used.size - 1)  # each interval's lower node probability
    t_lo[nodes[nodes > 0] - 1] = t_nodes[nodes > 0]
    with np.errstate(all="ignore"):
        ln_y = np.log(y_nodes)
        # d ln y / d logit(t) = t (1 - t) / (y f(y)), times the step
        slope = np.full(used.size, np.nan)
        slope[nodes] = _NODE_STEP * t_nodes * (1.0 - t_nodes) * np.exp(
            log_beta - a * ln_y[nodes] - (b - 1.0) * np.log1p(-y_nodes[nodes]))
        # node j + 1 is the lower end of interval j
        rise = ln_y[:-1] - ln_y[1:]
        bend_lo, bend_hi = slope[1:] - rise, slope[:-1] - rise
        good = ((t_lo >= _TINY) & (y_nodes[1:] >= _TINY) & (y_nodes[:-1] < 1.0)
                & np.isfinite(bend_lo) & np.isfinite(bend_hi))
    return ln_y[1:], rise, bend_lo, bend_hi, good


def std_normal_quantile(u):
    """z with Phi(z) = u, for u in the open interval (0, 1)."""
    return _ret(_scipy().ndtri(checked(u, "u", high=1.0)))
