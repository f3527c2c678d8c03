"""Special-function kernel used by every other module.

Thin wrappers over the scipy implementations, each input validated by
:func:`bfw._stable.checked`.  Everything is pure and thread-safe.

``scipy.special`` costs about as much to import as numpy, so it is loaded
on first use through :func:`_scipy`, not when ``bfw`` is imported.  Of the
CLI commands, ``fit``, ``compare`` and ``eval`` load it with their first
kernel call; ``sample``, ``km`` and ``--help`` never do.
"""

from __future__ import annotations

import functools

import numpy as np

from ._stable import _ret, checked
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


def std_normal_quantile(u):
    """z with Phi(z) = u, for u in the open interval (0, 1)."""
    return _ret(_scipy().ndtri(checked(u, "u", high=1.0)))
