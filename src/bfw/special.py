"""Special-function kernel used by every other module.

Thin domain-checked wrappers over the scipy implementations.  Everything
is pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from ._stable import _ret
from .errors import DomainError

__all__ = [
    "log_gamma",
    "polygamma",
    "digamma",
    "trigamma",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "log_beta",
    "std_normal_quantile",
]

def _checked(x, name, lower=None, upper=None, open_lower=False, open_upper=False):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if lower is not None:
        ok = arr > lower if open_lower else arr >= lower
        if not np.all(ok):
            raise DomainError(f"{name} must be {'>' if open_lower else '>='} {lower}")
    if upper is not None:
        ok = arr < upper if open_upper else arr <= upper
        if not np.all(ok):
            raise DomainError(f"{name} must be {'<' if open_upper else '<='} {upper}")
    return arr


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    return _ret(_sp.gammaln(_checked(x, "x", lower=0.0, open_lower=True)))


def polygamma(order, x):
    """Digamma (order 0) or trigamma (order 1) at x > 0."""
    if order not in (0, 1):
        raise DomainError("polygamma supports orders 0 and 1 only")
    arr = _checked(x, "x", lower=0.0, open_lower=True)
    return _ret(_sp.psi(arr) if order == 0 else _sp.polygamma(1, arr))


def digamma(x):
    return polygamma(0, x)


def trigamma(x):
    return polygamma(1, x)


def log_beta(p, q):
    """ln B(p, q) for p, q > 0."""
    pa = _checked(p, "p", lower=0.0, open_lower=True)
    qa = _checked(q, "q", lower=0.0, open_lower=True)
    return _ret(_sp.gammaln(pa) + _sp.gammaln(qa) - _sp.gammaln(pa + qa))


def reg_inc_beta(y, p, q):
    """Regularized incomplete beta I_y(p, q), the Beta(p, q) CDF at y."""
    ya = _checked(y, "y", lower=0.0, upper=1.0)
    pa = _checked(p, "p", lower=0.0, open_lower=True)
    qa = _checked(q, "q", lower=0.0, open_lower=True)
    return _ret(_sp.betainc(pa, qa, ya))


def inv_reg_inc_beta(u, p, q):
    """Inverse of ``reg_inc_beta`` in its first argument.

    Endpoints map to themselves: u = 0 -> 0 and u = 1 -> 1.
    """
    ua = _checked(u, "u", lower=0.0, upper=1.0)
    pa = _checked(p, "p", lower=0.0, open_lower=True)
    qa = _checked(q, "q", lower=0.0, open_lower=True)
    return _ret(_sp.betaincinv(pa, qa, ua))


def std_normal_quantile(u):
    """z with Phi(z) = u, for u in the open interval (0, 1)."""
    ua = _checked(u, "u", lower=0.0, upper=1.0, open_lower=True, open_upper=True)
    return _ret(_sp.ndtri(ua))
