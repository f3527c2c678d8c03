"""Density of the r-th order statistic from an n-sample.

The direct beta-normalized form is the production path; the alternating
binomial expansion is provided to cross-check it and is refused beyond
n = 30, where the alternation starts eating significant digits.  Its
normalizer ln B(r, n - r + 1) is :func:`bfw.special.log_beta`, TOMS 708's
exact ``betaln`` in ``math``.  Its tails, the cdf and the survival, come
from one :func:`bfw.core._log_tails` call: below 1024 points both from one
numpy continued-fraction pass at (p, q) (:func:`bfw.special._fraction_tails`,
with its edge rules), the same pass as :func:`bfw.core.bfw_cdf` and
:func:`bfw.core.bfw_survival`; from 1024 points on through the node series,
whose nodes the fraction gives.  No Beta median is solved for, so the order
statistics load ``scipy.special`` only where the fraction hands off to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .core import _log_tails, bfw_cdf, bfw_log_pdf, bfw_pdf
from .errors import DomainError, ExpansionStabilityError
from ._stable import _ret

__all__ = ["OrderIndex", "order_stat_pdf", "order_stat_log_pdf", "order_stat_pdf_expansion"]

_EXPANSION_MAX_N = 30
# eps * condition bounds the relative error of the alternating sum; 1e8
# leaves ~8 significant digits
_EXPANSION_MAX_CONDITION = 1e8


@dataclass(frozen=True)
class OrderIndex:
    """Rank r within a sample of size n, 1 <= r <= n."""

    r: int
    n: int

    def __post_init__(self):
        if self.r != int(self.r) or self.n != int(self.n):
            raise DomainError("order statistic indices must be integers")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "n", int(self.n))
        if not 1 <= self.r <= self.n:
            raise DomainError("order statistic index requires 1 <= r <= n")


def order_stat_log_pdf(x, idx, params):
    """Log density of the r-th of n: -ln B(r, n-r+1) + (r-1) ln F + (n-r) ln(1-F) + ln f,
    ln B exact (:func:`bfw.special.log_beta`).

    ln F and ln(1 - F) each come from the tail that is at most 1/2, both
    tails from one call (:func:`bfw.core._log_tails`), so the right tail
    keeps its digits where 1 - F rounds to 0.  ``bfw_log_pdf`` validates x."""
    r, n = idx.r, idx.n
    log_norm = -special.log_beta(float(r), float(n - r + 1))
    out = log_norm + np.asarray(bfw_log_pdf(x, params), dtype=float)
    log_cdf, log_sf = _log_tails(np.atleast_1d(np.asarray(x, dtype=float)), params)
    if r > 1:
        out = out + (r - 1) * log_cdf.reshape(out.shape)
    if r < n:
        out = out + (n - r) * log_sf.reshape(out.shape)
    return _ret(out)


def order_stat_pdf(x, idx, params):
    """Density of the r-th order statistic, assembled in log space."""
    return _ret(np.exp(order_stat_log_pdf(x, idx, params)))


def order_stat_pdf_expansion(x, idx, params):
    """Alternating-sum form: sum_i (-1)^i n!/(i!(r-1)!(n-r-i)!) F^{i+r-1} f.

    Agrees with :func:`order_stat_pdf` to 1e-8 relative wherever it returns.
    The alternation cancels catastrophically once (1-F)^(n-r) is small
    against the term magnitudes, so the evaluation tracks its own condition
    number and refuses (stability error) when fewer than ~8 significant
    digits would survive; n > 30 is refused outright.
    """
    r, n = idx.r, idx.n
    if n > _EXPANSION_MAX_N:
        raise ExpansionStabilityError(
            f"alternating expansion is unstable for n > {_EXPANSION_MAX_N}; "
            "use order_stat_pdf instead"
        )
    cdf = np.asarray(bfw_cdf(x, params), dtype=float)  # validates x
    pdf = np.asarray(bfw_pdf(x, params), dtype=float)
    total = np.zeros_like(cdf)
    total_abs = np.zeros_like(cdf)
    for i in range(n - r + 1):
        coeff = math.factorial(n) / (
            math.factorial(i) * math.factorial(r - 1) * math.factorial(n - r - i)
        )
        term = coeff * cdf ** (i + r - 1)
        total = total + (-1.0) ** i * term
        total_abs = total_abs + term
    meaningful = total_abs > 0.0
    condition = np.where(
        meaningful & (np.abs(total) > 0.0), total_abs / np.maximum(np.abs(total), 1e-300), 1.0
    )
    if np.any(meaningful & (condition > _EXPANSION_MAX_CONDITION)):
        raise ExpansionStabilityError(
            "alternating expansion cancels beyond 1e-8 accuracy here "
            f"(condition {float(np.max(condition)):.2e}); use order_stat_pdf instead"
        )
    return _ret(total * pdf)
