"""Model comparison: information criteria, Kolmogorov-Smirnov distance,
empirical step curves, and the table of the implemented families (the
four-parameter model, its two-parameter base, and the ordinary
two-parameter Weibull).

Every family is described the same way: its fitter, which is the one
driver of :mod:`bfw.inference` on that module's likelihood of the family
(``BFW``, ``FW`` or ``WEIBULL``: log-likelihood, score, observed
information and start points over the natural parameter array), its CDF
and log-density on that array, and one output map to the reported
parameters.  This module fits nothing itself, so comparison rows and the
CLI treat every family alike.

The Weibull family is exposed in both common parameterizations.  Its
natural parameters are those of the scale form F(x) = 1 - exp(-(x/scale)^shape),
the default: it is the one whose fitted (shape, scale) pair matches
published analyses of the bundled pump data once their hundreds-of-hours
unit convention is accounted for.  The rate form F(x) = 1 - exp(-rate x^shape)
reports (rate, shape) = (scale^-shape, shape), its covariance by the delta
method.  :func:`weibull_loglik_grad` is the scale form's log-likelihood and
gradient, from :mod:`bfw.inference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import errors, inference
from ._stable import checked
from .core import BFWParams, bfw_cdf, bfw_log_pdf
from .core import bfw_pdf  # noqa: F401 - kept for perfbench/tracing.py
from .errors import DomainError
from .flexible_weibull import FWParams, fw_cdf, fw_log_pdf
from .inference import weibull_loglik_grad

__all__ = [
    "InformationCriteria",
    "StepCurve",
    "ModelFamily",
    "ComparisonRow",
    "ComparisonTable",
    "information_criteria",
    "ks_statistic",
    "ecdf",
    "kaplan_meier",
    "get_family",
    "available_families",
    "WEIBULL_FORMS",
    "fit_model",
    "comparison_row",
    "compare_models",
    "weibull_loglik_grad",
]


@dataclass(frozen=True)
class InformationCriteria:
    aic: float
    aicc: float
    bic: float
    hqic: float


def information_criteria(ll, k, n):
    """AIC, AICC, BIC and HQIC from a log-likelihood with k parameters, n points.

    AICC is the small-sample correction AIC + 2k(k+1)/(n-k-1); it is NaN
    (undefined) when n <= k + 1.  HQIC is -2 ll + 2k ln ln n; it is NaN
    (undefined) when n = 1, where ln n = 0.
    """
    minus_two = -2.0 * ll
    aic = minus_two + 2.0 * k
    aicc = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0) if n > k + 1 else math.nan
    bic = minus_two + k * math.log(n)
    hqic = minus_two + 2.0 * k * math.log(math.log(n)) if n > 1 else math.nan
    return InformationCriteria(aic=aic, aicc=aicc, bic=bic, hqic=hqic)


def ks_statistic(data, cdf):
    """Two-sided one-sample sup distance between the empirical CDF and ``cdf``.

    The empirical CDF is :func:`ecdf`, whose steps take tied observations
    together, so the statistic is exact in the presence of duplicates.
    """
    curve = ecdf(data)
    model = np.asarray(cdf(curve.times), dtype=float)
    upper = np.max(curve.values - model)
    lower = np.max(model - np.concatenate(([0.0], curve.values[:-1])))
    return float(max(upper, lower))


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function on [0, inf).

    ``values[i]`` holds from ``times[i]`` (inclusive) up to the next
    breakpoint; ``initial_value`` holds before the first breakpoint.
    """

    times: np.ndarray
    values: np.ndarray
    initial_value: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise DomainError("times and values must be matching 1-d arrays")
        if np.any(np.diff(times) <= 0):
            raise DomainError("breakpoint times must be strictly increasing")
        if np.any((values < 0) | (values > 1)) or not 0.0 <= self.initial_value <= 1.0:
            raise DomainError("step curve values must lie in [0, 1]")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def value_at(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate(([self.initial_value], self.values))
        out = padded[idx]
        return float(out) if np.ndim(t) == 0 else out


def ecdf(data):
    """Empirical CDF: jumps of (tie count)/n at each distinct observation."""
    values, counts = np.unique(np.asarray(data.times, dtype=float), return_counts=True)
    return StepCurve(times=values, values=np.cumsum(counts) / counts.sum(), initial_value=0.0)


def kaplan_meier(data):
    """Product-limit survival estimate for complete (uncensored) data.

    Without censoring this reduces to S(t) = #{x > t}/n, the exact
    complement of the empirical CDF.
    """
    curve = ecdf(data)
    return StepCurve(times=curve.times, values=1.0 - curve.values, initial_value=1.0)


# ---------------------------------------------------------------------------
# model families


@dataclass(frozen=True)
class ModelFamily:
    """A fittable family over its natural parameter array ``theta``.

    ``fit(data)`` returns the :class:`~bfw.inference.FitResult` of a fitter
    of :mod:`bfw.inference`, ``fitter(data, config=config)``, with
    ``estimates`` as the natural parameter array.  ``cdf(x, theta)`` and
    ``log_pdf(x, theta)`` evaluate the distribution.  ``output(theta,
    covariance=None)`` maps theta, and a covariance of theta when given, to
    the reported parameters ``param_names``; ``natural`` is its inverse.
    """

    name: str
    param_names: tuple[str, ...]
    fitter: Callable
    cdf: Callable
    log_pdf: Callable
    output: Callable = lambda theta, covariance=None: (theta, covariance)
    natural: Callable = lambda values: values
    config: Optional[inference.OptimizerConfig] = None

    @property
    def parameter_count(self) -> int:
        return len(self.param_names)

    def fit(self, data):
        return self.fitter(data, config=self.config)

    def parameters(self, values):
        """Natural parameters from reported ones, which must all be finite
        and strictly positive; raises :class:`DomainError` otherwise."""
        name = f"{self.name} parameters"
        values = checked(values, name)
        with np.errstate(all="ignore"):  # a natural form outside double range fails the check
            return checked(self.natural(values), name)


def _weibull_cdf(x, theta):
    shape, scale = theta
    return -np.expm1(-((np.asarray(x, dtype=float) / scale) ** shape))


def _weibull_log_pdf(x, theta):
    shape, scale = theta
    z = np.asarray(x, dtype=float) / scale
    return math.log(shape / scale) + (shape - 1.0) * np.log(z) - z**shape


def _weibull_rate_output(theta, covariance=None):
    """(shape, scale) -> (rate, shape) with rate = scale^-shape; a covariance
    is carried by the delta method."""
    shape, scale = theta
    rate = scale ** (-shape)
    if covariance is not None:
        jac = np.array([[-math.log(scale) * rate, -shape * rate / scale], [1.0, 0.0]])
        covariance = jac @ covariance @ jac.T
    return np.array([rate, shape]), covariance


def _weibull_rate_natural(values):
    rate, shape = values
    return np.array([shape, rate ** (-1.0 / shape)])


def _fit_bfw(data, config):
    """:func:`bfw.inference.fit_mle`, its estimates as an array."""
    fit = inference.fit_mle(data, config)
    return replace(fit, estimates=fit.estimates.as_array())


# Every family once, the first the default, and the Weibull's reported
# parameters by form, the first the default.  The bfw and fw rows look their
# kernels up at the call, where perfbench/tracing.py patches them.
_WEIBULL_SCALE = ModelFamily("weibull", param_names=("shape", "scale"),
                             fitter=partial(inference.fit_family, likelihood=inference.WEIBULL),
                             cdf=_weibull_cdf, log_pdf=_weibull_log_pdf)
_FAMILIES = {family.name: family for family in (
    ModelFamily("bfw", inference.PARAM_NAMES, _fit_bfw,
                cdf=lambda x, theta: bfw_cdf(x, BFWParams(*theta)),
                log_pdf=lambda x, theta: bfw_log_pdf(x, BFWParams(*theta))),
    ModelFamily("fw", inference.PARAM_NAMES[:2],
                partial(inference.fit_family, likelihood=inference.FW),
                cdf=lambda x, theta: fw_cdf(x, FWParams(*theta)),
                log_pdf=lambda x, theta: fw_log_pdf(x, FWParams(*theta))),
    _WEIBULL_SCALE,
)}
_WEIBULL_FORMS = {
    "scale": _WEIBULL_SCALE,
    "rate": replace(_WEIBULL_SCALE, param_names=("rate", "shape"), output=_weibull_rate_output,
                    natural=_weibull_rate_natural),
}
WEIBULL_FORMS = tuple(_WEIBULL_FORMS)


def get_family(name, weibull_parameterization=WEIBULL_FORMS[0], optimizer_config=None):
    """The family of :func:`available_families` named ``name`` (in any case),
    the Weibull in its form ``weibull_parameterization`` of
    :data:`WEIBULL_FORMS`.  ``optimizer_config`` applies to every family; its
    start count concerns the four-parameter model only, the two-parameter
    families start from four fixed points.
    """
    family = _FAMILIES.get(name.lower())
    if family is None:
        raise DomainError(f"unknown model family {name!r}")
    if family is _WEIBULL_SCALE:
        family = _WEIBULL_FORMS.get(weibull_parameterization)
        if family is None:
            forms = " or ".join(map(repr, WEIBULL_FORMS))
            raise DomainError(f"weibull parameterization must be {forms}")
    return replace(family, config=optimizer_config)


def available_families():
    return tuple(_FAMILIES)


@dataclass(frozen=True)
class ComparisonRow:
    """One family's fit; a failed fit keeps the defaults and its ``error``."""

    model: str
    estimates: Optional[dict] = None
    log_likelihood: float = math.nan
    minus_two_ll: float = math.nan
    aic: float = math.nan
    aicc: float = math.nan
    bic: float = math.nan
    hqic: float = math.nan
    ks: float = math.nan
    error: Optional[str] = None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    label: str
    n: int


def fit_model(family, data):
    """Fit one family and assemble its criteria and K-S row."""
    return comparison_row(family, data, family.fit(data))


def comparison_row(family, data, fit):
    """Criteria and K-S row of a family's fit to ``data``, with the estimates
    in the family's reported parameters."""
    theta = fit.estimates
    values, _ = family.output(theta)
    ll = fit.log_likelihood
    crit = information_criteria(ll, family.parameter_count, data.n)
    ks = ks_statistic(data, lambda x: family.cdf(x, theta))
    return ComparisonRow(
        model=family.name,
        estimates={name: float(v) for name, v in zip(family.param_names, values)},
        log_likelihood=ll,
        minus_two_ll=-2.0 * ll,
        aic=crit.aic,
        aicc=crit.aicc,
        bic=crit.bic,
        hqic=crit.hqic,
        ks=ks,
    )


def compare_models(data, families):
    """One row per :class:`ModelFamily` (any other entry, a name included,
    raises :class:`DomainError` before a fit), sorted by AIC ascending,
    failures last.  A fit that raises a type of :mod:`bfw.errors` or a
    ``LinAlgError`` leaves its error text in its row; any other propagates.
    """
    families = list(families)
    if not families:
        raise DomainError("at least one family is required")
    for family in families:
        if not isinstance(family, ModelFamily):
            raise DomainError(f"compare_models takes ModelFamily entries, got {family!r}")
    typed = tuple(cls for cls in vars(errors).values() if isinstance(cls, type))
    rows = []
    for family in families:
        try:
            rows.append(fit_model(family, data))
        except (*typed, np.linalg.LinAlgError) as exc:
            rows.append(ComparisonRow(model=family.name, error=str(exc)))
    rows.sort(key=lambda row: math.inf if math.isnan(row.aic) else row.aic)
    return ComparisonTable(rows=tuple(rows), label=data.label, n=data.n)
