"""Model comparison: information criteria, Kolmogorov-Smirnov distance,
empirical step curves, and maximum-likelihood fits for the implemented
families (four-parameter model, its two-parameter base, and the ordinary
two-parameter Weibull).

Every family is described the same way: an analytic log-likelihood, score
and observed information over its natural parameter array with its start
points (an :class:`~bfw.inference.Likelihood`), its CDF and log-density on
that array, and one output map to the reported parameters.  All three are
fitted by the one driver in :mod:`bfw.inference`, so comparison rows and
the CLI treat them alike.

The Weibull family is exposed in both common parameterizations.  Its
natural parameters are those of the scale form F(x) = 1 - exp(-(x/scale)^shape),
the default: it is the one whose fitted (shape, scale) pair matches
published analyses of the bundled pump data once their hundreds-of-hours
unit convention is accounted for.  The rate form F(x) = 1 - exp(-rate x^shape)
reports (rate, shape) = (scale^-shape, shape), its covariance by the delta
method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import inference
from .core import BFWParams, bfw_cdf, bfw_log_pdf
from .core import bfw_pdf  # noqa: F401 - kept for perfbench/tracing.py
from .errors import DomainError
from .flexible_weibull import FWParams, fw_cdf, fw_log_pdf

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
    (undefined) when n <= k + 1.
    """
    minus_two = -2.0 * ll
    aic = minus_two + 2.0 * k
    aicc = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0) if n > k + 1 else math.nan
    bic = minus_two + k * math.log(n)
    hqic = minus_two + 2.0 * k * math.log(math.log(n))
    return InformationCriteria(aic=aic, aicc=aicc, bic=bic, hqic=hqic)


def ks_statistic(data, cdf):
    """Two-sided one-sample sup distance between the empirical CDF and ``cdf``.

    Tied observations accumulate before the comparison, so the statistic is
    exact in the presence of duplicates.
    """
    values, counts = np.unique(np.asarray(data.times, dtype=float), return_counts=True)
    n = counts.sum()
    cum = np.cumsum(counts)
    model = np.asarray(cdf(values), dtype=float)
    upper = np.max(cum / n - model)
    lower = np.max(model - (cum - counts) / n)
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
    values, counts = np.unique(np.asarray(data.times, dtype=float), return_counts=True)
    return StepCurve(times=values, values=1.0 - np.cumsum(counts) / counts.sum(), initial_value=1.0)


# ---------------------------------------------------------------------------
# model families


def _identity(theta, covariance=None):
    return theta, covariance


@dataclass(frozen=True)
class ModelFamily:
    """A fittable family over its natural parameter array ``theta``.

    ``fit(data)`` returns the :class:`~bfw.inference.FitResult` of the driver
    in :mod:`bfw.inference`, with ``estimates`` as the natural parameter
    array.  ``cdf(x, theta)`` and ``log_pdf(x, theta)`` evaluate the
    distribution.  ``output(theta, covariance=None)`` maps theta, and a
    covariance of theta when given, to the reported parameters
    ``param_names``; ``natural`` is its inverse.
    """

    name: str
    param_names: tuple[str, ...]
    fit: Callable
    cdf: Callable
    log_pdf: Callable
    output: Callable = _identity
    natural: Callable = lambda values: values

    @property
    def parameter_count(self) -> int:
        return len(self.param_names)

    def parameters(self, values):
        """Natural parameters from reported ones, which must all be finite
        and strictly positive; raises :class:`DomainError` otherwise."""
        values = np.asarray(values, dtype=float)
        message = f"{self.name} parameters must be strictly positive and finite"
        if not (np.all(np.isfinite(values)) and np.all(values > 0.0)):
            raise DomainError(message)
        with np.errstate(all="ignore"):
            theta = np.asarray(self.natural(values), dtype=float)
        if not (np.all(np.isfinite(theta)) and np.all(theta > 0.0)):
            raise DomainError(message)  # a reported set outside double range
        return theta


_TWO_PARAM_STARTS = np.log([[0.5, 0.5], [0.05, 2.0], [2.0, 0.05], [1.0, 10.0]])


def _two_param_starts(config):
    return _TWO_PARAM_STARTS


def _unit_shapes(theta):
    """Flexible Weibull (alpha, beta) as the four-parameter point with p = q = 1."""
    return (theta[0], theta[1], 1.0, 1.0)


_FW = inference.Likelihood(
    loglik=lambda x, theta: inference._loglik_raw(x, _unit_shapes(theta)),
    score=lambda x, theta: inference._score_raw(x, _unit_shapes(theta))[:2],
    info=lambda x, theta: inference._info_raw(x, _unit_shapes(theta))[:2, :2],
    starts=_two_param_starts,
    names=("alpha", "beta"),
)


def weibull_loglik_grad(x, shape, scale):
    """Log-likelihood and its (shape, scale) gradient for the scale form."""
    n = x.size
    log_x = np.log(x)
    zs = (x / scale) ** shape
    ll = n * math.log(shape) - n * shape * math.log(scale) + (shape - 1.0) * log_x.sum() - zs.sum()
    d_shape = (
        n / shape - n * math.log(scale) + log_x.sum() - np.sum(zs * (log_x - math.log(scale)))
    )
    d_scale = (shape / scale) * (zs.sum() - n)
    return ll, np.array([d_shape, d_scale])


def _weibull_loglik(x, theta):
    with np.errstate(all="ignore"):
        ll = weibull_loglik_grad(x, *theta)[0]
    return ll if math.isfinite(ll) else -math.inf


def _weibull_score(x, theta):
    with np.errstate(all="ignore"):
        return weibull_loglik_grad(x, *theta)[1]


def _weibull_info(x, theta):
    """Observed information in (shape k, scale s).  With z = x/s and l = ln z:
    I_kk = n/k^2 + sum z^k l^2, I_ks = (n - sum z^k - k sum z^k l)/s and
    I_ss = k ((k + 1) sum z^k - n)/s^2."""
    shape, scale = theta
    n = x.size
    with np.errstate(all="ignore"):
        z = x / scale
        log_z = np.log(z)
        zs = z**shape
        sum_zs = zs.sum()
        i_kk = n / shape**2 + np.sum(zs * log_z**2)
        i_ks = (n - sum_zs - shape * np.sum(zs * log_z)) / scale
        i_ss = shape * ((shape + 1.0) * sum_zs - n) / scale**2
    return np.array([[i_kk, i_ks], [i_ks, i_ss]])


_WEIBULL = inference.Likelihood(
    loglik=_weibull_loglik,
    score=_weibull_score,
    info=_weibull_info,
    starts=_two_param_starts,
    names=("shape", "scale"),
)


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


def _fitter(likelihood, config):
    return lambda data: inference.fit_family(data, likelihood, config)


def get_family(name, weibull_parameterization="scale", optimizer_config=None):
    """Family registry: 'bfw', 'fw', or 'weibull'.

    ``optimizer_config`` applies to every family; the start grid size and
    range in it concern the four-parameter model only, the two-parameter
    families start from four fixed points.
    """
    key = name.lower()
    if key == "bfw":
        return ModelFamily(
            name="bfw",
            param_names=inference.PARAM_NAMES,
            # fit_mle is fit_family on inference.BFW plus the five-observation check
            fit=lambda data: _natural_estimates(inference.fit_mle(data, optimizer_config)),
            cdf=lambda x, theta: bfw_cdf(x, BFWParams(*theta)),
            log_pdf=lambda x, theta: bfw_log_pdf(x, BFWParams(*theta)),
        )
    if key == "fw":
        return ModelFamily(
            name="fw",
            param_names=_FW.names,
            fit=_fitter(_FW, optimizer_config),
            cdf=lambda x, theta: fw_cdf(x, FWParams(*theta)),
            log_pdf=lambda x, theta: fw_log_pdf(x, FWParams(*theta)),
        )
    if key in ("weibull", "weibull2p", "wd"):
        if weibull_parameterization == "scale":
            maps = dict(param_names=_WEIBULL.names)
        elif weibull_parameterization == "rate":
            maps = dict(param_names=("rate", "shape"), output=_weibull_rate_output,
                        natural=_weibull_rate_natural)
        else:
            raise DomainError("weibull parameterization must be 'scale' or 'rate'")
        return ModelFamily(
            name="weibull",
            fit=_fitter(_WEIBULL, optimizer_config),
            cdf=_weibull_cdf,
            log_pdf=_weibull_log_pdf,
            **maps,
        )
    raise DomainError(f"unknown model family {name!r}")


def _natural_estimates(fit):
    """A :func:`~bfw.inference.fit_mle` result with its estimates as an array."""
    return replace(fit, estimates=fit.estimates.as_array())


def available_families():
    return ("bfw", "fw", "weibull")


@dataclass(frozen=True)
class ComparisonRow:
    model: str
    estimates: Optional[dict]
    log_likelihood: float
    minus_two_ll: float
    aic: float
    aicc: float
    bic: float
    hqic: float
    ks: float
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
    """One row per family, sorted by AIC ascending (failures sort last).

    A family whose fit raises does not abort the comparison; the error text
    is recorded in its row.
    """
    families = list(families)
    if not families:
        raise DomainError("at least one family is required")
    rows = []
    for family in families:
        try:
            rows.append(fit_model(family, data))
        except Exception as exc:  # noqa: BLE001 - failures are part of the contract
            rows.append(
                ComparisonRow(
                    model=family.name,
                    estimates=None,
                    log_likelihood=math.nan,
                    minus_two_ll=math.nan,
                    aic=math.nan,
                    aicc=math.nan,
                    bic=math.nan,
                    hqic=math.nan,
                    ks=math.nan,
                    error=str(exc),
                )
            )
    rows.sort(key=lambda row: math.inf if math.isnan(row.aic) else row.aic)
    return ComparisonTable(rows=tuple(rows), label=data.label, n=data.n)
