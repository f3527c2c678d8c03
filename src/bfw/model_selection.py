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
from ._stable import checked
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
        name = f"{self.name} parameters"
        values = checked(values, name)
        with np.errstate(all="ignore"):  # a natural form outside double range fails the check
            return checked(self.natural(values), name)


_TWO_PARAM_STARTS = np.log([[0.5, 0.5], [0.05, 2.0], [2.0, 0.05], [1.0, 10.0]])


def _two_param_starts(config):
    return _TWO_PARAM_STARTS


def _fw_kernel(x, theta, ws):
    """Flexible Weibull (alpha, beta) rows as four-parameter rows with
    p = q = 1: the four-parameter kernel's data pass without the tail terms
    that p - 1 = 0 multiplies, written into the workspace ``ws``
    (:func:`bfw.inference._bfw_sums`), then its log-likelihood and the
    (alpha, beta) block of its score and information alone.  The rows stay
    as given and report no walk terms."""
    sums = inference._bfw_sums(x, theta[:, 0], theta[:, 1], 2, ws, tails=False)
    grad, info = np.empty((theta.shape[0], 2)), np.empty((theta.shape[0], 2, 2))
    with np.errstate(all="ignore"):
        inference._rate_terms(sums, 1.0, None, grad, info)
        ll = sums["amp"] + sums["w"] - sums["ew"]  # ln B(1, 1) = 0
        ll = np.where(np.isfinite(ll), ll, -np.inf)
    return theta, ll, grad, info, None


_FW = inference.Likelihood(kernel=_fw_kernel, starts=_two_param_starts, names=("alpha", "beta"),
                           workspace=inference._Workspace)


def _weibull_evaluate(x, theta, order=2, ws=None):
    """Log-likelihood (m,), score (m, 2) and observed information (m, 2, 2)
    of a batch of scale-form rows (shape k, scale s); parts above ``order``
    are None.  With z = x/s and l = ln z: the score is
    (n/k + sum l - sum z^k l, k (sum z^k - n)/s), and the information
    I_kk = n/k^2 + sum z^k l^2, I_ks = (n - sum z^k - k sum z^k l)/s,
    I_ss = k ((k + 1) sum z^k - n)/s^2.  ``ws``, when given, is the data's
    sum ln x (:func:`_weibull_workspace`), formed once per fit."""
    n = x.size
    shape, scale = theta.T
    with np.errstate(all="ignore"):
        log_scale = np.log(scale)
        z = x / scale[:, None]
        log_z = np.log(z)
        zs = z ** shape[:, None]
        sum_zs = np.sum(zs, axis=-1)
        sum_log_x = _weibull_workspace(x) if ws is None else ws
        ll = n * np.log(shape) - n * shape * log_scale + (shape - 1.0) * sum_log_x - sum_zs
        ll = np.where(np.isfinite(ll), ll, -np.inf)
        if order == 0:
            return ll, None, None
        zs_log_z = np.sum(zs * log_z, axis=-1)
        d_shape = n / shape - n * log_scale + sum_log_x - zs_log_z
        grad = np.column_stack([d_shape, shape / scale * (sum_zs - n)])
        if order == 1:
            return ll, grad, None
        i_ks = (n - sum_zs - shape * zs_log_z) / scale
        info = np.empty((theta.shape[0], 2, 2))
        info[:, 0, 0] = n / shape**2 + np.sum(zs * log_z**2, axis=-1)
        info[:, 0, 1] = info[:, 1, 0] = i_ks
        info[:, 1, 1] = shape * ((shape + 1.0) * sum_zs - n) / scale**2
    return ll, grad, info


def weibull_loglik_grad(x, shape, scale):
    """Log-likelihood and its (shape, scale) gradient for the scale form."""
    ll, grad, _ = _weibull_evaluate(x, np.array([[shape, scale]], dtype=float), order=1)
    return ll[0], grad[0]


def _weibull_workspace(x, rows=None):
    """What every pass of one Weibull fit shares: the data's sum ln x."""
    return np.sum(np.log(x))


def _weibull_kernel(x, theta, ws):
    """The fitter's kernel: the rows as given, their :func:`_weibull_evaluate`
    and no walk terms."""
    return (theta, *_weibull_evaluate(x, theta, ws=ws), None)


_WEIBULL = inference.Likelihood(
    kernel=_weibull_kernel,
    starts=_two_param_starts,
    names=("shape", "scale"),
    workspace=_weibull_workspace,
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

    ``optimizer_config`` applies to every family; its start count concerns
    the four-parameter model only, the two-parameter families start from
    four fixed points.
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
    if key == "weibull":
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
            rows.append(ComparisonRow(model=family.name, error=str(exc)))
    rows.sort(key=lambda row: math.inf if math.isnan(row.aic) else row.aic)
    return ComparisonTable(rows=tuple(rows), label=data.label, n=data.n)
