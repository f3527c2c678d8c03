"""Maximum-likelihood estimation: log-likelihood, analytic score and
observed information, one multi-start fitter for every family, and
asymptotic confidence intervals.

A family enters the fitter as a :class:`Likelihood`: analytic log-likelihood,
score and observed information over its natural parameter array, plus start
points in log-parameter space.  The likelihood is maximized over the
log-parameters, which enforces positivity without constraint machinery and
copes with estimates spanning several orders of magnitude.  Each start runs
L-BFGS-B with the analytic score and is then polished by damped Newton
steps with the analytic information until the stationarity tolerance is
met; starts are merged deterministically by (log-likelihood, start index),
so the result does not depend on execution order.  :func:`fit_mle` is that
fitter on the four-parameter model; ``model_selection`` supplies the
two-parameter families.

``log_likelihood``/``score``/``observed_information`` are pure and
thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, psi
from scipy.special import polygamma as _polygamma

from . import special
from ._stable import clamped_exp, expm1_curvature, log1mexp, u_over_expm1
from .core import BFWParams
from .errors import ConvergenceError, DomainError, NumericError

__all__ = [
    "Dataset",
    "OptimizerConfig",
    "StartDiagnostics",
    "FitResult",
    "Likelihood",
    "log_likelihood",
    "score",
    "observed_information",
    "fit_family",
    "fit_mle",
    "confidence_intervals",
    "interval_bounds",
    "covariance_from_information",
]

PARAM_NAMES = ("alpha", "beta", "p", "q")


@dataclass(frozen=True)
class Dataset:
    """Strictly positive failure times with a provenance label."""

    times: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.times, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("dataset must be a non-empty 1-d collection")
        if not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
            raise DomainError("all failure times must be strictly positive and finite")
        arr.flags.writeable = False
        object.__setattr__(self, "times", arr)

    @property
    def n(self) -> int:
        return self.times.size


def _unpack(params):
    if isinstance(params, BFWParams):
        return params.alpha, params.beta, params.p, params.q
    a, b, p, q = (float(v) for v in params)
    return a, b, p, q


def _loglik_raw(x, theta):
    a, b, p, q = theta
    n = x.size
    with np.errstate(all="ignore"):
        w = a * x - b / x
        ew = clamped_exp(w)
        ln_f = log1mexp(ew, log_v=w)
        value = (
            n * (gammaln(p + q) - gammaln(p) - gammaln(q))
            + np.sum(np.log(a + b / x**2))
            + np.sum(w)
            - q * np.sum(ew)
            + (p - 1.0) * np.sum(ln_f)
        )
    # any non-representable configuration acts as an impossible fit
    return value if math.isfinite(value) else -math.inf


def _score_raw(x, theta):
    a, b, p, q = theta
    n = x.size
    with np.errstate(all="ignore"):
        w = a * x - b / x
        ew = clamped_exp(w)
        ratio = u_over_expm1(ew)  # e^w / (e^{e^w} - 1)
        ln_f = log1mexp(ew, log_v=w)
        denom = b + a * x**2
        d_alpha = (
            np.sum(x**2 / denom) + np.sum(x) - q * np.sum(x * ew) + (p - 1.0) * np.sum(x * ratio)
        )
        d_beta = (
            np.sum(1.0 / denom)
            - np.sum(1.0 / x)
            + q * np.sum(ew / x)
            - (p - 1.0) * np.sum(ratio / x)
        )
        d_p = n * psi(p + q) - n * psi(p) + np.sum(ln_f)
        d_q = n * psi(p + q) - n * psi(q) - np.sum(ew)
    return np.array([d_alpha, d_beta, d_p, d_q])


def _info_raw(x, theta):
    a, b, p, q = theta
    n = x.size
    info = np.empty((4, 4))
    with np.errstate(all="ignore"):
        w = a * x - b / x
        ew = clamped_exp(w)
        ratio = u_over_expm1(ew)
        curv = expm1_curvature(ew)
        denom2 = (b + a * x**2) ** 2
        info[0, 0] = (
            np.sum(x**4 / denom2) + q * np.sum(x**2 * ew) - (p - 1.0) * np.sum(x**2 * curv)
        )
        info[0, 1] = np.sum(x**2 / denom2) - q * np.sum(ew) + (p - 1.0) * np.sum(curv)
        info[0, 2] = -np.sum(x * ratio)
        info[0, 3] = np.sum(x * ew)
        info[1, 1] = (
            np.sum(1.0 / denom2) + q * np.sum(ew / x**2) - (p - 1.0) * np.sum(curv / x**2)
        )
        info[1, 2] = np.sum(ratio / x)
        info[1, 3] = -np.sum(ew / x)
        info[2, 2] = n * (_polygamma(1, p) - _polygamma(1, p + q))
        info[2, 3] = -n * _polygamma(1, p + q)
        info[3, 3] = n * (_polygamma(1, q) - _polygamma(1, p + q))
    info[1, 0] = info[0, 1]
    info[2, 0] = info[0, 2]
    info[3, 0] = info[0, 3]
    info[2, 1] = info[1, 2]
    info[3, 1] = info[1, 3]
    info[3, 2] = info[2, 3]
    return info


def log_likelihood(data, params):
    """Joint log density of the data; -inf when a term is not representable."""
    return float(_loglik_raw(data.times, _unpack(params)))


def score(data, params):
    """Gradient of the log-likelihood in (alpha, beta, p, q)."""
    return _score_raw(data.times, _unpack(params))


def observed_information(data, params):
    """Negative Hessian of the log-likelihood, from the analytic second
    derivatives; symmetric by construction.

    Raises :class:`NumericError` naming the first non-finite entry.
    """
    return _information(BFW, data.times, _unpack(params))


def _information(likelihood, x, theta):
    info = likelihood.info(x, theta)
    bad = np.argwhere(~np.isfinite(info))
    if bad.size:
        i, j = bad[0]
        names = likelihood.names
        raise NumericError(f"observed information entry ({names[i]}, {names[j]}) is not finite")
    return info


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 16
    score_tol: float = 1e-6
    rel_ll_tol: float = 1e-12
    max_iter: int = 500
    polish_iter: int = 60
    start_log_low: float = math.log(1e-3)
    start_log_high: float = math.log(1e2)
    level: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise DomainError("confidence level must lie in (0, 1)")
        if self.starts < 1:
            raise DomainError("at least one start is required")


@dataclass(frozen=True)
class StartDiagnostics:
    index: int
    theta0: tuple[float, ...]
    log_likelihood: float
    score_inf_norm: float
    converged: bool
    iterations: int
    message: str = ""


@dataclass(frozen=True)
class FitResult:
    """A converged fit: :class:`BFWParams` estimates from :func:`fit_mle`, the
    natural parameter array from :func:`fit_family`; score, information,
    covariance and intervals are in the same parameters."""

    estimates: BFWParams | np.ndarray
    log_likelihood: float
    score_at_optimum: np.ndarray
    observed_information: np.ndarray
    covariance: np.ndarray | None
    condition_number: float
    confidence_intervals: tuple
    confidence_level: float
    converged: bool
    iterations: int
    multistart_best_of: int
    trajectory: tuple[float, ...] = field(repr=False, default=())
    starts: tuple[StartDiagnostics, ...] = field(repr=False, default=())

    @property
    def covariance_available(self) -> bool:
        return self.covariance is not None


# Joe-Kuo direction numbers (degree s, coefficients a, initial m) of Sobol
# dimensions 2-4; dimension 1 has every m = 1
_SOBOL_DIRECTIONS = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))
_SOBOL_BITS = 30


def _sobol(n):
    """First n points of the unscrambled 4-d Sobol sequence, by Gray code."""
    bits = _SOBOL_BITS
    directions = [[1] * bits]
    for s, a, m in _SOBOL_DIRECTIONS:
        m = list(m)
        for k in range(s, bits):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        directions.append(m)
    v = np.array([[m_k << (bits - 1 - k) for k, m_k in enumerate(m)] for m in directions]).T
    points = np.zeros((n, len(directions)), dtype=np.int64)
    for i in range(1, n):
        points[i] = points[i - 1] ^ v[(i & -i).bit_length() - 1]  # lowest set bit of i
    return points / 2.0**bits


def _start_grid(config):
    """Deterministic low-discrepancy grid over log-parameter space."""
    span = config.start_log_high - config.start_log_low
    return config.start_log_low + _sobol(config.starts) * span


@dataclass(frozen=True)
class Likelihood:
    """What the fitter needs of a family, over its natural parameter array.

    ``loglik(x, theta)`` returns -inf where a term is not representable;
    ``score`` and ``info`` are its analytic gradient and negative Hessian;
    ``starts(config)`` gives the start points in log-parameter space, one
    per row; ``names`` label the parameters in error messages.
    """

    loglik: Callable
    score: Callable
    info: Callable
    starts: Callable
    names: tuple[str, ...]


BFW = Likelihood(_loglik_raw, _score_raw, _info_raw, _start_grid, PARAM_NAMES)


def _newton_polish(likelihood, x, theta, ll, config, trajectory):
    """Damped Newton steps on the score until stationarity.

    A step is accepted when it improves the log-likelihood, or when it
    shrinks the score norm without losing more likelihood than a couple of
    ulps -- near the optimum genuine Newton progress changes the likelihood
    by less than double precision can represent.  Only true improvements
    enter the trajectory, which therefore stays nondecreasing.
    """
    iterations = 0
    last_change = math.inf
    score_vec = likelihood.score(x, theta)
    for _ in range(config.polish_iter):
        norm = float(np.max(np.abs(score_vec)))
        if norm <= config.score_tol and last_change <= config.rel_ll_tol * (1.0 + abs(ll)):
            break
        z = np.log(theta)
        g_z = score_vec * theta
        # Hessian in log space: -D I D + diag(theta * score), D = diag(theta)
        with np.errstate(all="ignore"):
            h_z = (theta[:, None] * theta[None, :]) * likelihood.info(x, theta) - np.diag(g_z)
        if not np.all(np.isfinite(h_z)):
            break
        try:
            step = np.linalg.solve(h_z, g_z)
        except np.linalg.LinAlgError:
            step = g_z / max(1.0, float(np.max(np.abs(np.diag(h_z)))))
        if not np.all(np.isfinite(step)):
            break
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(ll))
        damp = 1.0
        accepted = False
        for _ in range(40):
            with np.errstate(over="ignore"):
                cand = np.exp(z + damp * step)
            if np.all(np.isfinite(cand)) and np.all(cand > 0.0):
                ll_cand = likelihood.loglik(x, cand)
                if ll_cand > ll:
                    last_change = (ll_cand - ll) / (1.0 + abs(ll_cand))
                    theta, ll = cand, ll_cand
                    trajectory.append(ll)
                    score_vec = likelihood.score(x, theta)
                    accepted = True
                    break
                if ll_cand >= ll - slack:
                    cand_score = likelihood.score(x, cand)
                    if np.max(np.abs(cand_score)) < norm:
                        last_change = 0.0
                        theta, score_vec = cand, cand_score
                        accepted = True
                        break
            damp *= 0.5
        iterations += 1
        if not accepted:
            break  # stationary to line-search resolution; further passes are identical
    return theta, float(likelihood.loglik(x, theta)), iterations


def _run_start(likelihood, x, z0, config, index):
    trajectory = []

    def objective(z):
        with np.errstate(all="ignore"):
            theta = np.exp(z)
            ll = likelihood.loglik(x, theta)
            if not math.isfinite(ll):
                return 1e100, np.zeros_like(z)
            grad = -likelihood.score(x, theta) * theta
        return -ll, grad

    def track(z):
        trajectory.append(likelihood.loglik(x, np.exp(z)))

    res = minimize(
        objective,
        np.asarray(z0, dtype=float),
        jac=True,
        method="L-BFGS-B",
        callback=track,
        options=dict(maxiter=config.max_iter, ftol=1e-15, gtol=1e-12),
    )
    theta = np.exp(res.x)
    ll = likelihood.loglik(x, theta)
    theta, ll, polish_iters = _newton_polish(likelihood, x, theta, ll, config, trajectory)
    s = likelihood.score(x, theta)
    score_norm = float(np.max(np.abs(s)))
    changes = np.diff(trajectory[-2:]) if len(trajectory) >= 2 else np.array([0.0])
    converged = (
        math.isfinite(ll)
        and score_norm <= config.score_tol
        and abs(float(changes[-1])) <= config.rel_ll_tol * (1.0 + abs(ll))
    )
    diag = StartDiagnostics(
        index=index,
        theta0=tuple(np.exp(z0)),
        log_likelihood=ll,
        score_inf_norm=score_norm,
        converged=converged,
        iterations=int(res.nit) + polish_iters,
        message=str(res.message),
    )
    return theta, ll, s, diag, trajectory


def covariance_from_information(info):
    """Invert a symmetric information matrix by eigendecomposition.

    Returns ``(covariance, condition_number)``; the covariance is None when
    the matrix is not positive definite.  Two Newton refinement passes push
    the inversion residual to machine level even at condition numbers around
    1e8, which this model produces routinely.
    """
    sym = 0.5 * (info + info.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    abs_vals = np.abs(eigvals)
    cond = float(abs_vals.max() / abs_vals.min()) if abs_vals.min() > 0 else math.inf
    if eigvals.min() <= 0.0:
        return None, cond
    cov = (eigvecs / eigvals) @ eigvecs.T
    eye = np.eye(sym.shape[0])
    for _ in range(2):
        cov = cov + cov @ (eye - sym @ cov)
    return 0.5 * (cov + cov.T), cond


def interval_bounds(estimates, variances, level):
    """theta_hat +/- z * sqrt(var) per parameter, lower endpoint clamped at 0.

    A negative variance (indefinite information) yields None for that
    parameter instead of a nonsensical interval.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    z = special.std_normal_quantile(0.5 + 0.5 * level)
    out = []
    for est, var in zip(np.asarray(estimates, float), np.asarray(variances, float)):
        if var < 0.0 or not math.isfinite(var):
            out.append(None)
            continue
        half = z * math.sqrt(var)
        out.append((float(max(0.0, est - half)), float(est + half)))
    return tuple(out)


def confidence_intervals(fit, level=0.95):
    """Asymptotic normal intervals for a fitted model at the given level."""
    if fit.covariance is None:
        raise NumericError("covariance unavailable: observed information not positive definite")
    return interval_bounds(fit.estimates.as_array(), np.diag(fit.covariance), level)


def fit_family(data, likelihood, config=None):
    """Maximize a family's log-likelihood over the positive orthant.

    Multi-start quasi-Newton with the analytic score, polished by Newton
    steps with the analytic information; the best converged start wins
    (ties broken by start index).  Raises :class:`ConvergenceError` with all
    per-start diagnostics when no start meets the dual stationarity /
    likelihood-change criterion, and :class:`NumericError` when the
    information at the optimum is not finite.
    """
    config = config or OptimizerConfig()
    x = data.times
    starts = likelihood.starts(config)
    results = []
    diagnostics = []
    for index, z0 in enumerate(starts):
        try:
            theta, ll, s, diag, trajectory = _run_start(likelihood, x, z0, config, index)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:  # pragma: no cover
            diagnostics.append(
                StartDiagnostics(
                    index=index,
                    theta0=tuple(np.exp(z0)),
                    log_likelihood=-math.inf,
                    score_inf_norm=math.inf,
                    converged=False,
                    iterations=0,
                    message=f"start failed: {exc}",
                )
            )
            continue
        diagnostics.append(diag)
        if diag.converged:
            results.append((ll, index, theta, s, diag, trajectory))
    if not results:
        raise ConvergenceError(
            "no optimizer start converged; inspect per-start diagnostics",
            diagnostics=diagnostics,
        )
    results.sort(key=lambda item: (-item[0], item[1]))
    ll, _, theta, s, best_diag, trajectory = results[0]
    info = _information(likelihood, x, theta)
    covariance, cond = covariance_from_information(info)
    if covariance is not None:
        intervals = interval_bounds(theta, np.diag(covariance), config.level)
    else:
        intervals = (None,) * theta.size
    return FitResult(
        estimates=theta,
        log_likelihood=ll,
        score_at_optimum=s,
        observed_information=info,
        covariance=covariance,
        condition_number=cond,
        confidence_intervals=intervals,
        confidence_level=config.level,
        converged=best_diag.converged,
        iterations=best_diag.iterations,
        multistart_best_of=len(starts),
        trajectory=tuple(trajectory),
        starts=tuple(diagnostics),
    )


def fit_mle(data, config=None):
    """Maximum-likelihood fit of the four-parameter model by :func:`fit_family`.

    Raises :class:`DomainError` for fewer than five observations and
    :class:`ConvergenceError` when no start converges.
    """
    if data.n < 5:
        raise DomainError("at least five observations are needed for a four-parameter fit")
    fit = fit_family(data, BFW, config)
    return replace(fit, estimates=BFWParams(*fit.estimates))
