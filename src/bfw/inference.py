"""Maximum-likelihood estimation: log-likelihood, analytic score and
observed information, one multi-start fitter for every family, and
asymptotic confidence intervals.

A family enters the fitter as a :class:`Likelihood`: one kernel that returns
the log-likelihood, score and observed information of every row of a
(starts, k) batch of natural parameters, plus start points in log-parameter
space.  The likelihood is maximized over z = ln theta, which enforces
positivity without constraint machinery and copes with estimates spanning
several orders of magnitude.  All starts advance together as the rows of one
array, by damped Newton steps:

- Step.  With g and H the gradient and negative Hessian in z, and
  H = V diag(e) V^T, a row steps by V diag(1 / (|e| + lambda max|e|)) V^T g:
  the Newton step where H is positive definite and the damping lambda is
  small, an ascent direction everywhere.
- Acceptance.  A step is kept when it raises the log-likelihood, or when it
  lowers the score norm while losing at most a few ulps of it (near the
  optimum genuine progress is below double resolution).  Acceptance divides
  lambda by 3; consecutive rejections multiply it by 2, 4, 8, ...
- Stopping.  A start leaves the active set when its score sup-norm is at
  most ``score_tol`` and its last step changed the log-likelihood by at most
  ``rel_ll_tol (1 + |ll|)`` (converged), after ``max_iter`` trial steps,
  when lambda passes 1e10 (step rejected), or at once when its start point
  is not finite.  Only active rows are evaluated, so the work shrinks as
  starts finish; ``StartDiagnostics`` records why each start stopped.
- Determinism.  Rows never interact: every sum runs along one row and every
  eigendecomposition is per matrix, so a start's path does not depend on the
  other starts.  The best converged start wins by (log-likelihood, start
  index).
- Memory.  The kernel runs in row blocks whose temporaries hold at most
  ``_BLOCK_ELEMENTS`` doubles (starts x observations), unless a single row
  is longer.

:func:`fit_mle` is that fitter on the four-parameter model;
``model_selection`` supplies the two-parameter families.
``log_likelihood``/``score``/``observed_information`` are pure and
thread-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import gammaln, psi, zeta

from . import special
from ._stable import clamped_exp, fw_tail_terms
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

_rowsum = functools.partial(np.add.reduce, axis=-1)  # np.sum over the last axis
_LOWER = np.tril_indices(4, -1)


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


def _row(params):
    """(alpha, beta, p, q) as a one-row batch."""
    if isinstance(params, BFWParams):
        return params.as_array()[None, :]
    a, b, p, q = (float(v) for v in params)
    return np.array([[a, b, p, q]])


def _bfw_evaluate(x, theta, order=2):
    """Log-likelihood of each row of a (m, 4) batch of (alpha, beta, p, q),
    plus for ``order`` >= 1 the score (m, 4) and for ``order`` 2 the observed
    information (m, 4, 4); parts not asked for are None.

    w, e^w and the tail terms are formed once and shared by all three: ln F =
    ln(1 - e^{-e^w}), and for the score and information the ratio
    e^w/(e^{e^w} - 1) and its curvature, all from one survival e^{-e^w} and
    one cdf 1 - e^{-e^w} per element (:func:`bfw._stable.fw_tail_terms`,
    which switches the curvature to its series below e^w = 1e-2).  Each row
    is reduced on its own, so its values do not depend on the other rows; a
    row whose log-likelihood is not representable gives -inf.
    """
    n = x.size
    x2 = x * x
    a, b, p, q = theta.T
    ac, bc = a[:, None], b[:, None]
    with np.errstate(all="ignore"):
        w = ac * x - bc / x
        ew = clamped_exp(w)
        ln_f, ratio, curv = fw_tail_terms(w, ew, ratio=order >= 1, curvature=order == 2)
        sum_ew = _rowsum(ew)
        sum_ln_f = _rowsum(ln_f)
        shapes = np.stack([p + q, p, q])
        log_gamma = gammaln(shapes)
        ll = (
            n * (log_gamma[0] - log_gamma[1] - log_gamma[2])
            + _rowsum(np.log(ac + bc / x2))
            + _rowsum(w)
            - q * sum_ew
            + (p - 1.0) * sum_ln_f
        )
        # any non-representable configuration acts as an impossible fit
        ll = np.where(np.isfinite(ll), ll, -np.inf)
        if order == 0:
            return ll, None, None
        denom = bc + ac * x2
        x_ew = _rowsum(x * ew)
        x_ratio = _rowsum(x * ratio)
        ew_x = _rowsum(ew / x)
        ratio_x = _rowsum(ratio / x)
        digamma = psi(shapes)
        grad = np.empty((theta.shape[0], 4))
        grad[:, 0] = _rowsum(x2 / denom) + np.sum(x) - q * x_ew + (p - 1.0) * x_ratio
        grad[:, 1] = _rowsum(1.0 / denom) - np.sum(1.0 / x) + q * ew_x - (p - 1.0) * ratio_x
        grad[:, 2] = n * digamma[0] - n * digamma[1] + sum_ln_f
        grad[:, 3] = n * digamma[0] - n * digamma[2] - sum_ew
        if order == 1:
            return ll, grad, None
        denom2 = denom**2
        trigamma = zeta(2.0, shapes)  # polygamma(1, s) = zeta(2, s), bit for bit
        info = np.empty((theta.shape[0], 4, 4))
        info[:, 0, 0] = (
            _rowsum(x2 * x2 / denom2) + q * _rowsum(x2 * ew) - (p - 1.0) * _rowsum(x2 * curv)
        )
        info[:, 0, 1] = _rowsum(x2 / denom2) - q * sum_ew + (p - 1.0) * _rowsum(curv)
        info[:, 0, 2] = -x_ratio
        info[:, 0, 3] = x_ew
        info[:, 1, 1] = (
            _rowsum(1.0 / denom2) + q * _rowsum(ew / x2) - (p - 1.0) * _rowsum(curv / x2)
        )
        info[:, 1, 2] = ratio_x
        info[:, 1, 3] = -ew_x
        info[:, 2, 2] = n * (trigamma[1] - trigamma[0])
        info[:, 2, 3] = -n * trigamma[0]
        info[:, 3, 3] = n * (trigamma[2] - trigamma[0])
    info[:, _LOWER[0], _LOWER[1]] = info[:, _LOWER[1], _LOWER[0]]
    return ll, grad, info


def log_likelihood(data, params):
    """Joint log density of the data; -inf when a term is not representable."""
    return float(_bfw_evaluate(data.times, _row(params), order=0)[0][0])


def score(data, params):
    """Gradient of the log-likelihood in (alpha, beta, p, q)."""
    return _bfw_evaluate(data.times, _row(params), order=1)[1][0]


def observed_information(data, params):
    """Negative Hessian of the log-likelihood, from the analytic second
    derivatives; symmetric by construction.

    Raises :class:`NumericError` naming the first non-finite entry.
    """
    info = _bfw_evaluate(data.times, _row(params))[2][0]
    bad = np.argwhere(~np.isfinite(info))
    if bad.size:
        i, j = bad[0]
        raise NumericError(
            f"observed information entry ({PARAM_NAMES[i]}, {PARAM_NAMES[j]}) is not finite"
        )
    return info


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 16
    score_tol: float = 1e-6
    rel_ll_tol: float = 1e-12
    max_iter: int = 100
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
    evaluations: int = 0


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

    ``evaluate(x, theta)`` takes a (starts, k) batch of parameter rows and
    returns the log-likelihood (starts,), the analytic score (starts, k) and
    the observed information (starts, k, k) of each row, -inf log-likelihood
    where a term is not representable; ``starts(config)`` gives the start
    points in log-parameter space, one per row; ``names`` label the
    parameters in error messages.
    """

    evaluate: Callable
    starts: Callable
    names: tuple[str, ...]


BFW = Likelihood(_bfw_evaluate, _start_grid, PARAM_NAMES)

# Relative damping of the Newton step: the first step of every start uses
# _DAMPING_START; an accepted step divides it by 3 (not below _DAMPING_MIN),
# consecutive rejections multiply it by 2, 4, 8, ...; a start whose damping
# passes _DAMPING_MAX stops.
_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-15
_DAMPING_MAX = 1e10
_SLACK = 4.0 * np.finfo(float).eps  # relative log-likelihood loss a step may take
_BLOCK_ELEMENTS = 1 << 15  # starts x observations per kernel temporary (256 KB)

_ACTIVE, _CONVERGED, _BUDGET, _REJECTED, _NONFINITE = range(5)
_STOP_MESSAGES = {
    _CONVERGED: "converged: score and log-likelihood change within tolerance",
    _BUDGET: "iteration budget exhausted",
    _REJECTED: "step rejected at the largest damping",
    _NONFINITE: "log-likelihood, score or information not finite at the start",
}


def _evaluate(likelihood, x, theta):
    """``likelihood.evaluate`` in row blocks of at most ``_BLOCK_ELEMENTS``
    elements per temporary, so memory stays bounded for large samples."""
    rows = max(1, _BLOCK_ELEMENTS // x.size)
    if theta.shape[0] <= rows:
        return likelihood.evaluate(x, theta)
    blocks = [likelihood.evaluate(x, theta[i : i + rows]) for i in range(0, len(theta), rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _log_space(theta, grad, info):
    """Gradient g = theta * score and negative Hessian
    H = D I D - diag(g), D = diag(theta), of each row in z = ln theta, and
    whether every entry of the row is finite."""
    with np.errstate(all="ignore"):
        g = grad * theta
        h = theta[:, :, None] * theta[:, None, :] * info
        diagonal = np.arange(theta.shape[1])
        h[:, diagonal, diagonal] -= g
    finite = np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(h), axis=(1, 2))
    return g, h, finite


def _damped_steps(g, h, damping):
    """One damped Newton step per row: with H = V diag(e) V^T, the step is
    V diag(1 / (|e| + damping max|e|)) V^T g -- the Newton step where H is
    positive definite and the damping small, an ascent direction always."""
    e, v = np.linalg.eigh(h)
    abs_e = np.abs(e)
    scale = abs_e + damping[:, None] * abs_e.max(axis=1)[:, None]
    return (v @ ((g[:, None, :] @ v)[:, 0] / scale)[:, :, None])[:, :, 0]


def _newton(likelihood, x, z0, config):
    """Damped Newton ascent of every start at once (see the module notes);
    the rows of ``z0`` are the starts in log-parameters.

    Each pass evaluates one trial step for every start still active.  Returns
    the final parameters, log-likelihood, score and information per start,
    its stop code, accepted steps, kernel passes and the log-likelihoods of
    its improving steps.
    """
    z = np.array(z0, dtype=float)
    m = z.shape[0]
    theta = np.exp(z)
    ll, grad, info = _evaluate(likelihood, x, theta)
    g, h, finite = _log_space(theta, grad, info)
    norm = np.max(np.abs(grad), axis=1)
    stop = np.where(np.isfinite(ll) & finite, _ACTIVE, _NONFINITE)
    iterations = np.zeros(m, dtype=int)
    evaluations = np.ones(m, dtype=int)
    damping = np.full(m, _DAMPING_START)
    growth = np.full(m, 2.0)
    change = np.full(m, math.inf)
    trajectories = [[float(value)] for value in ll]
    active = np.flatnonzero(stop == _ACTIVE)
    while True:
        settled = (norm[active] <= config.score_tol) & (
            change[active] <= config.rel_ll_tol * (1.0 + np.abs(ll[active])))
        stop[active] = np.where(
            settled, _CONVERGED, np.where(
                evaluations[active] > config.max_iter, _BUDGET, np.where(
                    damping[active] > _DAMPING_MAX, _REJECTED, _ACTIVE)))
        active = active[stop[active] == _ACTIVE]
        if active.size == 0:
            break
        z_t = z[active] + _damped_steps(g[active], h[active], damping[active])
        with np.errstate(over="ignore"):
            theta_t = np.exp(z_t)
        ll_t, grad_t, info_t = _evaluate(likelihood, x, theta_t)
        g_t, h_t, finite_t = _log_space(theta_t, grad_t, info_t)
        norm_t = np.max(np.abs(grad_t), axis=1)
        ll_a = ll[active]
        better = ll_t > ll_a
        close = (ll_t >= ll_a - _SLACK * (1.0 + np.abs(ll_a))) & (norm_t < norm[active])
        accept = finite_t & (better | close)
        evaluations[active] += 1
        change[active] = np.abs(ll_t - ll_a)  # inf for a non-representable trial

        rows = active[accept]
        z[rows], theta[rows], ll[rows] = z_t[accept], theta_t[accept], ll_t[accept]
        grad[rows], info[rows], norm[rows] = grad_t[accept], info_t[accept], norm_t[accept]
        g[rows], h[rows] = g_t[accept], h_t[accept]
        iterations[rows] += 1
        damping[rows] = np.maximum(damping[rows] / 3.0, _DAMPING_MIN)
        growth[rows] = 2.0
        for i in rows[better[accept]]:
            trajectories[i].append(float(ll[i]))

        rows = active[~accept]
        damping[rows] *= growth[rows]
        growth[rows] *= 2.0
    return theta, ll, grad, info, stop, iterations, evaluations, trajectories


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

    All starts advance together by damped Newton steps in log-parameters
    with the analytic score and information; the best converged start wins
    (ties broken by start index).  Raises :class:`ConvergenceError` with all
    per-start diagnostics when no start meets the dual stationarity /
    likelihood-change criterion.
    """
    config = config or OptimizerConfig()
    z0 = np.asarray(likelihood.starts(config), dtype=float)
    theta, ll, grad, info, stop, iterations, evaluations, trajectories = _newton(
        likelihood, data.times, z0, config)
    diagnostics = tuple(
        StartDiagnostics(
            index=i,
            theta0=tuple(np.exp(z0[i])),
            log_likelihood=float(ll[i]),
            score_inf_norm=float(np.max(np.abs(grad[i]))),
            converged=bool(stop[i] == _CONVERGED),
            iterations=int(iterations[i]),
            message=_STOP_MESSAGES[stop[i]],
            evaluations=int(evaluations[i]),
        )
        for i in range(len(z0))
    )
    converged = [d.index for d in diagnostics if d.converged]
    if not converged:
        raise ConvergenceError(
            "no optimizer start converged; inspect per-start diagnostics",
            diagnostics=list(diagnostics),
        )
    best = min(converged, key=lambda i: (-ll[i], i))
    covariance, cond = covariance_from_information(info[best])
    if covariance is not None:
        intervals = interval_bounds(theta[best], np.diag(covariance), config.level)
    else:
        intervals = (None,) * theta.shape[1]
    return FitResult(
        estimates=theta[best],
        log_likelihood=float(ll[best]),
        score_at_optimum=grad[best],
        observed_information=info[best],
        covariance=covariance,
        condition_number=cond,
        confidence_intervals=intervals,
        confidence_level=config.level,
        converged=True,
        iterations=int(iterations[best]),
        multistart_best_of=len(z0),
        trajectory=tuple(trajectories[best]),
        starts=diagnostics,
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
