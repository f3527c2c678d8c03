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
  ``_REL_LL_TOL (1 + |ll|)`` (converged), after ``_MAX_ITER`` trial steps,
  when it is retired (below), when lambda passes 1e10 (step rejected), or
  at once when its start point is not finite.  Only active rows are
  evaluated, so the work shrinks as starts finish; ``StartDiagnostics``
  records why each start stopped.
- Retirement.  A start that cannot meet the convergence test is retired
  once one trigger has held on 3 consecutive accepted points, each with its
  own "retired:" message (:func:`_walking`).  Three triggers name why the
  test cannot be met: the log-likelihood's rounding error exceeds
  3e-8 (1 + |ll|), the ln q crawl outlasts the budget, or the
  log-likelihood is flat while the step still moves.  Three name the
  boundary limit the start walks, by its signature in theta and x_(n) and
  the motion along it: ridge A (sqrt(beta/alpha) -> x_(n) with p falling
  below 1e-3), ridge B ((e - 1) q/p -> 1 with ln p rising above ln 1e4),
  and the q limit (ln q rising above 60 with p < 1).  The family's kernel
  reports the terms (the last item it returns), so each row decides on its
  own without a second data pass; the two-parameter families report none
  and retire nothing.  A retired start keeps the log-likelihood of its last
  accepted point, the highest it reached up to the few ulps an accepted
  step may give up; on either ridge it can exceed the reported estimate's,
  which is the best converged interior start (see :func:`fit_mle`).
- Determinism.  Rows never interact: every sum runs along one row, every
  eigendecomposition is per matrix and no reduction rounds by the batch
  size (the psi gaps sum their Gauss nodes explicitly), so a start's path
  does not depend on the other starts, bit for bit.  The best converged
  start wins by (log-likelihood, start index).
- Memory.  The kernel runs in row blocks of at most ``_BLOCK_ELEMENTS``
  doubles (starts x observations) per buffer, unless a single row is
  longer.  Each fit owns one workspace (``Likelihood.workspace``; for the
  Beta-mixed families :class:`_Workspace`), allocated when the fit starts
  and freed when it returns: six
  float buffers of one block in one allocation and a mask, 1.4 MB at
  n = 5000 (6 rows) and 0.8 MB at n = 1000 (16 rows), plus the per-row
  sums.  Every block of every pass writes into their leading rows.  It
  exists for the page faults: with fresh temporaries, about 45 of
  128-240 KB per pass at n >= 1000, glibc mapped or trimmed them again on
  every pass, some 120k minor faults per cycle of the benchmark's 28 fits
  (116k in the four-parameter fits, 3.9k in the flexible Weibull's); with
  the workspace there are under 10.  No buffer is kept between fits or
  shared by two, so concurrent fits stay independent.  The public
  one-row functions make a single pass and use no buffers.
- Profile step.  A family's kernel may move each start and trial row
  before the acceptance test.  The four-parameter kernel does: it makes
  one data pass at (alpha, beta) that forms the per-row sums
  (:func:`_bfw_sums`) and an O(rows) assembly at any (p, q)
  (:func:`_bfw_assemble`).  Given those sums the log-likelihood in (p, q)
  is a Beta(p, q) log-likelihood, and each row takes the best of its own
  (p, q) and the two closed-form solutions of the Beta likelihood equations
  (all shapes small, all shapes large; :func:`_profile_shapes`).  The step
  uses no second pass over the data, rows stay independent, and it never
  lowers a row's log-likelihood; it lets a row jump the orders of magnitude
  that a Newton step in ln q crosses one unit per pass.  The two-parameter
  kernels return their rows as given; there is no option and no second
  path.

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

from . import special
from ._stable import checked, clamped_exp, fw_tail_terms, log_amplitude, tiny_x
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
_GAP_RATIO = 64.0  # shape ratio from which the psi gaps are integrated


@dataclass(frozen=True)
class Dataset:
    """Strictly positive failure times with a provenance label."""

    times: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.times, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("dataset must be a non-empty 1-d collection")
        checked(arr, "all failure times")
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


# the per-row sums of _bfw_sums, those of order 0 first, then 1 and 2
_SUM_NAMES = (
    "ew", "ln_f", "amp", "w",
    "x2_d", "inv_d", "x_ew", "x_r", "ew_x", "r_x",
    "x4_d2", "x2_ew", "x2_c", "x2_d2", "c", "inv_d2", "ew_x2", "c_x2",
)
_SUM_COUNTS = (4, 10, 18)  # sums up to each order
_TAIL_SUMS = frozenset(("ln_f", "x_r", "r_x", "x2_c", "c", "c_x2"))  # of ln F, ratio, curvature


class _Workspace:
    """The data ``x`` of one fit with what its passes share: x^2, and x^4,
    sum x and sum 1/x on first use, and for blocks of up to ``rows`` rows
    the buffers of the kernel (:func:`_bfw_sums`): six (rows, n) float
    arrays in one allocation (w, e^w and four of the five of
    :func:`bfw._stable.fw_tail_terms`, whose ratio takes the place of w),
    one (rows, n) mask and the (sums, rows) array the rows are reduced
    into.  A block of r rows writes into the leading r rows of each, so the
    passes of a fit allocate no data-sized temporaries.  With ``rows``
    None there are no buffers and every result is a new array: the public
    one-row functions make a single pass, which has nothing to reuse.

    ``tiny`` is whether some x^2 is subnormal, whatever beta
    (:func:`bfw._stable.tiny_x`); only then do the passes form
    ln(alpha + beta/x^2) by :func:`bfw._stable.log_amplitude`, whose far
    form takes the elements where x^2 is subnormal or beta/x^2 overflows.
    """

    def __init__(self, x, rows=None):
        self.x = x
        self.tiny = tiny_x(x, 0.0)
        with np.errstate(all="ignore"):
            self.x2 = x * x
        self.floats = self.mask = self.sums = None
        if rows is not None:
            self.floats = np.empty((6, rows, x.size))
            self.mask = np.empty((rows, x.size), dtype=bool)
            self.sums = np.empty((len(_SUM_NAMES), rows))

    def buffers(self, rows):
        """The six float buffers, the mask and the sums array for ``rows``
        rows, as views of their leading rows; the buffers and the mask are
        None, and the sums array new, when the workspace has none."""
        if self.floats is None:
            return (None,) * 6, None, np.empty((len(_SUM_NAMES), rows))
        return self.floats[:, :rows], self.mask[:rows], self.sums[:, :rows]

    @functools.cached_property
    def x4(self):
        with np.errstate(all="ignore"):
            return self.x2 * self.x2

    @functools.cached_property
    def sum_x(self):
        return _rowsum(self.x)

    @functools.cached_property
    def sum_inv_x(self):
        with np.errstate(all="ignore"):
            return _rowsum(1.0 / self.x)

    @functools.cached_property
    def x_max(self):
        return self.x.max()


def _bfw_sums(x, alpha, beta, order, ws=None, tails=True):
    """One pass over the data at rows (alpha, beta): the per-row sums in
    which the log-likelihood, score and information are affine given (p, q).

    Order 0 forms sum e^w (minus T2), sum ln F (T1), sum ln(alpha + beta/x^2)
    and sum w; order 1 adds the x- and 1/x-weighted sums of e^w and of the
    ratio e^w/(e^{e^w} - 1), and sum x^2/D and sum 1/D with
    D = beta + alpha x^2; order 2 adds the x^2-, 1/x^2- and D^-2-weighted
    sums of e^w, the ratio's curvature and 1.  w, e^w and the tail terms are
    formed once per element (:func:`bfw._stable.fw_tail_terms`).  Each row
    is reduced on its own, so its sums do not depend on the other rows.
    With ``tails`` False neither the tail terms (ln F, the ratio and its
    curvature) nor the sums ``_TAIL_SUMS`` they enter are formed: at
    p = q = 1, the flexible Weibull, every one is multiplied by p - 1 = 0.

    Every elementwise result is written into the buffers of ``ws``, a
    :class:`_Workspace` for ``x`` with room for these rows, or is a new
    array where it has none (``ws`` None: a new one without buffers).  The
    sums are views of its sums array, valid until its next pass.
    """
    n = x.size
    rows = alpha.size
    if ws is None:
        ws = _Workspace(x)
    (w, ew, s, f, ln_f, curv), mask, totals = ws.buffers(rows)
    names = [name for name in _SUM_NAMES[: _SUM_COUNTS[order]] if tails or name not in _TAIL_SUMS]
    sums = dict(zip(names, totals), n=n)
    x2 = ws.x2
    ac, bc = alpha[:, None], beta[:, None]
    with np.errstate(all="ignore"):
        w = np.subtract(np.multiply(ac, x, w), np.divide(bc, x, s), w)
        _rowsum(w, out=sums["w"])
        ew = clamped_exp(w, ew)
        if tails:
            ln_f, ratio, curv = fw_tail_terms(w, ew, ratio=order >= 1, curvature=order == 2,
                                              out=(s, f, ln_f, w, curv, mask))
            _rowsum(ln_f, out=sums["ln_f"])
        tmp, denom = s, f  # S and F are free from here on
        _rowsum(ew, out=sums["ew"])
        if ws.tiny:
            _rowsum(log_amplitude(x, ac, bc, True), out=sums["amp"])
        else:
            _rowsum(np.log(np.add(ac, np.divide(bc, x2, tmp), tmp), tmp), out=sums["amp"])
        if order == 0:
            return sums
        denom = np.add(bc, np.multiply(ac, x2, denom), denom)
        sums.update(x=ws.sum_x, inv_x=ws.sum_inv_x)
        _sum_products(sums, tmp, (
            ("x2_d", np.divide, x2, denom), ("inv_d", np.divide, 1.0, denom),
            ("x_ew", np.multiply, x, ew), ("ew_x", np.divide, ew, x),
        ))
        if tails:
            _sum_products(sums, tmp, (
                ("x_r", np.multiply, x, ratio), ("r_x", np.divide, ratio, x),
            ))
        if order == 1:
            return sums
        denom = np.square(denom, denom)
        _sum_products(sums, tmp, (
            ("x4_d2", np.divide, ws.x4, denom), ("x2_ew", np.multiply, x2, ew),
            ("x2_d2", np.divide, x2, denom), ("inv_d2", np.divide, 1.0, denom),
            ("ew_x2", np.divide, ew, x2),
        ))
        if tails:
            _rowsum(curv, out=sums["c"])
            _sum_products(sums, tmp, (
                ("x2_c", np.multiply, x2, curv), ("c_x2", np.divide, curv, x2),
            ))
    return sums


def _sum_products(sums, tmp, products):
    """Each ``sums[name]``, from (name, ufunc, a, b) in ``products``, set to
    the row sums of ufunc(a, b), formed in the buffer ``tmp`` (None: a new
    array)."""
    for name, op, a, b in products:
        _rowsum(op(a, b, tmp), out=sums[name])


def _shape_terms(shapes, order):
    """The shape terms of the score (order >= 1) and information (order 2)
    at rows ``shapes`` = (p, q), a (2, m) array: the digamma gaps
    psi(p+q) - (psi(p), psi(q)), stacked like ``shapes``, and for order 2
    the trigamma psi'(p+q) and the trigamma gaps (psi'(p), psi'(q)) -
    psi'(p+q).  Between shapes more than ``_GAP_RATIO`` times apart, where a
    direct difference would lose some (b/s) max(1, ln b) ulps of psi(b),
    the gaps at the larger shape b come from
    :func:`bfw.special.polygamma_gaps`, which does not cancel.  Returns
    (gaps, trigamma, trigamma gaps), None for parts above ``order``.
    Callers hold ``np.errstate(all="ignore")``."""
    sp = special._scipy()
    total = shapes[0] + shapes[1]
    gaps = sp.psi(total) - sp.psi(shapes)
    tri_s = tri_gaps = None
    if order == 2:
        tri_s = sp.zeta(2.0, total)  # polygamma(1, s) = zeta(2, s), bit for bit
        tri_gaps = sp.zeta(2.0, shapes) - tri_s
    other = shapes[::-1]
    far = other * _GAP_RATIO < shapes
    if far.any():
        d_psi, d_tri = special.polygamma_gaps(shapes[far], other[far])
        gaps[far] = d_psi
        if order == 2:
            tri_gaps[far] = d_tri
    return gaps, tri_s, tri_gaps


def _bfw_assemble(sums, p, q, order):
    """Log-likelihood, score (order >= 1) and information (order 2) of each
    row at shapes (p, q) from its :func:`_bfw_sums` of at least that order:
    O(rows) work, no pass over the data.  A row whose log-likelihood is not representable gives -inf."""
    n = sums["n"]
    with np.errstate(all="ignore"):
        ll = (
            -n * special._scipy().betaln(p, q)
            + sums["amp"]
            + sums["w"]
            - q * sums["ew"]
            + (p - 1.0) * sums["ln_f"]
        )
        # any non-representable configuration acts as an impossible fit
        ll = np.where(np.isfinite(ll), ll, -np.inf)
        if order == 0:
            return ll, None, None
        gaps, tri_s, tri_gaps = _shape_terms(np.array([p, q]), order)
        grad = np.empty((ll.size, 4))
        info = np.empty((ll.size, 4, 4)) if order == 2 else None
        _rate_terms(sums, q, p - 1.0, grad, info)
        grad[:, 2] = n * gaps[0] + sums["ln_f"]
        grad[:, 3] = n * gaps[1] - sums["ew"]
        if order == 1:
            return ll, grad, None
        info[:, 0, 2] = -sums["x_r"]
        info[:, 0, 3] = sums["x_ew"]
        info[:, 1, 2] = sums["r_x"]
        info[:, 1, 3] = -sums["ew_x"]
        info[:, 2, 2] = n * tri_gaps[0]
        info[:, 2, 3] = -n * tri_s
        info[:, 3, 3] = n * tri_gaps[1]
    info[:, _LOWER[0], _LOWER[1]] = info[:, _LOWER[1], _LOWER[0]]
    return ll, grad, info


def _rate_terms(sums, q, pm1, grad, info=None):
    """The (alpha, beta) block of the score, written into ``grad[:, :2]``,
    and when ``info`` is given of the information, into ``info[:, :2, :2]``,
    at shapes p and q, ``pm1`` being p - 1, from :func:`_bfw_sums` of that
    order.  With ``pm1`` None, p = 1 and the tail sums, which p - 1 would
    multiply, are not read: at p = q = 1 it is the two-parameter flexible
    Weibull's.  Callers hold ``np.errstate(all="ignore")``."""
    grad[:, 0] = sums["x2_d"] + sums["x"] - q * sums["x_ew"]
    grad[:, 1] = sums["inv_d"] - sums["inv_x"] + q * sums["ew_x"]
    if pm1 is not None:
        grad[:, 0] += pm1 * sums["x_r"]
        grad[:, 1] -= pm1 * sums["r_x"]
    if info is None:
        return
    info[:, 0, 0] = sums["x4_d2"] + q * sums["x2_ew"]
    info[:, 0, 1] = sums["x2_d2"] - q * sums["ew"]
    info[:, 1, 1] = sums["inv_d2"] + q * sums["ew_x2"]
    if pm1 is not None:
        info[:, 0, 0] -= pm1 * sums["x2_c"]
        info[:, 0, 1] += pm1 * sums["c"]
        info[:, 1, 1] -= pm1 * sums["c_x2"]
    info[:, 1, 0] = info[:, 0, 1]


def _bfw_evaluate(x, theta, order=2, ws=None):
    """Log-likelihood of each row of a (m, 4) batch of (alpha, beta, p, q),
    plus for ``order`` >= 1 the score (m, 4) and for ``order`` 2 the observed
    information (m, 4, 4); parts not asked for are None.  One data pass
    (:func:`_bfw_sums`) and its assembly at the rows' own shapes
    (:func:`_bfw_assemble`), written into the workspace ``ws`` as
    :func:`_bfw_sums` says."""
    sums = _bfw_sums(x, theta[:, 0], theta[:, 1], order, ws)
    return _bfw_assemble(sums, theta[:, 2], theta[:, 3], order)


def _profile_shapes(n, t, shapes):
    """The profile step of each row's shapes ``shapes`` = (p, q), given its
    sums ``t`` = (t1, t2) = (sum ln F, -sum e^w), both (2, m) arrays.

    For fixed (alpha, beta) the log-likelihood is
    phi = -n ln B(p, q) + p t1 + q t2 plus terms free of (p, q): a
    Beta(p, q) log-likelihood of n points y with sum ln y = t1 and
    sum ln(1 - y) = t2.  Its likelihood equations
    n [psi(p+q) - psi(p)] + t1 = 0 and n [psi(p+q) - psi(q)] + t2 = 0 have
    closed-form solutions in two limits, with (a, b) = -t/n:

    - both shapes small, psi(x) ~ -1/x - gamma:
      p = 1/(a + sqrt(a b)), q = 1/(b + sqrt(a b));
    - both shapes large, psi(x) ~ ln(x - 1/2):
      (p, q) = 1/2 + (e^-a, e^-b) / (2 (1 - e^-a - e^-b)).

    A row moves to whichever of them has the highest phi, when that is
    above its own, so the move never lowers its log-likelihood; the
    four-parameter Newton step refines from there.  This is what ends the
    ln q crawl: where -q sum e^w dominates a row, a Newton step in ln q is
    -1 per pass, while the small-shape solution lands at q ~ n / sum e^w at
    once.  The Beta likelihood has a maximum only where e^-a + e^-b < 1;
    elsewhere, and where the sums are not finite, a row keeps its (p, q).
    Rows are independent.  Returns the shapes, ``shapes`` itself when no
    row moves.
    """
    with np.errstate(all="ignore"):
        g = np.exp(t / n)  # e^-a, e^-b
        gap = 1.0 - (g[0] + g[1])
        a = np.where(gap > 0.0, t / -n, np.nan)  # no candidate where no maximum exists
        cand = np.array([shapes, 1.0 / (a + np.sqrt(a[0] * a[1])), 0.5 + (0.5 / gap) * g])
        phi = np.add.reduce(cand * t, axis=1) - n * special._scipy().betaln(cand[:, 0], cand[:, 1])
        best = np.where(phi == phi, phi, -np.inf).argmax(axis=0)
        if best.any():
            shapes = cand[best, :, np.arange(best.size)].T
        return shapes


def _walk_terms(sums, theta, x_max):
    """The terms by which the fitter retires a row (see ``_newton``), from
    its :func:`_bfw_sums` and its parameters ``theta`` on data whose largest
    value is ``x_max``, as a (rows, 5) array:

    - the log-likelihood's rounding error eps (n |ln B(p, q)|
      + |sum ln(alpha + beta/x^2)| + |sum w| + q sum e^w + |p - 1| |sum ln F|);
    - ln(q sum e^w / n): while -q sum e^w dominates, a Newton step in ln q
      is -1 per pass, so this is the number of passes before it comes down
      to n;
    - ln(-sum ln F / n): the profile step has a candidate, and can end that
      crawl at once, only where this exceeds ln(eps / 2) (below it
      exp(sum ln F / n) rounds to 1; -inf where every ln F rounds to 0);
    - sqrt(beta/alpha) / x_max - 1, which ridge A takes to 0;
    - (e - 1) q / p - 1, which ridge B takes to 0.
    """
    n = sums["n"]
    alpha, beta, p, q = theta.T
    walk = np.empty((p.size, 5))
    with np.errstate(all="ignore"):
        q_ew = q * sums["ew"]
        walk[:, 0] = _EPS * (n * np.abs(special._scipy().betaln(p, q)) + np.abs(sums["amp"])
                             + np.abs(sums["w"]) + q_ew + np.abs((p - 1.0) * sums["ln_f"]))
        walk[:, 1] = np.log(q_ew / n)
        walk[:, 2] = np.log(sums["ln_f"] / -n)
        walk[:, 3] = np.sqrt(beta / alpha) / x_max - 1.0
        walk[:, 4] = _E_MINUS_1 * q / p - 1.0
    return walk


def _bfw_profiled(x, theta, ws):
    """The four-parameter kernel of the fitter on (alpha, beta, p, q) rows:
    one data pass at each row's (alpha, beta), the profile step of its
    (p, q) (:func:`_profile_shapes`) from the sums of that pass, and the
    log-likelihood, score and information assembled at the result.
    Returns (theta, ll, grad, info, walk), ``walk`` from
    :func:`_walk_terms`; the data pass writes into the workspace ``ws`` as
    :func:`_bfw_sums` says."""
    sums = _bfw_sums(x, theta[:, 0], theta[:, 1], 2, ws)
    start = theta[:, 2:].T
    shapes = _profile_shapes(sums["n"], np.array([sums["ln_f"], -sums["ew"]]), start)
    ll, grad, info = _bfw_assemble(sums, shapes[0], shapes[1], 2)
    if shapes is not start:  # some row moved
        theta = theta.copy()
        theta[:, 2:] = shapes.T
    return theta, ll, grad, info, _walk_terms(sums, theta, ws.x_max)


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
    """What a caller sets of the fitter: the number of four-parameter starts
    (the two-parameter families start from four fixed points) and the score
    sup-norm of the convergence test, strictly positive and finite.  The
    rest is fixed in this module (``_REL_LL_TOL``, ``_MAX_ITER`` and the
    start range ``_START_LOG_LOW``, ``_START_LOG_HIGH``)."""

    starts: int = 16
    score_tol: float = 1e-6

    def __post_init__(self):
        if self.starts < 1:
            raise DomainError("at least one start is required")
        checked(self.score_tol, "score tolerance")


@dataclass(frozen=True)
class StartDiagnostics:
    """How one start ended: its start point, final log-likelihood and score
    sup-norm, accepted steps (``iterations``), kernel passes
    (``evaluations``) and why it stopped (``message``).  A retired start's
    message begins "retired:" and its log-likelihood is the highest it
    reached, which on a boundary ridge can exceed the fit's."""

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
    natural parameter array from :func:`fit_family`; score, information and
    covariance are in the same parameters, and :func:`confidence_intervals`
    reads intervals off them at any level."""

    estimates: BFWParams | np.ndarray
    log_likelihood: float
    score_at_optimum: np.ndarray
    observed_information: np.ndarray
    covariance: np.ndarray | None
    condition_number: float
    converged: bool
    iterations: int
    multistart_best_of: int
    trajectory: tuple[float, ...] = field(repr=False, default=())
    starts: tuple[StartDiagnostics, ...] = field(repr=False, default=())


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
    span = _START_LOG_HIGH - _START_LOG_LOW
    return _START_LOG_LOW + _sobol(config.starts) * span


@dataclass(frozen=True)
class Likelihood:
    """What the fitter needs of a family, over its natural parameter array.

    ``kernel(x, theta, ws)`` takes a (starts, k) batch of parameter rows and
    returns (theta, ll, grad, info, walk): the rows, each moved on its own
    to a point whose log-likelihood is no lower where the family has a
    profile step and as given elsewhere, and at them the log-likelihood
    (starts,), -inf where a term is not representable, the analytic score
    (starts, k) and the observed information (starts, k, k).  ``walk``
    holds the (starts, 5) terms by which the fitter retires a row that
    cannot converge (its log-likelihood's rounding error, the length of its
    ln q crawl, how near the profile step is to ending it and its offsets
    from the two ridges, see :func:`_walk_terms`); a family that reports
    None retires no row.  ``ws`` is what ``workspace(x, rows)`` returns:
    what every pass of one fit on data ``x`` shares, with buffers for
    blocks of at most ``rows`` rows; the fitter makes one per fit.
    ``starts(config)`` gives the start points in log-parameter space, one
    per row; ``names`` name the columns of theta.
    """

    kernel: Callable
    starts: Callable
    names: tuple[str, ...]
    workspace: Callable


BFW = Likelihood(_bfw_profiled, _start_grid, PARAM_NAMES, _Workspace)

# Relative damping of the Newton step: the first step of every start uses
# _DAMPING_START; an accepted step divides it by 3 (not below _DAMPING_MIN),
# consecutive rejections multiply it by 2, 4, 8, ...; a start whose damping
# passes _DAMPING_MAX stops.
_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-15
_DAMPING_MAX = 1e10
# The convergence test's log-likelihood change per unit of 1 + |ll|, the
# trial steps of a start, and the range of the start grid in every
# log-parameter.
_REL_LL_TOL = 1e-12
_MAX_ITER = 100
_START_LOG_LOW = math.log(1e-3)
_START_LOG_HIGH = math.log(1e2)
_EPS = float(np.finfo(float).eps)
_SLACK = 4.0 * _EPS  # relative log-likelihood loss a step may take
_LN_HALF_EPS = math.log(_EPS / 2.0)
_BLOCK_ELEMENTS = 1 << 15  # starts x observations per workspace buffer (256 KB)

# Retirement of a start that cannot meet the convergence test (_walking).
# Measured over pumps, the benchmark's 26 fit draws and 200 fresh draws
# (anchors with each parameter scaled by e^(0.5 N(0, 1)), n from 23 to 1000)
# against the same fitter without retirement: every fit, estimate and
# log-likelihood is bit-identical, none of the 2,105 starts that converge
# is retired, and panel start-passes fall from 17,751 to 14,348 (none of
# 1,702 converging starts on 200 more fresh draws either).  Rejected: a
# rounding threshold of 1e-8 retired one converging start in each fresh
# set; retiring rows whose (p, q) profile has no maximum retired 26
# converging starts on 80 fresh fits; a stop on stationarity in ln theta
# fired one pass before interior starts converge; the crawl test without
# the profile step's approach retired 2 converging starts, whose beta drift
# raised sum ln F from ~1e-106 to where the profile step ended the crawl.
_RETIRE_AFTER = 3  # consecutive accepted points on which a trigger holds
_RETIRE_ROUNDING = 3e-8  # rounding error per unit of 1 + |ll|
_RETIRE_CRAWL_SLACK = 5.0  # unit ln q steps beyond the budget left
_RETIRE_MOVING = 0.01  # largest |step| in z of a start still moving

# The boundary limits that non-converging starts walk (see fit_mle), each
# recognized by its signature in theta and x_(n) plus the motion along it.
# Measured over pumps, the benchmark's 26 fit draws and 160 fresh draws
# (seeds 7, 11, 13 and 17 of the tests' fresh_draws) against the same
# fitter without them: none of the 1,659 starts that converge there is
# retired, every start that converges ends bit-identically, every fit is
# unchanged, and the loop passes of the benchmark's 28-fit cycle fall from
# 1,923 to 1,620.  The motion terms are what spare the converging starts:
# start 0 on pumps, and on several panel draws, sits ~10 passes on ridge
# B's plateau (ln p ~ 10.5) with the ratio test met, and then turns back
# to the interior maximum.  Rejected: the q limit at ln q > 30 rising by
# 0.5 retired a converging start (fresh seed 7, draw 30, start 15).
_RIDGE_OFFSET = 1e-3  # |signature - 1| of a row on a ridge
_RIDGE_A_LN_P = math.log(1e-3)  # ridge A: ln p below this and still falling
_RIDGE_B_LN_P = math.log(1e4)  # ridge B: ln p above this ...
_RIDGE_B_RISE = 0.1  # ... and rising by at least this per accepted point
_Q_LIMIT_LN_Q = 60.0  # q limit: ln q above this, with p < 1 ...
_Q_LIMIT_RISE = 1.0  # ... and rising by at least this per accepted point
_E_MINUS_1 = math.e - 1.0

_ACTIVE, _CONVERGED, _BUDGET, _REJECTED, _NONFINITE, _RETIRED = range(6)
_STOP_MESSAGES = {
    _CONVERGED: "converged: score and log-likelihood change within tolerance",
    _BUDGET: "iteration budget exhausted",
    _REJECTED: "step rejected at the largest damping",
    _NONFINITE: "log-likelihood, score or information not finite at the start",
}
_RETIRE_MESSAGES = (
    "retired: log-likelihood rounding error exceeds what the convergence test resolves",
    "retired: the ln q crawl cannot finish within the iteration budget",
    "retired: log-likelihood flat while the step still moves",
    "retired: on ridge A (p -> 0, sqrt(beta/alpha) -> x_(n)), where the likelihood is unbounded",
    "retired: on ridge B (p, q -> inf, q/p -> 1/(e - 1)), toward its finite limit",
    "retired: on the q -> inf limit with p < 1",
)


def _block_rows(n):
    """Rows per block of the kernel on n observations."""
    return max(1, _BLOCK_ELEMENTS // n)


def _evaluate(kernel, x, theta, ws):
    """``kernel(x, theta, ws)`` in row blocks of at most ``_BLOCK_ELEMENTS``
    elements per temporary, so memory stays bounded for large samples."""
    rows = _block_rows(x.size)
    if theta.shape[0] <= rows:
        return kernel(x, theta, ws)
    blocks = [kernel(x, theta[i : i + rows], ws) for i in range(0, len(theta), rows)]
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks))


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


def _follow(z, theta):
    """Set z = ln theta in place where the family's kernel moved theta away
    from e^z; elsewhere z stays as stepped."""
    moved = theta != np.exp(z)
    if moved.any():
        z[moved] = np.log(theta[moved])


def _walking(before, walk, ll, change, z, step, left):
    """Which retirement trigger holds at each trial point, a (rows, 6)
    boolean array in the order of ``_RETIRE_MESSAGES``, from the point's
    :func:`_walk_terms` ``walk``, the ln(-sum ln F / n) term ``before`` of
    the row's previous accepted point, the log-likelihood ``change``, the
    point ``z`` = ln theta and the ``step`` in z that led to it:

    - rounding: the log-likelihood's rounding error exceeds
      ``_RETIRE_ROUNDING`` (1 + |ll|), so it cannot resolve ``_REL_LL_TOL``;
    - crawl: the ln q crawl outlasts the passes ``left`` by more than
      ``_RETIRE_CRAWL_SLACK``, and so does the profile step's approach to a
      candidate, at the rate ln(-sum ln F / n) rose since ``before``;
    - flat: the log-likelihood changed within the convergence tolerance
      while the step moved z by at least ``_RETIRE_MOVING``;
    - ridge A: sqrt(beta/alpha) within ``_RIDGE_OFFSET`` of x_(n), with p
      below e^``_RIDGE_A_LN_P`` and falling;
    - ridge B: (e - 1) q/p within ``_RIDGE_OFFSET`` of 1, with p above
      e^``_RIDGE_B_LN_P`` and ln p rising by at least ``_RIDGE_B_RISE``;
    - q limit: ln q above ``_Q_LIMIT_LN_Q`` and rising by at least
      ``_Q_LIMIT_RISE``, with p < 1.
    """
    scale = 1.0 + np.abs(ll)
    span = left + _RETIRE_CRAWL_SLACK
    with np.errstate(invalid="ignore"):
        rate = walk[:, 2] - before  # nan where both are -inf
        ends = (rate > 0.0) & (_LN_HALF_EPS - walk[:, 2] <= rate * span)
        near = np.abs(walk[:, 3:]) < _RIDGE_OFFSET
    ln_p, ln_q = z[:, 2], z[:, 3]
    holds = np.empty((ll.size, len(_RETIRE_MESSAGES)), dtype=bool)
    holds[:, 0] = walk[:, 0] > _RETIRE_ROUNDING * scale
    holds[:, 1] = (walk[:, 1] > span) & ~ends
    moving = np.abs(step).max(axis=1) >= _RETIRE_MOVING
    holds[:, 2] = (change <= _REL_LL_TOL * scale) & moving
    holds[:, 3] = near[:, 0] & (ln_p < _RIDGE_A_LN_P) & (step[:, 2] < 0.0)
    holds[:, 4] = near[:, 1] & (ln_p > _RIDGE_B_LN_P) & (step[:, 2] >= _RIDGE_B_RISE)
    holds[:, 5] = (ln_q > _Q_LIMIT_LN_Q) & (step[:, 3] >= _Q_LIMIT_RISE) & (ln_p < 0.0)
    return holds


def _newton(likelihood, x, z0, config):
    """Damped Newton ascent of every start at once (see the module notes);
    the rows of ``z0`` are the starts in log-parameters.

    Each pass evaluates one trial step for every start still active, at the
    rows ``likelihood.kernel`` moves it to.  A start is retired when one
    trigger of :func:`_walking` holds on ``_RETIRE_AFTER`` consecutive
    accepted points, from the terms its family reports; the budget stop wins
    when both fall on one pass.  Returns the final parameters,
    log-likelihood, score and information per start, its stop code, accepted
    steps, kernel passes, the log-likelihoods of its improving steps and its
    stop message.
    """
    z = np.array(z0, dtype=float)
    m = z.shape[0]
    kernel, ws = likelihood.kernel, likelihood.workspace(x, min(m, _block_rows(x.size)))
    with np.errstate(over="ignore"):
        theta, ll, grad, info, walk = _evaluate(kernel, x, np.exp(z), ws)
        reach = None if walk is None else walk[:, 2]
        _follow(z, theta)
    g, h, finite = _log_space(theta, grad, info)
    norm = np.max(np.abs(grad), axis=1)
    stop = np.where(np.isfinite(ll) & finite, _ACTIVE, _NONFINITE)
    iterations = np.zeros(m, dtype=int)
    evaluations = np.ones(m, dtype=int)
    damping = np.full(m, _DAMPING_START)
    growth = np.full(m, 2.0)
    change = np.full(m, math.inf)
    streak = np.zeros((m, len(_RETIRE_MESSAGES)), dtype=int)
    trajectories = [[float(value)] for value in ll]
    active = np.flatnonzero(stop == _ACTIVE)
    while True:
        settled = (norm[active] <= config.score_tol) & (
            change[active] <= _REL_LL_TOL * (1.0 + np.abs(ll[active])))
        retire = (streak[active] >= _RETIRE_AFTER).any(axis=1)
        stop[active] = np.where(
            settled, _CONVERGED, np.where(
                evaluations[active] > _MAX_ITER, _BUDGET, np.where(
                    retire, _RETIRED, np.where(
                        damping[active] > _DAMPING_MAX, _REJECTED, _ACTIVE))))
        active = active[stop[active] == _ACTIVE]
        if active.size == 0:
            break
        z_t = z[active] + _damped_steps(g[active], h[active], damping[active])
        with np.errstate(over="ignore"):
            theta_t, ll_t, grad_t, info_t, walk_t = _evaluate(kernel, x, np.exp(z_t), ws)
            _follow(z_t, theta_t)
        g_t, h_t, finite_t = _log_space(theta_t, grad_t, info_t)
        norm_t = np.max(np.abs(grad_t), axis=1)
        ll_a = ll[active]
        better = ll_t > ll_a
        close = (ll_t >= ll_a - _SLACK * (1.0 + np.abs(ll_a))) & (norm_t < norm[active])
        accept = finite_t & (better | close)
        evaluations[active] += 1
        change_t = np.abs(ll_t - ll_a)  # inf for a non-representable trial
        change[active] = change_t

        rows = active[accept]
        if walk_t is not None:
            left = _MAX_ITER + 1 - evaluations[active]
            holds = _walking(reach[active], walk_t, ll_t, change_t, z_t, z_t - z[active], left)
            streak[rows] = (streak[rows] + 1) * holds[accept]
            reach[rows] = walk_t[accept, 2]
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
    messages = [
        _RETIRE_MESSAGES[np.argmax(streak[i] >= _RETIRE_AFTER)] if code == _RETIRED
        else _STOP_MESSAGES[code] for i, code in enumerate(stop)
    ]
    return theta, ll, grad, info, stop, iterations, evaluations, trajectories, messages


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


def checked_level(level):
    """``level`` once it lies in (0, 1); raises :class:`DomainError` otherwise."""
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    return level


def interval_bounds(estimates, variances, level):
    """theta_hat +/- z * sqrt(var) per parameter, lower endpoint clamped at 0.

    A negative variance (indefinite information) yields None for that
    parameter instead of a nonsensical interval.
    """
    z = special.std_normal_quantile(0.5 + 0.5 * checked_level(level))
    out = []
    for est, var in zip(np.asarray(estimates, float), np.asarray(variances, float)):
        if var < 0.0 or not math.isfinite(var):
            out.append(None)
            continue
        half = z * math.sqrt(var)
        out.append((float(max(0.0, est - half)), float(est + half)))
    return tuple(out)


def confidence_intervals(fit, level=0.95):
    """Asymptotic normal intervals of a fit's estimates at the given level,
    by :func:`interval_bounds`; the estimates may be :class:`BFWParams` or a
    family's natural parameter array."""
    if fit.covariance is None:
        raise NumericError("covariance unavailable: observed information not positive definite")
    estimates = fit.estimates
    if isinstance(estimates, BFWParams):
        estimates = estimates.as_array()
    return interval_bounds(estimates, np.diag(fit.covariance), level)


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
    theta, ll, grad, info, stop, iterations, evaluations, trajectories, messages = _newton(
        likelihood, data.times, z0, config)
    diagnostics = tuple(
        StartDiagnostics(
            index=i,
            theta0=tuple(np.exp(z0[i])),
            log_likelihood=float(ll[i]),
            score_inf_norm=float(np.max(np.abs(grad[i]))),
            converged=bool(stop[i] == _CONVERGED),
            iterations=int(iterations[i]),
            message=messages[i],
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
    return FitResult(
        estimates=theta[best],
        log_likelihood=float(ll[best]),
        score_at_optimum=grad[best],
        observed_information=info[best],
        covariance=covariance,
        condition_number=cond,
        converged=True,
        iterations=int(iterations[best]),
        multistart_best_of=len(z0),
        trajectory=tuple(trajectories[best]),
        starts=diagnostics,
    )


def fit_mle(data, config=None):
    """Maximum-likelihood fit of the four-parameter model by :func:`fit_family`.

    The likelihood has no global maximum.  With a = alpha p, b = beta p and
    q/p fixed, let p -> 0 with b = x_(n) (a x_(n) + p ln q): the density puts
    a spike of width O(p) on the largest observation and
    ln L = ln(1/p) + C, unbounded (ridge A; Cheng & Amin 1983, JRSS B
    45:394-403, treat this case for threshold models).  The reported
    estimate is therefore a local maximum: the best converged interior
    stationary point.  Its information was positive definite on every
    converged fit of pumps, the benchmark's fit panel and 160 fresh draws;
    where it is not, ``covariance`` is None.  A fit fails, with
    :class:`ConvergenceError`, when its starts end on the boundary instead;
    on the benchmark's fit panel every failed fit ends on ridge B:
    alpha, beta -> 0 and p, q -> inf with q/p -> 1/(e - 1), whose limit is
    the finite three-parameter model a x - b/x ~ N(mu, 1), and whose
    walkers reach that model's maximum log-likelihood.  A start's message
    names the limit it was retired on (see the module notes):
    "retired: on ridge A", "retired: on ridge B", or "retired: on the
    q -> inf limit" (ln q above 60 and rising, with p < 1).

    Raises :class:`DomainError` for fewer than five observations and
    :class:`ConvergenceError` when no start converges.
    """
    if data.n < 5:
        raise DomainError("at least five observations are needed for a four-parameter fit")
    fit = fit_family(data, BFW, config)
    return replace(fit, estimates=BFWParams(*fit.estimates))
