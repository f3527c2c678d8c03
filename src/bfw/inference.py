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
  one-row functions make their one pass in a one-row workspace.
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
- Pass cost.  At n <= 1000 a pass costs mostly its few hundred small numpy
  calls, so it forms each value once, reduces its sums a few at a time,
  copies no state it does not change, and ``_newton`` and each kernel hold
  the one ``np.errstate(all="ignore")`` that the helpers run under (the
  data pass opens one more around the tail terms).  A four-parameter pass
  costs ~370 us at n = 23 and ~820 at n = 1000 on a 2-vCPU VM (README,
  "Pass cost").

Every family's likelihood lives here: :data:`BFW`, the four-parameter
model with its profile step; :data:`FW`, the flexible Weibull as the
(alpha, beta) block of the same data pass at p = q = 1; :data:`WEIBULL`,
the scale-form Weibull.  The two-parameter families start from four fixed
points.  :func:`fit_mle` fits the four-parameter model; ``model_selection``
compares the families.
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
from ._stable import _tail_terms, checked, log_amplitude, tiny_x
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


def _rowsum(a, out=None):  # a partial with the keyword out costs a dict per call
    return np.add.reduce(a, -1, None, out)  # np.sum over the last axis


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


# The rows of _Workspace.totals.  The first three runs of five are the terms
# of the entries (a, b, aa, bb, ab) of the (alpha, beta) block (_rate_terms):
# the D-weighted sums, the sums that q multiplies and those that p - 1 does.
_SUM_NAMES = (
    "x2_d", "inv_d", "x4_d2", "inv_d2", "x2_d2",
    "x_ew", "ew_x", "x2_ew", "ew_x2", "ew",
    "x_r", "r_x", "x2_c", "c_x2", "c",
    "w", "amp", "ln_f",
)
_D_RUN, _Q_RUN, _P_RUN = slice(0, 5), slice(5, 10), slice(10, 15)
_ORDERS = dict.fromkeys(("ew", "w", "amp", "ln_f"), 0) | dict.fromkeys(
    ("x2_d", "inv_d", "x_ew", "ew_x", "x_r", "r_x"), 1)  # the rest are of order 2
_TAIL_SUMS = frozenset(("ln_f", "x_r", "r_x", "x2_c", "c", "c_x2"))  # of ln F, ratio, curvature
# the sign of the q term of each entry (a, b, aa, bb, ab); the p - 1 term has the other
_Q_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0, -1.0])[:, None]


class _Workspace:
    """The data ``x`` of one fit with what its passes share: x^2, and x^4,
    sum x and sum 1/x on first use, and for blocks of up to ``rows`` rows
    the buffers of the kernel (:func:`_bfw_sums`): six (rows, n) float
    arrays in one allocation and one (rows, n) mask, of which a block of r
    rows writes the leading r rows, so the passes of a fit allocate no
    data-sized temporaries.  The r rows are reduced into ``totals[r]``, a
    contiguous (sums, r) array in the order of ``_SUM_NAMES``, made on the
    first pass of r rows, and their sums are named by one dict per
    (r, order, tails) (:meth:`sums`).

    ``tiny`` is whether some x^2 is subnormal, whatever beta
    (:func:`bfw._stable.tiny_x`); only then do the passes form
    ln(alpha + beta/x^2) by :func:`bfw._stable.log_amplitude`, whose far
    form takes the elements where x^2 is subnormal or beta/x^2 overflows.
    """

    def __init__(self, x, rows):
        self.x = x
        self.tiny = tiny_x(x, 0.0)
        with np.errstate(all="ignore"):
            self.x2 = x * x
        self.floats = np.empty((6, rows, x.size))
        self.mask = np.empty((rows, x.size), dtype=bool)
        self.totals = {}
        self.named = {}

    def sums(self, rows, order, tails):
        """The sums of :func:`_bfw_sums` for ``rows`` rows by name, views of
        the rows of ``totals[rows]``, plus n, that whole array (``all``), and
        from order 1 on sum x, sum 1/x and the ``offsets``
        (sum x, -sum 1/x, 0, 0, 0) of the entries of :func:`_rate_terms`."""
        key = rows, order, tails
        sums = self.named.get(key)
        if sums is None:
            block = self.totals.get(rows)
            if block is None:
                block = self.totals[rows] = np.empty((len(_SUM_NAMES), rows))
            sums = self.named[key] = {
                name: row for name, row in zip(_SUM_NAMES, block)
                if _ORDERS.get(name, 2) <= order and (tails or name not in _TAIL_SUMS)}
            sums.update(n=self.x.size, all=block)
            if order >= 1:
                sums.update(x=self.sum_x, inv_x=self.sum_inv_x, offsets=self.offsets)
        return sums

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
    def offsets(self):
        return np.array([self.sum_x, -self.sum_inv_x, 0.0, 0.0, 0.0])[:, None]

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

    Every elementwise result is written into the six buffers of ``ws``, a
    :class:`_Workspace` for ``x`` with room for these rows (``ws`` None: a
    new one sized for them).  The buffers hold, in turn: w, then the ratio,
    then products (0); e^w (1); S, then the amplitude and products (2); the
    curvature (3); ln F, then products (4); F, then D, D^2 and a product
    (5).  The terms of two or three sums are formed in buffers an equal step
    apart, so that one ``np.add.reduce`` over that strided view sums them
    into rows of the sums array an equal step apart, eight reductions for
    the eighteen sums; each row is still summed pairwise on its own.  The
    sums are views of the sums array, valid until its next pass of as many
    rows.
    """
    rows = alpha.size
    if ws is None:
        ws = _Workspace(x, rows)
    floats = ws.floats[:, :rows]
    sums = ws.sums(rows, order, tails)
    total = sums["all"]
    x2 = ws.x2
    ac, bc = alpha[:, None], beta[:, None]
    w, ew, amp, curv, ln_f, d = floats  # w's buffer takes the ratio, S's the amplitude, F's D
    pair = floats[2:5:2]  # products, two at a time
    np.subtract(np.multiply(ac, x, w), np.divide(bc, x, amp), w)
    np.exp(w, ew)
    _rowsum(floats[:2], total[15:8:-6])  # w, e^w
    if tails:  # under an error state of its own, as bfw._stable.fw_tail_terms
        with np.errstate(all="ignore"):
            _tail_terms(w, ew, True, order >= 1, order == 2, (amp, d, ln_f, w, curv, ws.mask[:rows]))
    if ws.tiny:
        np.copyto(amp, log_amplitude(x, ac, bc, True))
    else:
        np.log(np.add(ac, np.divide(bc, x2, amp), amp), amp)
    if tails:
        _rowsum(pair, total[16:18])  # the amplitude, ln F
    else:
        _rowsum(amp, total[16])
    if order == 0:
        return sums
    np.add(bc, np.multiply(ac, x2, d), d)
    np.divide(x2, d, pair[0])
    np.divide(1.0, d, pair[1])
    _rowsum(pair, total[0:2])  # x^2/D, 1/D
    if tails:
        np.multiply(w, x, pair[0])
        np.multiply(ew, x, pair[1])
        _rowsum(pair, total[10:4:-5])  # x r, x e^w
        np.divide(w, x, pair[0])
        np.divide(ew, x, pair[1])
        _rowsum(pair, total[11:5:-5])  # r/x, e^w/x
    else:
        np.multiply(ew, x, pair[0])
        np.divide(ew, x, pair[1])
        _rowsum(pair, total[5:7])  # x e^w, e^w/x
    if order == 1:
        return sums
    np.square(d, d)  # the ratio is free from here on
    np.divide(ws.x4, d, w)
    np.divide(1.0, d, amp)
    np.divide(x2, d, ln_f)
    _rowsum(floats[0:5:2], total[2:5])  # x^4, 1, x^2 over D^2
    np.multiply(ew, x2, w)
    np.divide(ew, x2, amp)
    _rowsum(floats[0:3:2], total[7:9])  # x^2 e^w, e^w/x^2
    if tails:
        np.multiply(curv, x2, d)
        np.divide(curv, x2, ln_f)
        _rowsum(floats[5:2:-1], total[12:15])  # x^2 c, c/x^2, c
    return sums


# the rows of the assembly's entries (a, b, aa, bb, ab, score p, score q,
# ap, bp, aq, bq, pp, qq, pq) that make the score and the information
_SCORE_ENTRIES = np.array([0, 1, 5, 6])
_INFO_ENTRIES = np.array([2, 4, 7, 9, 4, 3, 8, 10, 7, 8, 11, 13, 9, 10, 13, 12])
_N_SIGNS = np.array([1.0, 1.0, -1.0])[:, None]  # of n times the trigamma gaps and trigamma


def _bfw_assemble(sums, p, q, order, log_beta=None, walk=None):
    """Log-likelihood, score (order >= 1) and information (order 2) of each
    row at shapes (p, q) from its :func:`_bfw_sums` of at least that order:
    O(rows) work, no pass over the data, taking ln B(p, q) from
    ``log_beta`` when given.  A row whose log-likelihood is not representable
    gives -inf.  Into ``walk``, when given, go the first three columns of
    the fitter's walk terms (:func:`_bfw_profiled`), from the same products.

    The entries of the score and information are formed as the rows of one
    (14, rows) array, like entries by one call over runs of the sums (the
    (alpha, beta) block by :func:`_rate_terms`), and taken from it row by
    row (``_SCORE_ENTRIES``, ``_INFO_ENTRIES``) as contiguous arrays.
    """
    n = sums["n"]
    if log_beta is None:
        log_beta = special._scipy_betaln(p, q)
    n_log_beta = -n * log_beta
    q_ew = q * sums["ew"]
    pm1 = p - 1.0
    tail = pm1 * sums["ln_f"]
    ll = n_log_beta + sums["amp"] + sums["w"] - q_ew + tail
    # any non-representable configuration acts as an impossible fit
    ll = np.where(np.isfinite(ll), ll, -np.inf)
    if walk is not None:
        terms = walk.T
        amp_w = np.abs(sums["all"][16:14:-1])  # |sum amplitude|, |sum w|
        np.multiply(_EPS, np.abs(n_log_beta) + amp_w[0] + amp_w[1] + q_ew + np.abs(tail),
                    terms[0])
        np.divide(q_ew, n, terms[1])
        np.divide(sums["ln_f"], -n, terms[2])
        np.log(terms[1:3], terms[1:3])
    if order == 0:
        return ll, None, None
    gaps, tri = special._log_beta_derivatives(p, q, order)
    total = sums["all"]
    entries = np.empty((14, p.size))
    _rate_terms(sums, q, pm1, order, entries[: 5 if order == 2 else 2])
    np.multiply(n, gaps, entries[5:7])
    entries[5] += sums["ln_f"]
    entries[6] -= sums["ew"]
    by_row = entries.T
    if order == 1:
        return ll, by_row.take(_SCORE_ENTRIES, 1), None
    np.multiply(total[_P_RUN][:2], _Q_SIGNS[:2], entries[7:9])  # -sum x r, sum r/x
    np.multiply(total[_Q_RUN][:2], -_Q_SIGNS[:2], entries[9:11])  # sum x e^w, -sum e^w/x
    np.multiply(n * _N_SIGNS, tri, entries[11:14])  # n psi' gaps, -n psi'(p + q)
    return ll, by_row.take(_SCORE_ENTRIES, 1), by_row.take(_INFO_ENTRIES, 1).reshape(-1, 4, 4)


def _rate_terms(sums, q, pm1, order, out=None):
    """The (alpha, beta) block of the score and, for ``order`` 2, of the
    information at shapes p and q, ``pm1`` being p - 1, from
    :func:`_bfw_sums` of that order: the rows a, b and at order 2 also
    (alpha, alpha), (beta, beta), (alpha, beta) of one array, ``out`` when
    given.  Entry i is D_i + offset_i +- q Q_i -+ (p - 1) P_i over the runs
    of the sums (``_SUM_NAMES``), signed by ``_Q_SIGNS``: one call per term
    for every entry, and each entry in the order of operations of its own
    formula, since u - v is exactly u + (-v).  With ``pm1`` None, p = 1 and
    the tail sums, which p - 1 would multiply, are not read: at p = q = 1 it
    is the two-parameter flexible Weibull's."""
    k = 5 if order == 2 else 2
    total, signs = sums["all"], _Q_SIGNS[:k]
    terms = np.add(total[_D_RUN][:k], sums["offsets"][:k], out)  # + 0 leaves a sum of x >= 0
    step = np.multiply(total[_Q_RUN][:k], q)
    terms += np.multiply(step, signs, step)
    if pm1 is not None:
        np.multiply(total[_P_RUN][:k], pm1, step)
        terms -= np.multiply(step, signs, step)
    return terms


def _bfw_evaluate(x, theta, order=2, ws=None):
    """Log-likelihood of each row of a (m, 4) batch of (alpha, beta, p, q),
    plus for ``order`` >= 1 the score (m, 4) and for ``order`` 2 the observed
    information (m, 4, 4); parts not asked for are None.  One data pass
    (:func:`_bfw_sums`) and its assembly at the rows' own shapes
    (:func:`_bfw_assemble`), written into the workspace ``ws`` as
    :func:`_bfw_sums` says."""
    with np.errstate(all="ignore"):
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
    row moves, and their ln B(p, q).
    """
    g = np.exp(t / n)  # e^-a, e^-b
    gap = 1.0 - (g[0] + g[1])
    a = np.where(gap > 0.0, t / -n, np.nan)  # no candidate where no maximum exists
    cand = np.array([shapes, 1.0 / (a + np.sqrt(a[0] * a[1])), 0.5 + (0.5 / gap) * g])
    log_beta = special._scipy_betaln(cand[:, 0], cand[:, 1])
    phi = np.add.reduce(cand * t, 1) - n * log_beta
    best = np.fmax(phi, -np.inf).argmax(axis=0)  # a NaN phi reads -inf
    if not np.count_nonzero(best):
        return shapes, log_beta[0]
    rows = np.arange(best.size)
    return cand[best, :, rows].T, log_beta[best, rows]


def _bfw_profiled(x, theta, ws):
    """The four-parameter kernel of the fitter on (alpha, beta, p, q) rows:
    one data pass at each row's (alpha, beta), written into the workspace
    ``ws`` (:func:`_bfw_sums`), the profile step of its (p, q)
    (:func:`_profile_shapes`) from the sums of that pass, and the assembly
    at the result with the ln B(p, q) the step formed.  Returns
    (theta, ll, grad, info, walk), ``walk`` the (rows, 5) terms by which the
    fitter retires a row (see ``_newton``): the log-likelihood's rounding
    error eps (n |ln B(p, q)| + |sum ln(alpha + beta/x^2)| + |sum w|
    + q sum e^w + |p - 1| |sum ln F|); ln(q sum e^w / n), the passes of the
    ln q crawl while -q sum e^w dominates; ln(-sum ln F / n), above
    ln(eps / 2) where the profile step has a candidate that ends the crawl
    (-inf where every ln F rounds to 0); and the offsets from the ridges,
    sqrt(beta/alpha) / x_(n) - 1 (A) and (e - 1) q / p - 1 (B).
    """
    with np.errstate(all="ignore"):
        sums = _bfw_sums(x, theta[:, 0], theta[:, 1], 2, ws)
        start = theta[:, 2:].T
        shapes, log_beta = _profile_shapes(sums["n"], np.array([sums["ln_f"], -sums["ew"]]), start)
        p, q = shapes
        walk = np.empty((5, p.size)).T  # each term a contiguous row
        ll, grad, info = _bfw_assemble(sums, p, q, 2, log_beta, walk)
        ridge_a, ridge_b = walk.T[3:]
        np.divide(np.sqrt(np.divide(theta[:, 1], theta[:, 0], ridge_a), ridge_a), ws.x_max, ridge_a)
        np.subtract(ridge_a, 1.0, ridge_a)
        np.subtract(np.divide(np.multiply(_E_MINUS_1, q, ridge_b), p, ridge_b), 1.0, ridge_b)
    if shapes is not start:  # some row moved
        theta = theta.copy()
        theta[:, 2:] = shapes.T
    return theta, ll, grad, info, walk


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
    """What a caller sets of the fitter: the number of four-parameter starts,
    a Python or numpy integer of at least 1 (the two-parameter families
    start from four fixed points), and the score sup-norm of the convergence
    test, strictly positive and finite.  The rest is fixed in this module
    (``_REL_LL_TOL``, ``_MAX_ITER`` and the start range ``_START_LOG_LOW``,
    ``_START_LOG_HIGH``)."""

    starts: int = 16
    score_tol: float = 1e-6

    def __post_init__(self):
        starts = self.starts
        if isinstance(starts, bool) or not isinstance(starts, (int, np.integer)) or starts < 1:
            raise DomainError("at least one start is required, as an integer count")
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
    from the two ridges, see :func:`_bfw_profiled`); a family that reports
    None retires no row.  ``ws`` is what ``workspace(x, rows)`` returns:
    what every pass of one fit on data ``x`` shares, with buffers for
    blocks of at most ``rows`` rows; the fitter makes one per fit.
    ``starts(config)`` gives the start points in log-parameter space, one
    per row.
    """

    kernel: Callable
    starts: Callable
    workspace: Callable


BFW = Likelihood(_bfw_profiled, _start_grid, _Workspace)

_TWO_PARAM_STARTS = np.log([[0.5, 0.5], [0.05, 2.0], [2.0, 0.05], [1.0, 10.0]])


def _two_param_starts(config):
    return _TWO_PARAM_STARTS


def _fw_kernel(x, theta, ws):
    """Flexible Weibull (alpha, beta) rows as four-parameter rows with
    p = q = 1: the four-parameter kernel's data pass without the tail terms
    that p - 1 = 0 multiplies, written into the workspace ``ws``
    (:func:`_bfw_sums`), then its log-likelihood and the (alpha, beta) block
    of its score and information alone.  The rows stay as given and report
    no walk terms."""
    with np.errstate(all="ignore"):
        sums = _bfw_sums(x, theta[:, 0], theta[:, 1], 2, ws, tails=False)
        entries = _rate_terms(sums, 1.0, None, 2)  # a, b, aa, bb, ab
        ll = sums["amp"] + sums["w"] - sums["ew"]  # ln B(1, 1) = 0
        ll = np.where(np.isfinite(ll), ll, -np.inf)
    return theta, ll, entries[:2].T, entries[_FW_INFO_ENTRIES].T.reshape(-1, 2, 2), None


_FW_INFO_ENTRIES = np.array([2, 4, 4, 3])


FW = Likelihood(_fw_kernel, _two_param_starts, _Workspace)


def _weibull_evaluate(x, theta, ws=None):
    """Log-likelihood (m,), score (m, 2) and observed information (m, 2, 2)
    of a batch of scale-form Weibull rows (shape k, scale s).  With z = x/s
    and l = ln z: the score is (n/k + sum l - sum z^k l, k (sum z^k - n)/s),
    and the information I_kk = n/k^2 + sum z^k l^2,
    I_ks = (n - sum z^k - k sum z^k l)/s, I_ss = k ((k + 1) sum z^k - n)/s^2.
    ``ws``, when given, is the data's sum ln x (:func:`_weibull_workspace`),
    formed once per fit."""
    n = x.size
    shape, scale = theta.T
    with np.errstate(all="ignore"):
        log_scale = np.log(scale)
        z = x / scale[:, None]
        log_z = np.log(z)
        zs = z ** shape[:, None]
        sum_zs = _rowsum(zs)
        sum_log_x = _weibull_workspace(x) if ws is None else ws
        ll = n * np.log(shape) - n * shape * log_scale + (shape - 1.0) * sum_log_x - sum_zs
        ll = np.where(np.isfinite(ll), ll, -np.inf)
        zs_log_z = _rowsum(zs * log_z)
        d_shape = n / shape - n * log_scale + sum_log_x - zs_log_z
        grad = np.array((d_shape, shape / scale * (sum_zs - n))).T
        i_ks = (n - sum_zs - shape * zs_log_z) / scale
        i_kk = n / shape**2 + _rowsum(zs * log_z**2)
        i_ss = shape * ((shape + 1.0) * sum_zs - n) / scale**2
    return ll, grad, np.array((i_kk, i_ks, i_ks, i_ss)).T.reshape(-1, 2, 2)


def weibull_loglik_grad(x, shape, scale):
    """Log-likelihood and its (shape, scale) gradient for the scale-form Weibull."""
    ll, grad, _ = _weibull_evaluate(x, np.array([[shape, scale]], dtype=float))
    return ll[0], grad[0]


def _weibull_workspace(x, rows=None):
    """What every pass of one Weibull fit shares: the data's sum ln x."""
    return np.sum(np.log(x))


def _weibull_kernel(x, theta, ws):
    """The fitter's kernel: the rows as given, their :func:`_weibull_evaluate`
    and no walk terms."""
    return (theta, *_weibull_evaluate(x, theta, ws=ws), None)


WEIBULL = Likelihood(_weibull_kernel, _two_param_starts, _weibull_workspace)

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
    whether every entry of the row is finite (where g is not, neither is
    the diagonal of H)."""
    g = grad * theta
    h = theta[:, :, None] * theta[:, None, :] * info
    flat = h.reshape(len(h), -1)
    diagonal = flat[:, :: theta.shape[1] + 1]
    np.subtract(diagonal, g, out=diagonal)
    return g, h, np.logical_and.reduce(np.isfinite(flat), 1)


def _damped_steps(g, abs_e, v, damping):
    """One damped Newton step per row: with H = V diag(e) V^T, the step is
    V diag(1 / (|e| + damping max|e|)) V^T g -- the Newton step where H is
    positive definite and the damping small, an ascent direction always.
    Where every |e| is 0 the step is not finite, and its trial is rejected."""
    scale = abs_e + damping[:, None] * abs_e.max(axis=1)[:, None]
    return (v @ ((g[:, None, :] @ v)[:, 0] / scale)[:, :, None])[:, :, 0]


def _follow(z, theta, given):
    """Set z = ln theta in place where the family's kernel moved theta away
    from ``given`` = e^z; elsewhere z stays as stepped."""
    if theta is not given:
        moved = theta != given
        if moved.any():
            z[moved] = np.log(theta[moved])


def _walking(before, walk, scale, change, z, step, left):
    """Which retirement trigger holds at each trial point, a (rows, 6)
    boolean array in the order of ``_RETIRE_MESSAGES``, from the point's
    walk terms ``walk`` (:func:`_bfw_profiled`), the ln(-sum ln F / n) term
    ``before`` of the row's previous accepted point, its 1 + |ll|
    ``scale``, the log-likelihood ``change``, the point ``z`` = ln theta
    and the ``step`` in z that led to it:

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
    holds = np.zeros((len(_RETIRE_MESSAGES), scale.size), dtype=bool)
    np.greater(walk[:, 0], _RETIRE_ROUNDING * scale, holds[0])
    # each other trigger is formed only where one of its factors holds on some row
    span = left + _RETIRE_CRAWL_SLACK
    crawl = walk[:, 1] > span
    if crawl.any():
        rate = walk[:, 2] - before  # nan where both are -inf
        ends = (rate > 0.0) & (_LN_HALF_EPS - walk[:, 2] <= rate * span)
        np.logical_and(crawl, ~ends, holds[1])
    flat = change <= _REL_LL_TOL * scale
    if flat.any():
        np.logical_and(flat, np.abs(step).max(axis=1) >= _RETIRE_MOVING, holds[2])
    ln_p, ln_q = z[:, 2], z[:, 3]
    near_a = np.abs(walk[:, 3]) < _RIDGE_OFFSET
    if near_a.any():
        np.logical_and(near_a & (ln_p < _RIDGE_A_LN_P), step[:, 2] < 0.0, holds[3])
    near_b = np.abs(walk[:, 4]) < _RIDGE_OFFSET
    if near_b.any():
        np.logical_and(near_b & (ln_p > _RIDGE_B_LN_P), step[:, 2] >= _RIDGE_B_RISE, holds[4])
    high_q = ln_q > _Q_LIMIT_LN_Q
    if high_q.any():
        np.logical_and(high_q & (step[:, 3] >= _Q_LIMIT_RISE), ln_p < 0.0, holds[5])
    return holds.T


# the stop codes in the order of _stop_codes' tests, the last for none
_STOP_ORDER = np.array([_CONVERGED, _BUDGET, _RETIRED, _REJECTED, _ACTIVE])


def _stop_codes(norm, change, scale, evaluations, streak, damping, score_tol):
    """Each row's first stop that holds: converged, budget, retired, rejected."""
    holds = np.empty((len(_STOP_ORDER), norm.size), dtype=bool)
    np.logical_and(norm <= score_tol, change <= _REL_LL_TOL * scale, holds[0])
    np.greater(evaluations, _MAX_ITER, holds[1])
    np.logical_or.reduce(streak >= _RETIRE_AFTER, 1, None, holds[2])
    np.greater(damping, _DAMPING_MAX, holds[3])
    holds[4] = True
    return _STOP_ORDER[holds.argmax(axis=0)]


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

    Row i of the active starts' arrays is start ``rows[i]``; they shrink on
    a pass where a start stops.  An accepted trial is copied into its row of
    the nine arrays of the point (z, theta, ll, 1 + |ll|, score,
    information, score sup-norm, g, H); when every trial of a pass is
    accepted the trial's arrays become the point's instead, and when none
    is nothing is copied.  H is decomposed on a pass after some row moved,
    all rows at once: a rejected row's H is unchanged, and its
    decomposition with it.
    """
    z = np.array(z0, dtype=float)
    m, k = z.shape
    kernel, ws = likelihood.kernel, likelihood.workspace(x, min(m, _block_rows(x.size)))
    with np.errstate(all="ignore"):
        given = np.exp(z)
        theta, ll, grad, info, walk = _evaluate(kernel, x, given, ws)
        _follow(z, theta, given)
        g, h, finite = _log_space(theta, grad, info)
        trajectories = [[value] for value in ll.tolist()]
        stop = np.full(m, _ACTIVE)
        # each start's reported point, accepted steps, kernel passes and
        # retirement streaks, written when it stops
        report = (theta, ll, grad, info, np.zeros(m, dtype=int), np.ones(m, dtype=int),
                  np.zeros((m, len(_RETIRE_MESSAGES)), dtype=int))
        rows, scale, norm = np.arange(m), 1.0 + np.abs(ll), np.abs(grad).max(axis=1)
        abs_e, v, fresh = np.empty((m, k)), np.empty((m, k, k)), np.ones(m, dtype=bool)
        damping, growth, change = np.full(m, _DAMPING_START), np.full(m, 2.0), np.full(m, math.inf)
        its, evs, streak = report[4:]
        reach = None if walk is None else walk[:, 2]
        code = np.where(np.isfinite(ll) & finite,
                        _stop_codes(norm, change, scale, evs, streak, damping, config.score_tol),
                        _NONFINITE)
        while True:
            done = code != _ACTIVE
            if done.any():
                index = rows[done]
                stop[index] = code[done]
                for out, now in zip(report, (theta, ll, grad, info, its, evs, streak)):
                    out[index] = now[done]
                keep = ~done
                (rows, z, theta, ll, scale, grad, info, norm, g, h, abs_e, v, fresh, damping,
                 growth, change, its, evs, streak, reach) = (
                    None if a is None else a[keep] for a in (
                        rows, z, theta, ll, scale, grad, info, norm, g, h, abs_e, v, fresh,
                        damping, growth, change, its, evs, streak, reach))
                if rows.size == 0:
                    break
            if fresh.any():  # a rejected row's H is unchanged, and so is its decomposition
                e, v = np.linalg.eigh(h)
                abs_e = np.abs(e)
            z_t = z + _damped_steps(g, abs_e, v, damping)
            given = np.exp(z_t)
            theta_t, ll_t, grad_t, info_t, walk_t = _evaluate(kernel, x, given, ws)
            _follow(z_t, theta_t, given)
            g_t, h_t, finite_t = _log_space(theta_t, grad_t, info_t)
            norm_t, scale_t = np.abs(grad_t).max(axis=1), 1.0 + np.abs(ll_t)
            better = ll_t > ll
            close = (ll_t >= ll - _SLACK * scale) & (norm_t < norm)
            accept = finite_t & (better | close)
            evs += 1
            change = np.abs(ll_t - ll)  # inf for a non-representable trial
            if walk_t is not None:
                holds = _walking(reach, walk_t, scale_t, change, z_t, z_t - z, _MAX_ITER + 1 - evs)
                np.multiply(streak + 1, holds, streak, where=accept[:, None])
                np.copyto(reach, walk_t[:, 2], where=accept)
            taken = np.count_nonzero(accept)
            if taken == rows.size:  # every trial is the new point: take its arrays
                z, theta, ll, scale, grad, info, norm, g, h = (
                    z_t, theta_t, ll_t, scale_t, grad_t, info_t, norm_t, g_t, h_t)
            elif taken:
                where = (accept, accept[:, None], accept[:, None, None])
                for now, trial in zip((z, theta, ll, scale, grad, info, norm, g, h),
                                      (z_t, theta_t, ll_t, scale_t, grad_t, info_t, norm_t, g_t, h_t)):
                    np.copyto(now, trial, where=where[now.ndim - 1])
            its += accept
            damping = np.where(accept, np.maximum(damping / 3.0, _DAMPING_MIN), damping * growth)
            growth = np.where(accept, 2.0, growth * 2.0)
            fresh = accept
            up = accept & better
            for i, value in zip(rows[up].tolist(), ll_t[up].tolist()):
                trajectories[i].append(value)
            code = _stop_codes(norm, change, scale, evs, streak, damping, config.score_tol)
    theta, ll, grad, info, iterations, evaluations, streaks = report
    messages = [
        _RETIRE_MESSAGES[np.argmax(streaks[i] >= _RETIRE_AFTER)] if code == _RETIRED
        else _STOP_MESSAGES[code] for i, code in enumerate(stop.tolist())
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
