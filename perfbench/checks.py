"""Correctness checks, run after the measured loop.

Every check compares the program's output with a reference that does not go
through ``bfw``: an ``mpmath`` evaluation at 40 digits, a NumPy/SciPy
implementation of the density written here from the model's formula
(with complex-step derivatives for the score and information), a fine-grid
integral, or an independent solution of the Weibull likelihood equations.

A check returns a :class:`Verdict`.  ``known`` marks the failures this
version of the program is documented to have: one kind of failure on a
named op (see ``KNOWN_FAILURES``).  They count as failed ops but do not make
the run incorrect.  Any other failure, or a known kind on another op, does.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from scipy import optimize
from scipy import special as sp

import workloads as W

mpmath.mp.dps = 40

# workload -> (failure, op labels): the ops of the fixed panels that fail at
# this version, each with the one failure it is known for.
KNOWN_FAILURES = {
    "fit": ("the bfw row reports ConvergenceError: no optimizer start met the absolute 1e-6 "
            "score tolerance",
            frozenset({"anchor0-n50-2", "anchor0-n200-2", "anchor0-n1000-0", "anchor0-n1000-3",
                       "anchor0-n5000-0", "anchor1-n50-0", "anchor1-n200-1"})),
    "moments": ("QuadratureAccuracyError: the error bound stays above the 1e-8 target",
                frozenset({"set28"})),
    "cli": ("exit code 5: survival is 1 - cdf and underflows to 0 on the grid",
            frozenset({"eval_grid"})),
}
CONVERGENCE_ERROR = "no optimizer start converged"


def is_known(workload, label):
    return label in KNOWN_FAILURES[workload][1]

RTOL = 1e-8  # kernels against 40-digit references
QTOL = 1e-9  # quantiles: relative error in x implied by the cdf round trip
FIT_TOL = 1e-9
MOMENT_TOL = 1e-7  # quadrature target is 1e-8 relative


@dataclass(frozen=True)
class Verdict:
    status: str  # "ok", "failed" (program raised or exited non-zero) or "wrong"
    reason: str = ""
    known: bool = False


OK = Verdict("ok")


def _wrong(reason):
    return Verdict("wrong", reason)


# ---------------------------------------------------------------------------
# references


def ref_log_pdf(x, theta):
    """Log density from the model formula; accepts complex parameters."""
    a, b, p, q = theta
    with np.errstate(all="ignore"):
        w = a * x - b / x
        ew = np.exp(w)
        ln_g = np.where(np.real(ew) < 1e-8, w - ew / 2, np.log(-np.expm1(-ew)))
        return (
            sp.loggamma(p + q) - sp.loggamma(p) - sp.loggamma(q)
            + np.log(a + b / x**2) + w - q * ew + (p - 1) * ln_g
        )


def ref_cdf(x, theta):
    a, b, p, q = theta
    g = -np.expm1(-np.exp(a * np.asarray(x, float) - b / np.asarray(x, float)))
    return sp.betainc(p, q, g)


def ref_sf(x, theta):
    a, b, p, q = theta
    return sp.betainc(q, p, np.exp(-np.exp(a * np.asarray(x, float) - b / np.asarray(x, float))))


def ref_loglik(x, theta):
    return math.fsum(np.real(ref_log_pdf(x, theta)))


def ref_score(x, theta):
    """Complex-step gradient of the log-likelihood, and the sum of |terms|."""
    theta = np.asarray(theta, dtype=float)
    grads, scales = np.empty(4), np.empty(4)
    for j in range(4):
        h = 1e-30 * theta[j]
        shifted = theta.astype(complex)
        shifted[j] += 1j * h
        terms = np.imag(ref_log_pdf(x, shifted)) / h
        grads[j] = math.fsum(terms)
        scales[j] = float(np.sum(np.abs(terms)))
    return grads, scales


def ref_information(x, theta):
    """Negative Hessian by Richardson-extrapolated differences of the
    complex-step gradient (error O(delta^4))."""
    theta = np.asarray(theta, dtype=float)
    info = np.empty((4, 4))
    for k in range(4):
        def diff(delta):
            hi, lo = theta.copy(), theta.copy()
            hi[k] += delta
            lo[k] -= delta
            return (ref_score(x, hi)[0] - ref_score(x, lo)[0]) / (2 * delta)

        d = 1e-3 * theta[k]
        info[:, k] = -(4 * diff(d / 2) - diff(d)) / 3
    return 0.5 * (info + info.T)


def mp_values(x, theta):
    """(pdf, cdf, survival) at 40 digits."""
    a, b, p, q = (mpmath.mpf(float(v)) for v in theta)
    x = mpmath.mpf(float(x))
    w = a * x - b / x
    ew = mpmath.exp(w)
    g = -mpmath.expm1(-ew)
    log_pdf = (
        mpmath.loggamma(p + q) - mpmath.loggamma(p) - mpmath.loggamma(q)
        + mpmath.log(a + b / x**2) + w - q * ew + (p - 1) * mpmath.log(g)
    )
    cdf = mpmath.betainc(p, q, 0, g, regularized=True)
    sf = mpmath.betainc(q, p, 0, mpmath.exp(-ew), regularized=True)
    return mpmath.exp(log_pdf), cdf, sf


def _rel_err(value, ref):
    ref = float(ref)
    return abs(float(value) - ref) / max(abs(ref), 1e-300)


def _check_close(name, values, refs, rtol):
    for value, ref in zip(np.atleast_1d(values), refs):
        if not _rel_err(value, ref) <= rtol:
            return f"{name}={float(value)!r} vs reference {float(ref)!r}"
    return None


def _check_quantiles(name, u, xs, theta):
    """x = Q(u) is right when the reference cdf at x returns u; the implied
    relative error in x is |cdf(x) - u| / (x pdf(x))."""
    for ui, xi in zip(np.atleast_1d(u), np.atleast_1d(xs)):
        pdf, cdf, _ = mp_values(xi, theta)
        err = abs(cdf - mpmath.mpf(float(ui))) / (pdf * mpmath.mpf(float(xi)))
        if not err <= QTOL:
            return f"{name}({float(ui)!r})={float(xi)!r} is off by {float(err):.3g} relative"
    return None


def ks_reference(x, cdf_values):
    """Two-sided K-S distance for distinct sorted-by-call values."""
    order = np.argsort(x)
    f = np.asarray(cdf_values, float)[order]
    n = f.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


# ---------------------------------------------------------------------------
# fit


def _family_reference(model, estimates):
    """(log-likelihood, cdf) reference callables for a fitted row."""
    if model == "bfw":
        theta = tuple(estimates[k] for k in ("alpha", "beta", "p", "q"))
        return (lambda x: ref_loglik(x, theta)), (lambda x: ref_cdf(x, theta))
    if model == "fw":
        theta = (estimates["alpha"], estimates["beta"], 1.0, 1.0)
        return (lambda x: ref_loglik(x, theta)), (lambda x: ref_cdf(x, theta))
    shape, scale = estimates["shape"], estimates["scale"]

    def loglik(x):
        z = x / scale
        return math.fsum(math.log(shape / scale) + (shape - 1) * np.log(z) - z**shape)

    return loglik, (lambda x: -np.expm1(-((x / scale) ** shape)))


def information_criteria(ll, k, n):
    aic = -2 * ll + 2 * k
    aicc = aic + 2 * k * (k + 1) / (n - k - 1) if n > k + 1 else math.nan
    return {"aic": aic, "aicc": aicc, "bic": -2 * ll + k * math.log(n),
            "hqic": -2 * ll + 2 * k * math.log(math.log(n))}


def _check_row(model, estimates, ll, criteria, ks, x):
    loglik, cdf = _family_reference(model, estimates)
    ll_ref = loglik(x)
    if not abs(ll - ll_ref) <= FIT_TOL * (1 + abs(ll_ref)):
        return f"{model} log-likelihood {ll!r} vs reference {ll_ref!r}"
    k = {"bfw": 4, "fw": 2, "weibull": 2}[model]
    for name, ref in information_criteria(ll_ref, k, x.size).items():
        if name in criteria and not abs(criteria[name] - ref) <= FIT_TOL * (1 + abs(ref)):
            return f"{model} {name} {criteria[name]!r} vs reference {ref!r}"
    if ks is not None:
        ks_ref = ks_reference(x, cdf(x))
        if not (0.0 <= ks <= 1.0 and abs(ks - ks_ref) <= FIT_TOL):
            return f"{model} K-S {ks!r} vs reference {ks_ref!r}"
    return None


def check_fit(inputs, op, table):
    if isinstance(table, Exception):
        return Verdict("failed", f"{type(table).__name__}: {table}")
    x = np.asarray(op["data"].times)
    rows = {row.model: row for row in table.rows}
    if sorted(rows) != sorted(W.FAMILIES) or len(table.rows) != len(W.FAMILIES):
        return _wrong(f"rows {list(rows)}")
    errors = []
    for model, row in rows.items():
        if row.error is not None:
            known = model == "bfw" and row.error.startswith(CONVERGENCE_ERROR)
            errors.append((f"{model}: {row.error}", known and is_known("fit", op["label"])))
            continue
        criteria = {k: getattr(row, k) for k in ("aic", "aicc", "bic", "hqic")}
        problem = _check_row(model, row.estimates, row.log_likelihood, criteria, row.ks, x)
        if problem:
            return _wrong(problem)
    bfw_row = rows["bfw"]
    if bfw_row.error is None:
        floor = ref_loglik(x, op["truth"]) - 1e-6
        if not bfw_row.log_likelihood >= floor:
            return _wrong(f"bfw log-likelihood {bfw_row.log_likelihood!r} below "
                          f"{floor!r} at the generating parameters")
    aics = [row.aic for row in table.rows if row.error is None]
    if aics != sorted(aics):
        return _wrong("rows not sorted by AIC")
    if errors:
        return Verdict("failed", "; ".join(e for e, _ in errors), known=all(k for _, k in errors))
    return OK


# ---------------------------------------------------------------------------
# bulk


def check_bulk(inputs, op, digest):
    if isinstance(digest, Exception):
        return Verdict("failed", f"{type(digest).__name__}: {digest}")
    for part, d in zip(inputs.extra["parts"], digest):
        theta = tuple(part["params"].as_array())
        label = f"anchor{W.ANCHORS.index(theta)}"
        refs = [mp_values(xi, theta) for xi in d["x"]]
        for name, col in (("pdf", 0), ("cdf", 1), ("survival", 2)):
            problem = _check_close(f"{label} {name}", d[name], [r[col] for r in refs], RTOL)
            if problem:
                return _wrong(problem)
        problem = _check_close(f"{label} hazard", d["hazard"], [r[0] / r[2] for r in refs], RTOL)
        problem = problem or _check_quantiles(f"{label} quantile", d["u"], d["quantile"], theta)
        if problem:
            return _wrong(problem)
        x = part["x"]
        ll_ref = ref_loglik(x, theta)
        scale = float(np.sum(np.abs(ref_log_pdf(x, theta))))
        for name, value in (("log_likelihood", d["log_likelihood"]), ("sum log pdf", d["log_pdf_sum"])):
            if not abs(value - ll_ref) <= 1e-12 * scale:
                return _wrong(f"{label} {name} {value!r} vs reference {ll_ref!r}")
        grad, grad_scale = ref_score(x, theta)
        if not np.all(np.abs(d["score"] - grad) <= 1e-10 * grad_scale):
            return _wrong(f"{label} score {list(d['score'])} vs reference {list(grad)}")
        info = ref_information(x, theta)
        diag = np.sqrt(np.abs(np.outer(np.diag(info), np.diag(info))))
        if not np.all(np.abs(d["observed_information"] - info) <= RTOL * diag):
            return _wrong(f"{label} observed information off the reference by "
                          f"{float(np.max(np.abs(d['observed_information'] - info) / diag)):.3g}")
        head = d["sample_head"]
        bound = 2.5 / math.sqrt(head.size)  # two-sided K-S false alarm rate ~1e-5
        ks = ks_reference(head, ref_cdf(head, theta))
        if not ks <= bound:
            return _wrong(f"{label} sample K-S distance {ks:.4g} above {bound:.4g}")
    return OK


# ---------------------------------------------------------------------------
# moments


def _fine_grid(theta, points=40001):
    """t = ln x grid covering every point where the density is above e^-80 of its peak."""
    t = np.linspace(math.log(1e-8), math.log(1e4), 4001)
    x = np.exp(t)
    # range from the largest weight used: x^4 or e^(x/2)
    lp = np.real(ref_log_pdf(x, theta)) + t + np.maximum(0.5 * x, 4 * np.maximum(t, 0))
    alive = np.flatnonzero(lp > np.max(lp) - 80)
    lo, hi = t[max(alive[0] - 1, 0)], t[min(alive[-1] + 1, t.size - 1)]
    t = np.linspace(lo, hi, points)
    x = np.exp(t)
    return x, np.exp(np.real(ref_log_pdf(x, theta))) * x, t[1] - t[0]


def moment_references(theta):
    """Raw moments 1-4 and M(-1), M(0.5) by the trapezoid rule in ln x; the
    integrand decays double-exponentially at both ends, so the rule converges
    geometrically."""
    x, weight, dt = _fine_grid(theta)

    def integral(f):
        return float(np.sum(f * weight) * dt)

    out = {f"m{r}": integral(x**r) for r in range(1, 5)}
    out["mgf(-1.0)"] = integral(np.exp(-x))
    out["mgf(0.5)"] = integral(np.exp(0.5 * x))
    return out


def check_moments(inputs, op, res):
    if isinstance(res, Exception):
        known = type(res).__name__ == "QuadratureAccuracyError" and is_known("moments", op["label"])
        return Verdict("failed", f"{type(res).__name__}: {res}", known=known)
    params = op["params"]
    theta = tuple(params.as_array())
    refs = moment_references(theta)
    summary = res["summary"]
    for r, value in enumerate(summary.raw_moments, start=1):
        if not _rel_err(value, refs[f"m{r}"]) <= MOMENT_TOL:
            return _wrong(f"E[X^{r}]={value!r} vs grid integral {refs[f'm{r}']!r}")
    if not _rel_err(summary.mean, refs["m1"]) <= MOMENT_TOL:
        return _wrong(f"mean={summary.mean!r} vs grid integral {refs['m1']!r}")
    for key in ("mgf(-1.0)", "mgf(0.5)"):
        if not _rel_err(res[key], refs[key]) <= MOMENT_TOL:
            return _wrong(f"{key}={res[key]!r} vs grid integral {refs[key]!r}")
    mode = res["mode"]
    lo = W.bfw.mode_equation(mode * (1 - 1e-8), params)
    hi = W.bfw.mode_equation(mode * (1 + 1e-8), params)
    near = np.real(ref_log_pdf(np.array([mode * (1 - 1e-4), mode, mode * (1 + 1e-4)]), theta))
    if not (lo >= 0 >= hi and near[1] >= max(near[0], near[2])):
        return _wrong(f"mode {mode!r} is not a root of the mode equation / density maximum")
    r, n = W.ORDER_INDEX
    grid = op["grid"]
    idx = [0, grid.size // 2, grid.size - 1]
    refs_os = []
    log_norm = mpmath.loggamma(n + 1) - mpmath.loggamma(r) - mpmath.loggamma(n - r + 1)
    for i in idx:
        pdf, cdf, sf = mp_values(grid[i], theta)
        refs_os.append(mpmath.exp(log_norm) * cdf ** (r - 1) * sf ** (n - r) * pdf)
    problem = _check_close("order_stat_pdf", np.asarray(res["order_pdf"])[idx], refs_os, RTOL)
    u = inputs.extra["u"]
    qi = [0, u.size // 2, u.size - 1]
    problem = problem or _check_quantiles("bfw_quantile", u[qi], np.asarray(res["quantile"])[qi], theta)
    if not problem and op["label"] in ("set0", "set1"):  # one extra quadrature per anchor
        problem = check_mgf_identity(params)
    return _wrong(problem) if problem else OK


def check_mgf_identity(params):
    """M(0) = 1; a separate call made outside the timed op."""
    value = W.bfw.mgf(0.0, params)
    return None if abs(value - 1.0) <= 1e-8 else f"mgf(0)={value!r}"


# ---------------------------------------------------------------------------
# cli


def _load_schema(root):
    import jsonschema

    schema = json.loads((Path(root) / "docs" / "output_schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def weibull_mle(x):
    """Shape from the profile likelihood equation, then scale in closed form."""
    lx = np.log(x)

    def profile(k):
        xk = (x / x.max()) ** k  # scaled to stay finite; the ratio is unchanged
        return float(np.sum(xk * lx) / np.sum(xk) - 1.0 / k - lx.mean())

    shape = optimize.brentq(profile, 1e-3, 1e3, xtol=1e-15, rtol=1e-15)
    scale = float(np.mean(x**shape) ** (1.0 / shape))
    return shape, scale


class CliChecker:
    """Checks one cli op from its exit code and captured output."""

    def __init__(self, inputs):
        self.inputs = inputs

    @functools.cached_property
    def validator(self):
        return _load_schema(self.inputs.extra["root"])

    @functools.cached_property
    def pumps_fit(self):
        return W.bfw.fit_mle(W.bfw.ingest("pumps"))

    def _json(self, stdout):
        doc = json.loads(stdout)
        errors = sorted(self.validator.iter_errors(doc), key=str)
        if errors:
            raise ValueError(f"schema: {errors[0].message}")
        return doc

    def __call__(self, op, res):
        if isinstance(res, Exception):
            return Verdict("failed", f"{type(res).__name__}: {res}")
        name, rc = op["label"], res["returncode"]
        stdout = res["stdout"].decode()
        if rc != 0:
            known = rc == 5 and is_known("cli", name)
            return Verdict("failed", f"{name} exited {rc}: {res['stderr'].decode().strip()}",
                           known=known)
        try:
            problem = getattr(self, "check_" + name)(op, stdout)
        except Exception as exc:  # noqa: BLE001 - unparsable output is a wrong output
            problem = f"{type(exc).__name__}: {exc}"
        return _wrong(f"{name}: {problem}") if problem else OK

    def check_fit_pumps(self, op, stdout):
        result = self._json(stdout)["result"]
        fit = self.pumps_fit
        ours = fit.estimates
        for key in ("alpha", "beta", "p", "q"):
            if not _rel_err(result["estimates"][key], getattr(ours, key)) <= 1e-12:
                return f"estimate {key} {result['estimates'][key]!r} vs fit_mle {getattr(ours, key)!r}"
        x = np.asarray(W.bfw.PUMPS, float)
        return _check_row("bfw", result["estimates"], result["log_likelihood"],
                          result, result["ks"], x)

    def check_fit_weibull(self, op, stdout):
        fields = {row[0]: row[1] for row in _csv_rows(stdout)[1:]}
        x = np.asarray(self.inputs.extra["draw"], float)
        shape, scale = weibull_mle(x)
        got = float(fields["estimate.shape"]), float(fields["estimate.scale"])
        if not (_rel_err(got[0], shape) <= 1e-7 and _rel_err(got[1], scale) <= 1e-7):
            return f"(shape, scale)={got} vs profile-likelihood solution {(shape, scale)}"
        criteria = {k: float(fields[k]) for k in ("aic", "aicc", "bic", "hqic")}
        return _check_row("weibull", {"shape": got[0], "scale": got[1]},
                          float(fields["log_likelihood"]), criteria, float(fields["ks"]), x)

    def check_compare(self, op, stdout):
        rows = _csv_rows(stdout)
        x = np.asarray(W.bfw.PUMPS, float)
        header = rows[0]
        models = set()
        for cells in rows[1:]:
            rec = dict(zip(header, cells))
            if rec["error"]:
                return f"{rec['model']} failed: {rec['error']}"
            models.add(rec["model"])
            estimates = {k: float(v) for k, v in (kv.split("=") for kv in rec["parameters"].split(";"))}
            criteria = {k: float(rec[k]) for k in ("aic", "aicc", "bic", "hqic")}
            problem = _check_row(rec["model"], estimates, float(rec["log_likelihood"]),
                                 criteria, float(rec["ks"]), x)
            if problem:
                return problem
            if rec["model"] == "bfw":
                ll = self.pumps_fit.log_likelihood
                if not _rel_err(float(rec["log_likelihood"]), ll) <= 1e-12:
                    return f"bfw log-likelihood {rec['log_likelihood']} vs fit_mle {ll!r}"
        return None if models == set(W.FAMILIES) else f"models {sorted(models)}"

    def check_eval(self, op, stdout, grid=W.README_GRID):
        rows = np.array([[float(v) for v in r] for r in _csv_rows(stdout)[1:]])
        lo, hi, count = grid.split(":")
        xs = np.linspace(float(lo), float(hi), int(count))
        theta = W.PUMPS_POINT
        if rows.shape != (xs.size, 5) or not np.array_equal(rows[:, 0], xs):
            return f"grid {rows.shape}"
        pdf = np.exp(np.real(ref_log_pdf(xs, theta)))
        sf = ref_sf(xs, theta)
        for col, name, ref in ((1, "pdf", pdf), (2, "cdf", ref_cdf(xs, theta)),
                               (3, "survival", sf), (4, "hazard", pdf / sf)):
            problem = _check_close(name, rows[:, col], ref, RTOL)
            if problem:
                return problem
        return None

    def check_eval_grid(self, op, stdout):
        return self.check_eval(op, stdout, grid=W.FAILING_GRID)

    def check_sample(self, op, stdout):
        values = np.array(self._json(stdout)["result"]["values"])
        params = W.bfw.BFWParams(*W.PUMPS_POINT)
        ours = W.bfw.bfw_sample(100_000, params, self.inputs.extra["sample_seed"])
        return None if np.array_equal(values, ours) else "values differ from bfw_sample"

    def check_km(self, op, stdout):
        rows = np.array([[float(v) for v in r] for r in _csv_rows(stdout)[1:]])
        times, counts = np.unique(np.asarray(W.bfw.PUMPS, float), return_counts=True)
        cum = np.cumsum(counts) / counts.sum()
        ref = np.column_stack([np.r_[0.0, times], np.r_[0.0, cum], np.r_[1.0, 1.0 - cum]])
        return None if rows.shape == ref.shape and np.allclose(rows, ref, rtol=1e-15, atol=0) \
            else "step curve differs from the empirical CDF of the data"

    def check_help(self, op, stdout):
        return None if stdout.startswith("usage: bfw") else "no usage line"


def checker(inputs):
    """A callable (op, output) -> Verdict for the workload."""
    if inputs.workload == "fit":
        return lambda op, out: check_fit(inputs, op, out)
    if inputs.workload == "bulk":
        return lambda op, out: check_bulk(inputs, op, out)
    if inputs.workload == "moments":
        return lambda op, out: check_moments(inputs, op, out)
    return CliChecker(inputs)
