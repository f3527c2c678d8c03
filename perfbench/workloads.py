"""Seeded inputs and the operations of the four benchmark workloads.

Every workload is a closed loop with one caller.  Its inputs are built from
the workload seed before timing starts; the program under test only ever
sees the generated values.  Outside the timed call, an op's output may be
reduced to a smaller digest, which ``checks.py`` verifies after the measured
loop has ended.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bfw

PUMPS_POINT = (0.052, 0.024, 35.077, 20.328)  # published pumps estimates
ANCHORS = (PUMPS_POINT, (0.5, 0.5, 2.0, 2.0))
FAMILIES = ("bfw", "fw", "weibull")

PANEL_SEED = 20170316  # fit draws and moment parameter sets; the workload seed orders them
FIT_PLAN = [(0, 50), (1, 50), (0, 200), (1, 200), (0, 1000), (1, 1000)]  # (anchor, n)
BULK_POINTS = 100_000  # one bulk op: half the points at each anchor
MOMENT_SETS = 64
MOMENT_JITTER = 0.5  # sigma of the log-normal jitter around each anchor
ORDER_INDEX = (3, 10)
README_GRID = "0.01:7:200"
FAILING_GRID = "1:30:4"  # survival is 1 - cdf, so eval exits 5 here at the seed


@contextlib.contextmanager
def no_span(name, points=None):
    yield


@dataclass
class Inputs:
    """Generated inputs plus the op sequence of one workload."""

    workload: str
    ops: list  # one entry per op of a cycle-ordered sequence
    cycle: int  # ops per cycle; runs measure whole cycles
    extra: dict = field(default_factory=dict)
    input_hash: str = ""


def _hasher(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h


# ---------------------------------------------------------------------------
# fit: compare_models(data, [bfw, fw, weibull]) on one dataset per op


def _fit_inputs(seed, root, workdir):
    """One cycle of 28 ops, repeated by every cycle of the run: pumps twice,
    four draws per (anchor, n) in FIT_PLAN and one n = 5000 draw per anchor.

    Fit cost varies about threefold between draws and a run holds only some
    30 fits.  With draws made from the workload seed the spread of fit latency
    between seeds was a third of its median; with fresh draws per cycle a
    run's p50 moved with its cycle count; with 16 datasets, gaps between their
    costs let the p50 jump.  The draws therefore come from a fixed panel seed,
    every cycle repeats them, and the workload seed orders the cycle.
    """
    panel = np.random.default_rng(PANEL_SEED)
    families = [bfw.get_family(name) for name in FAMILIES]
    ops = [{"label": f"pumps-{i}", "data": bfw.ingest("pumps"), "truth": PUMPS_POINT}
           for i in range(2)]
    plan = [(a, n, i) for a, n in FIT_PLAN for i in range(4)] + [(0, 5000, 0), (1, 5000, 0)]
    for anchor, n, i in plan:
        draw = bfw.bfw_sample(n, bfw.BFWParams(*ANCHORS[anchor]), seed=int(panel.integers(2**63)))
        ops.append({
            "label": f"anchor{anchor}-n{n}-{i}",
            "data": bfw.Dataset(times=draw, label=f"anchor{anchor}"),
            "truth": ANCHORS[anchor],
        })
    ops = [ops[i] for i in np.random.default_rng([seed, 1]).permutation(len(ops))]
    h = _hasher([op["label"] for op in ops], *[op["data"].times for op in ops])
    return Inputs("fit", ops, cycle=len(ops), extra={"families": families},
                  input_hash=h.hexdigest())


def fit_op(inputs, op, span):
    with span("model_selection.compare_models"):
        table = bfw.compare_models(op["data"], inputs.extra["families"])
    return table


# ---------------------------------------------------------------------------
# bulk: one pass of every vector kernel over N seeded points


def _bulk_inputs(seed, root, workdir):
    rng = np.random.default_rng([seed, 2])
    half = BULK_POINTS // 2
    u = (np.arange(half) + 0.5) / half
    parts = []
    for anchor in ANCHORS:
        params = bfw.BFWParams(*anchor)
        x = bfw.bfw_sample(half, params, seed=int(rng.integers(2**63)))
        parts.append({
            "params": params,
            "x": x,
            "data": bfw.Dataset(times=x),
            "sample_seed": int(rng.integers(2**63)),
        })
    h = _hasher(u, *[(p["x"], p["sample_seed"]) for p in parts])
    return Inputs("bulk", [None], cycle=1, extra={"u": u, "parts": parts},
                  input_hash=h.hexdigest())


def bulk_op(inputs, op, span):
    u = inputs.extra["u"]
    out = []
    for part in inputs.extra["parts"]:
        params, x, data = part["params"], part["x"], part["data"]
        n = x.size
        res = {}
        with span("core.bfw_pdf", n):
            res["pdf"] = bfw.bfw_pdf(x, params)
        with span("core.bfw_cdf", n):
            res["cdf"] = bfw.bfw_cdf(x, params)
        with span("core.bfw_survival", n):
            res["survival"] = bfw.bfw_survival(x, params)
        with span("core.bfw_hazard", n):
            res["hazard"] = bfw.bfw_hazard(x, params)
        with span("core.bfw_quantile", u.size):
            res["quantile"] = bfw.bfw_quantile(u, params)
        with span("core.bfw_sample", u.size):
            res["sample"] = bfw.bfw_sample(u.size, params, seed=part["sample_seed"])
        with span("inference.log_likelihood", n):
            res["log_likelihood"] = bfw.log_likelihood(data, params)
        with span("inference.score", n):
            res["score"] = bfw.score(data, params)
        with span("inference.observed_information", n):
            res["observed_information"] = bfw.observed_information(data, params)
        out.append(res)
    return out


def bulk_subsample(x, count=24):
    """Fixed subsample: both extremes plus evenly spaced ranks."""
    order = np.argsort(x, kind="stable")
    ranks = np.unique(np.round(np.linspace(0, x.size - 1, count)).astype(int))
    return order[ranks]


def bulk_digest(inputs, out):
    """Outputs at the fixed subsample, the scalar results and the sample's head."""
    u = inputs.extra["u"]
    u_idx = bulk_subsample(u, 12)
    digest = []
    for part, res in zip(inputs.extra["parts"], out):
        idx = bulk_subsample(part["x"])
        digest.append({
            "x": part["x"][idx],
            "u": u[u_idx],
            **{k: np.asarray(res[k])[idx] for k in ("pdf", "cdf", "survival", "hazard")},
            "quantile": np.asarray(res["quantile"])[u_idx],
            "log_pdf_sum": float(np.sum(np.log(res["pdf"]))),
            "sample_head": np.asarray(res["sample"])[:2000].copy(),
            **{k: res[k] for k in ("log_likelihood", "score", "observed_information")},
        })
    return digest


# ---------------------------------------------------------------------------
# moments: moment summary, mgf, mode, order-statistic density, quantiles


def moment_op(label, params):
    lo, hi = bfw.bfw_quantile([1e-3, 1 - 1e-3], params)
    return {"label": label, "params": params, "grid": np.linspace(lo, hi, 200)}


def moment_panel():
    """MOMENT_SETS log-normal jitters, alternating between the anchors."""
    rng = np.random.default_rng([PANEL_SEED, 3])
    return [
        moment_op(f"set{i}", bfw.BFWParams(*(np.array(ANCHORS[i % 2])
                                              * np.exp(MOMENT_JITTER * rng.standard_normal(4)))))
        for i in range(MOMENT_SETS)
    ]


def _moment_inputs(seed, root, workdir):
    """One cycle is the whole panel, so every run integrates the same sets
    (as in ``fit``); the workload seed orders the cycle."""
    ops = moment_panel()
    ops = [ops[i] for i in np.random.default_rng([seed, 3]).permutation(len(ops))]
    u = np.arange(1, 100) / 100.0
    h = _hasher(u, [op["label"] for op in ops], *[(op["params"].as_array(), op["grid"]) for op in ops])
    return Inputs("moments", ops, cycle=len(ops), extra={"u": u}, input_hash=h.hexdigest())


def moments_op(inputs, op, span):
    params = op["params"]
    res = {}
    with span("moments.moment_summary"):
        res["summary"] = bfw.moment_summary(params)
    for t in (-1.0, 0.5):
        with span("moments.mgf"):
            res[f"mgf({t})"] = bfw.mgf(t, params)
    with span("core.bfw_mode"):
        res["mode"] = bfw.bfw_mode(params)
    with span("order_stats.order_stat_pdf", op["grid"].size):
        res["order_pdf"] = bfw.order_stat_pdf(op["grid"], bfw.OrderIndex(*ORDER_INDEX), params)
    with span("core.bfw_quantile", inputs.extra["u"].size):
        res["quantile"] = bfw.bfw_quantile(inputs.extra["u"], params)
    return res


# ---------------------------------------------------------------------------
# cli: one fresh `python -m bfw` process per op


def cli_commands(data_file, sample_seed):
    published = ",".join(str(v) for v in PUMPS_POINT)
    return [
        ("fit_pumps", ["fit", "--data", "pumps", "--format", "json"]),
        ("fit_weibull", ["fit", "--family", "weibull", "--data", str(data_file)]),
        ("compare", ["compare", "--data", "pumps"]),
        ("eval", ["eval", "--params", published, "--grid", README_GRID]),
        ("eval_grid", ["eval", "--params", published, "--grid", FAILING_GRID]),
        ("sample", ["sample", "--n", "100000", "--params", published,
                    "--seed", str(sample_seed), "--format", "json"]),
        ("km", ["km", "--data", "pumps"]),
        ("help", ["--help"]),
    ]


def _cli_inputs(seed, root, workdir):
    rng = np.random.default_rng([seed, 4])
    draw = bfw.bfw_sample(1000, bfw.BFWParams(*PUMPS_POINT), seed=int(rng.integers(2**63)))
    text = "".join(f"{v!r}\n" for v in draw.tolist())
    data_file = Path(workdir) / f"cli-n1000-seed{seed}.txt"
    data_file.parent.mkdir(parents=True, exist_ok=True)
    data_file.write_text(text)
    sample_seed = int(rng.integers(2**31))
    ops = [{"label": name, "argv": argv} for name, argv in cli_commands(data_file, sample_seed)]
    h = _hasher(text, cli_commands("DATA", sample_seed))
    extra = {"root": Path(root), "draw": draw, "data_file": data_file, "sample_seed": sample_seed}
    return Inputs("cli", ops, cycle=len(ops), extra=extra, input_hash=h.hexdigest())


def cli_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(inputs, op, span):
    root = inputs.extra["root"]
    proc = subprocess.run(
        [sys.executable, "-m", "bfw", *op["argv"]],
        cwd=root, env=cli_env(root), capture_output=True, timeout=120,
    )
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


# ---------------------------------------------------------------------------


# name -> (input builder, op, output digest taken outside the timed call)
WORKLOADS = {
    "fit": (_fit_inputs, fit_op, None),
    "bulk": (_bulk_inputs, bulk_op, bulk_digest),
    "moments": (_moment_inputs, moments_op, None),
    "cli": (_cli_inputs, cli_op, None),
}


def make_inputs(workload, seed, root, workdir):
    return WORKLOADS[workload][0](seed, root, workdir)


def run_op(inputs, index, span=no_span):
    """Run op ``index`` of the sequence; return (op, raw output or exception)."""
    op = inputs.ops[index % len(inputs.ops)]
    fn = WORKLOADS[inputs.workload][1]
    try:
        return op, fn(inputs, op, span)
    except Exception as exc:  # noqa: BLE001 - a raising op is a measured, failed op
        return op, exc


def digest(inputs, out):
    fn = WORKLOADS[inputs.workload][2]
    if fn is None or isinstance(out, Exception):
        return out
    return fn(inputs, out)
