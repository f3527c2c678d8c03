"""Tests of the benchmark itself: ``python -m pytest perfbench``.

They check that a result names exactly the metrics of BENCHMARK.json, that
inputs are a function of the seed, and that every correctness check rejects
an output perturbed by about one part in a million.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bfw  # noqa: E402
import bfw.cli  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bump(value, rel=1e-6):
    return value * (1 + rel)


def _run(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_names_match_spec(trace, tmp_path):
    result = _run("bulk", trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = W.make_inputs(workload, 7, ROOT, tmp_path / "a")
    again = W.make_inputs(workload, 7, ROOT, tmp_path / "b")
    other = W.make_inputs(workload, 8, ROOT, tmp_path / "c")
    assert first.input_hash == again.input_hash != other.input_hash


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    spans = tracer.spans
    with tracer.span("op.x"):
        with tracer.span("core.a"):
            with tracer.span("special.b"):
                pass
    spans[0].update(start=0.0, end=10.0)
    spans[1].update(start=1.0, end=5.0)
    spans[2].update(start=2.0, end=3.0)
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    per_op = tracing.layer_self_ms(spans, ops=2)
    assert per_op["op"] == 3000.0 and per_op["special"] == 500.0


@pytest.mark.parametrize("workload", ["fit", "cli"])
def test_scaling_removes_the_host_but_not_the_program(workload):
    import run

    gauge = run.make_host_gauge(workload)
    ref = gauge.ref_ms
    wall = [0.2, 0.3, 0.25, 0.4, 0.35] * 4
    base = run.loop_metrics([(None, w, None, ref) for w in wall], gauge)
    slow_host = run.loop_metrics([(None, 1.3 * w, None, 1.3 * ref) for w in wall], gauge)
    slow_program = run.loop_metrics([(None, 1.3 * w, None, ref) for w in wall], gauge)
    for name in ("latency_p50_ms", "ops_per_s"):
        assert slow_host[name] == pytest.approx(base[name])
        factor = 1.3 if name.endswith("ms") else 1 / 1.3
        assert slow_program[name] == pytest.approx(base[name] * factor)
    assert base["latency_p50_ms"] == pytest.approx(1e3 * run.hd_median(wall))
    assert run.hd_median([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(3.0)
    assert gauge.read() > 0


# ---------------------------------------------------------------------------
# every check rejects a perturbed output


@pytest.fixture(scope="module")
def bulk_case(tmp_path_factory):
    inputs = W.make_inputs("bulk", 3, ROOT, tmp_path_factory.mktemp("bulk"))
    _, out = W.run_op(inputs, 0)
    return inputs, W.digest(inputs, out)


BULK_FIELDS = ["pdf", "cdf", "survival", "hazard", "quantile", "log_likelihood",
               "log_pdf_sum", "score", "observed_information"]


def test_bulk_output_passes(bulk_case):
    inputs, digest = bulk_case
    assert checks.check_bulk(inputs, None, digest) == checks.OK


@pytest.mark.parametrize("field", BULK_FIELDS + ["sample_head"])
def test_bulk_check_rejects(bulk_case, field):
    inputs, digest = bulk_case
    bad = [dict(part) for part in digest]
    value = np.array(bad[1][field], dtype=float)
    if field == "sample_head":
        value = value * 1.1  # a sample is judged by its distribution, not by one draw
    elif value.ndim == 0:
        value = _bump(value)
    else:
        value.flat[-1] = _bump(value.flat[-1])
    bad[1][field] = value if value.ndim else float(value)
    assert checks.check_bulk(inputs, None, bad).status == "wrong"


@pytest.fixture(scope="module")
def fit_case(tmp_path_factory):
    inputs = W.make_inputs("fit", 3, ROOT, tmp_path_factory.mktemp("fit"))
    op = next(op for op in inputs.ops if op["label"] == "pumps-0")
    return inputs, op, W.fit_op(inputs, op, W.no_span)


def _replace_row(table, model, **changes):
    rows = tuple(dataclasses.replace(r, **changes) if r.model == model else r for r in table.rows)
    return dataclasses.replace(table, rows=rows)


def test_fit_output_passes(fit_case):
    inputs, op, table = fit_case
    assert checks.check_fit(inputs, op, table) == checks.OK


@pytest.mark.parametrize("model", W.FAMILIES)
@pytest.mark.parametrize("field", ["log_likelihood", "aic", "bic", "hqic", "ks", "estimates"])
def test_fit_check_rejects(fit_case, model, field):
    inputs, op, table = fit_case
    row = next(r for r in table.rows if r.model == model)
    if field == "estimates":
        first = next(iter(row.estimates))
        value = {**row.estimates, first: _bump(row.estimates[first])}
    else:
        value = _bump(getattr(row, field))
    bad = _replace_row(table, model, **{field: value})
    assert checks.check_fit(inputs, op, bad).status == "wrong"


def test_fit_check_rejects_a_point_below_the_generating_one(fit_case):
    inputs, op, table = fit_case
    x = np.asarray(op["data"].times)
    worse = dict(zip(("alpha", "beta", "p", "q"), np.array(W.PUMPS_POINT) * 1.05))
    ll = checks.ref_loglik(x, tuple(worse.values()))
    crit = checks.information_criteria(ll, 4, x.size)
    ks = checks.ks_reference(x, checks.ref_cdf(x, tuple(worse.values())))
    bad = _replace_row(table, "bfw", estimates=worse, log_likelihood=ll, ks=ks, **crit)
    bad = dataclasses.replace(bad, rows=tuple(sorted(bad.rows, key=lambda r: r.aic)))
    verdict = checks.check_fit(inputs, op, bad)
    assert verdict.status == "wrong" and "generating" in verdict.reason and not verdict.known


@pytest.mark.parametrize("workload", ["fit", "moments"])
def test_known_failures_name_ops_of_the_panel(workload, tmp_path):
    labels = {op["label"] for op in W.make_inputs(workload, 1, ROOT, tmp_path).ops}
    assert checks.KNOWN_FAILURES[workload][1] <= labels


CONVERGENCE = "no optimizer start converged; inspect per-start diagnostics"


def test_fit_convergence_error_is_known_only_on_the_listed_ops(fit_case):
    inputs, op, table = fit_case
    bad = _replace_row(table, "bfw", error=CONVERGENCE)
    listed = {**op, "label": "anchor0-n1000-0"}
    assert checks.check_fit(inputs, listed, bad).known
    verdict = checks.check_fit(inputs, op, bad)
    assert verdict.status == "failed" and not verdict.known
    assert not checks.check_fit(inputs, listed, _replace_row(table, "fw", error="boom")).known
    other = _replace_row(table, "bfw", error="optimizer returned non-finite parameters")
    assert not checks.check_fit(inputs, listed, other).known


@pytest.fixture(scope="module")
def moments_case(tmp_path_factory):
    inputs = W.make_inputs("moments", 3, ROOT, tmp_path_factory.mktemp("moments"))
    op = inputs.ops[0]
    return inputs, op, W.moments_op(inputs, op, W.no_span)


def test_moments_output_passes(moments_case):
    assert checks.check_moments(*moments_case) == checks.OK
    assert checks.check_mgf_identity(moments_case[1]["params"]) is None


@pytest.mark.parametrize("field", ["raw_moments", "mean", "mgf(-1.0)", "mgf(0.5)", "mode",
                                   "order_pdf", "quantile"])
def test_moments_check_rejects(moments_case, field):
    inputs, op, res = moments_case
    bad = dict(res)
    summary = res["summary"]
    if field == "raw_moments":
        moments = list(summary.raw_moments)
        moments[3] = _bump(moments[3])
        bad["summary"] = dataclasses.replace(summary, raw_moments=tuple(moments))
    elif field == "mean":
        bad["summary"] = dataclasses.replace(summary, mean=_bump(summary.mean))
    elif field in ("order_pdf", "quantile"):
        value = np.array(res[field])
        value[-1] = _bump(value[-1])
        bad[field] = value
    else:
        bad[field] = _bump(res[field])
    assert checks.check_moments(inputs, op, bad).status == "wrong"


def test_quadrature_error_is_known_only_on_the_listed_sets(moments_case):
    inputs, op, _ = moments_case
    error = bfw.QuadratureAccuracyError("integration stalled", 1.0, 1e-6)
    listed = {**op, "label": "set28"}
    assert checks.check_moments(inputs, listed, error).known
    verdict = checks.check_moments(inputs, {**op, "label": "set27"}, error)
    assert verdict.status == "failed" and not verdict.known
    assert not checks.check_moments(inputs, listed, ValueError("boom")).known


def test_mgf_identity_rejects(moments_case, monkeypatch):
    monkeypatch.setattr(W.bfw, "mgf", lambda t, params: 1 + 1e-6)
    assert checks.check_mgf_identity(moments_case[1]["params"]) is not None


@pytest.fixture(scope="module")
def cli_case(tmp_path_factory):
    inputs = W.make_inputs("cli", 3, ROOT, tmp_path_factory.mktemp("cli"))
    outputs = {}
    for op in inputs.ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bfw.cli.main(op["argv"])
        outputs[op["label"]] = {"returncode": rc, "stdout": out.getvalue().encode(),
                                "stderr": err.getvalue().encode()}
    return inputs, checks.CliChecker(inputs), outputs


def _op(inputs, label):
    return next(op for op in inputs.ops if op["label"] == label)


def test_cli_outputs_pass(cli_case):
    inputs, check, outputs = cli_case
    for label, res in outputs.items():
        verdict = check(_op(inputs, label), res)
        if label == "eval_grid":
            assert verdict.status == "failed" and verdict.known
        else:
            assert verdict == checks.OK, (label, verdict)


def _perturb_number(text, pattern):
    """Scale the first number matching ``pattern`` (group 1) by 1 + 1e-6."""
    match = re.search(pattern, text)
    value = float(match.group(1))
    return text[:match.start(1)] + repr(_bump(value)) + text[match.end(1):]


CLI_PERTURBATIONS = {
    "fit_pumps": r'"alpha": ([-0-9.e]+)',
    "fit_weibull": r"estimate\.shape,([-0-9.e]+)",
    "compare": r"\nbfw,[^,]*,([-0-9.e]+)",
    "eval": r"\n[-0-9.e]+,([-0-9.e]+)",
    "sample": r'"values": \[\s*([-0-9.e]+)',
    "km": r"time,ecdf,km_survival\n[^\n]*\n[-0-9.e]+,([-0-9.e]+)",
}


@pytest.mark.parametrize("label", list(CLI_PERTURBATIONS) + ["help"])
def test_cli_check_rejects(cli_case, label):
    inputs, check, outputs = cli_case
    res = dict(outputs[label])
    text = res["stdout"].decode()
    if label == "help":
        text = text.replace("usage: bfw", "usage:")
    else:
        text = _perturb_number(text, CLI_PERTURBATIONS[label])
    res["stdout"] = text.encode()
    assert check(_op(inputs, label), res).status == "wrong"


def test_cli_unexpected_exit_is_not_known(cli_case):
    inputs, check, outputs = cli_case
    for label, rc in (("eval", 3), ("eval", 5), ("eval_grid", 3)):
        verdict = check(_op(inputs, label), dict(outputs[label], returncode=rc))
        assert verdict.status == "failed" and not verdict.known, (label, rc)
