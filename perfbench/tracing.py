"""Spans for the traced run, and the per-layer metrics computed from them.

A span is recorded around each call the benchmark makes into a ``bfw`` layer
and, by replacing module attributes for the duration of the traced run,
around the calls one ``bfw`` module makes into another (for example
``bfw.core`` calling ``bfw.special.reg_inc_beta``).  No program file is
changed.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads as W

LAYERS = ("op", "cli", "datasets", "inference", "model_selection", "core", "special",
          "flexible_weibull", "moments", "order_stats")

IMPORT_MODULES = ("bfw", "bfw._stable", "bfw.errors", "bfw.special",
                  "bfw.flexible_weibull", "bfw.core", "bfw.inference", "bfw.datasets",
                  "bfw.model_selection", "bfw.moments", "bfw.order_stats")

FIT_SIZES = (23, 50, 200, 1000, 5000)
BULK_KERNELS = ("bfw_pdf", "bfw_cdf", "bfw_survival", "bfw_hazard", "bfw_quantile", "bfw_sample")
INFERENCE_KERNELS = ("log_likelihood", "score", "observed_information")


def _size(args):
    return int(np.size(args[0]))


def _fit_mle_info(args, outcome):
    """Optimizer work from FitResult.starts or ConvergenceError.diagnostics."""
    starts = getattr(outcome, "starts", None) or getattr(outcome, "diagnostics", ())
    return {"iterations": sum(s.iterations for s in starts), "starts": len(starts),
            "converged": sum(bool(s.converged) for s in starts)}


def _ingest_info(args, outcome):
    return {"source": "pumps" if str(args[0]) == "pumps" else "file"}


# (module, attribute, span name or name(args), points(args), info(args, result or exception))
TARGETS = (
    ("bfw.inference", "fit_mle", "inference.fit_mle", None, _fit_mle_info),
    ("bfw.inference", "covariance_from_information", "inference.covariance_from_information", None, None),
    ("bfw.inference", "observed_information", "inference.observed_information", None, None),
    ("bfw.inference", "score", "inference.score", None, None),
    ("bfw.model_selection", "compare_models", "model_selection.compare_models", None, None),
    ("bfw.model_selection", "fit_model", lambda a: f"model_selection.fit_model.{a[0].name}", None, None),
    ("bfw.model_selection", "ks_statistic", "model_selection.ks_statistic", None, None),
    ("bfw.model_selection", "information_criteria", "model_selection.information_criteria", None, None),
    ("bfw.model_selection", "weibull_loglik_grad", "model_selection.weibull_loglik_grad", None, None),
    ("bfw.model_selection", "ecdf", "model_selection.ecdf", None, None),
    ("bfw.model_selection", "kaplan_meier", "model_selection.kaplan_meier", None, None),
    ("bfw.model_selection", "bfw_cdf", "core.bfw_cdf", _size, None),
    ("bfw.model_selection", "bfw_pdf", "core.bfw_pdf", _size, None),
    ("bfw.model_selection", "fw_cdf", "flexible_weibull.fw_cdf", _size, None),
    ("bfw.core", "fw_cdf", "flexible_weibull.fw_cdf", _size, None),
    ("bfw.core", "fw_quantile", "flexible_weibull.fw_quantile", _size, None),
    ("bfw.special", "reg_inc_beta", "special.reg_inc_beta", _size, None),
    ("bfw.special", "inv_reg_inc_beta", "special.inv_reg_inc_beta", _size, None),
    ("bfw.moments", "bfw_log_pdf", "core.bfw_log_pdf", _size, None),
    ("bfw.cli", "ingest", "datasets.ingest", None, _ingest_info),
    ("bfw.cli", "bfw_sample", "core.bfw_sample", lambda args: int(args[0]), None),
    ("bfw.cli", "covariance_from_information", "inference.covariance_from_information", None, None),
)


class Tracer:
    """Spans (name, start, end, parent, op id, points, info) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name, points=None):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op_id, "points": points, "info": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, points, info):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label, points(args) if points else None) as record:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    record["error"] = type(exc).__name__
                    if info:
                        record["info"] = info(args, exc)
                    raise
                if info:
                    record["info"] = info(args, result)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target attribute with a tracing wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, name, points, info in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name, points, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)



def write_spans(path, phases):
    """One JSON object per span; ``parent`` indexes spans of the same phase."""
    with open(path, "w") as handle:
        for phase, spans in phases.items():
            for record in spans:
                handle.write(json.dumps({"phase": phase, **record}) + "\n")


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child[record["parent"]] += record["end"] - record["start"]
    return [r["end"] - r["start"] - c for r, c in zip(spans, child)]


def layer_self_ms(spans, ops=1):
    """Self time per layer (first part of the span name), in ms per op."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for record, own in zip(spans, self_times(spans)):
        layer = record["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return {layer: 1e3 * total / max(ops, 1) for layer, total in totals.items()}


# ---------------------------------------------------------------------------
# layer probe: fixed inputs per layer, the same in every workload's traced run


def import_metrics(root):
    """Cumulative import time per bfw module from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bfw.cli"],
        cwd=root, env=W.cli_env(root), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing bfw.cli failed: {proc.stderr.strip()}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e3
    metrics = {"cli.import.ms": cumulative["bfw.cli"]}
    metrics.update({f"cli.import.{name}.ms": cumulative[name] for name in IMPORT_MODULES})
    return metrics


def _select(spans, op_prefix, name):
    return [r for r in spans if r["name"] == name and str(r["op"]).startswith(op_prefix)]


def _mean_ms(records):
    return 1e3 * statistics.fmean(r["end"] - r["start"] for r in records) if records else 0.0


def _ns_per_pt(records):
    points = sum(r["points"] for r in records)
    return 1e9 * sum(r["end"] - r["start"] for r in records) / points if points else 0.0


def _time_call(fn, budget=0.05):
    laps = []
    end = time.perf_counter() + budget
    while len(laps) < 3 or (time.perf_counter() < end and len(laps) < 200):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return statistics.median(laps)


def _probe_cli(tracer, cli_inputs, metrics):
    import bfw.cli

    extra = cli_inputs.extra
    for name, argv in W.cli_commands(extra["data_file"], extra["sample_seed"]):
        tracer.op_id = f"probe.cli.{name}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span(f"cli.main.{name}") as record:
                bfw.cli.main(argv)
        metrics[f"cli.main.{name}.ms"] = 1e3 * (record["end"] - record["start"])
        metrics[f"cli.stdout.{name}.bytes"] = len(out.getvalue().encode())
    self_ms = self_times(tracer.spans)
    for index, record in enumerate(tracer.spans):
        if record["name"].startswith("cli.main."):
            metrics[f"cli.self.{record['name'][9:]}.ms"] = 1e3 * self_ms[index]
    for source in ("pumps", "file"):
        records = [r for r in tracer.spans if r["name"] == "datasets.ingest"
                   and r["info"]["source"] == source]
        metrics[f"datasets.ingest.{source}.ms"] = _mean_ms(records)


def _probe_fit(tracer, fit_inputs, metrics):
    ops = [op for op in fit_inputs.ops if op["label"] == "pumps-0" or "-n200-0" in op["label"]]
    for i, op in enumerate(ops):
        tracer.op_id = f"probe.fit.{i}"
        with tracer.span("op.fit"):
            W.fit_op(fit_inputs, op, tracer.span)
    spans = tracer.spans
    fits = _select(spans, "probe.fit", "inference.fit_mle")
    info = [r["info"] for r in fits]
    metrics["inference.fit_mle.ms"] = _mean_ms(fits)
    metrics["inference.fit_mle.iterations"] = statistics.fmean(i["iterations"] for i in info)
    metrics["inference.fit_mle.converged_starts_ratio"] = (
        sum(i["converged"] for i in info) / sum(i["starts"] for i in info))
    metrics["inference.covariance_from_information.us"] = 1e3 * _mean_ms(
        _select(spans, "probe.fit", "inference.covariance_from_information"))
    for family in ("fw", "weibull"):
        metrics[f"model_selection.fit_model.{family}.ms"] = _mean_ms(
            _select(spans, "probe.fit", f"model_selection.fit_model.{family}"))
    metrics["model_selection.ks_statistic.ms"] = _mean_ms(
        _select(spans, "probe.fit", "model_selection.ks_statistic"))
    bfw = W.bfw
    for n in FIT_SIZES:
        op = next(op for op in fit_inputs.ops if op["data"].n == n)
        data, params = op["data"], bfw.BFWParams(*op["truth"])
        for fn_name in INFERENCE_KERNELS:
            fn = getattr(bfw, fn_name)
            metrics[f"inference.{fn_name}.n{n}.us"] = 1e6 * _time_call(lambda: fn(data, params))


def _probe_bulk(tracer, bulk_inputs, metrics):
    tracer.op_id = "probe.bulk"
    with tracer.span("op.bulk"):
        W.bulk_op(bulk_inputs, None, tracer.span)
    spans = tracer.spans
    for kernel in BULK_KERNELS:
        metrics[f"core.{kernel}.ns_per_pt"] = _ns_per_pt(_select(spans, "probe.bulk", f"core.{kernel}"))
    for kernel in INFERENCE_KERNELS:
        metrics[f"inference.{kernel}.ns_per_pt"] = _ns_per_pt(
            _select(spans, "probe.bulk", f"inference.{kernel}"))
    for name in ("special.reg_inc_beta", "special.inv_reg_inc_beta",
                 "flexible_weibull.fw_cdf", "flexible_weibull.fw_quantile"):
        metrics[f"{name}.ns_per_pt"] = _ns_per_pt(_select(spans, "probe.bulk", name))
    half = W.BULK_POINTS // 2
    # per anchor: x read by 7 calls, u by 1, six output arrays written
    metrics["bulk.bytes_per_op_computed"] = 2 * 8 * half * (7 + 1 + 6)


def _probe_moments(tracer, moment_inputs, metrics):
    """Timings from one op at each anchor; ``moments.quad_failures`` counts the
    QuadratureAccuracyErrors over those two ops and the panel sets known to
    fail, so a fix or a new failure moves it."""
    bfw = W.bfw
    failing = sorted(checks.KNOWN_FAILURES["moments"][1])
    ops = [(f"anchor{i}", W.moment_op(f"anchor{i}", bfw.BFWParams(*anchor)))
           for i, anchor in enumerate(W.ANCHORS)]
    ops += [(f"panel.{op['label']}", op) for op in W.moment_panel() if op["label"] in failing]
    failures = 0
    for name, op in ops:
        tracer.op_id = f"probe.moments.{name}"
        with tracer.span("op.moments"):
            try:
                W.moments_op(moment_inputs, op, tracer.span)
            except bfw.QuadratureAccuracyError:
                failures += 1
    spans = tracer.spans
    calls = _select(spans, "probe.moments.anchor", "core.bfw_log_pdf")
    metrics["core.bfw_log_pdf.calls"] = len(calls) / len(W.ANCHORS)
    metrics["core.bfw_log_pdf.scalar_us"] = 1e3 * _mean_ms(calls)
    metrics["core.bfw_mode.ms"] = _mean_ms(_select(spans, "probe.moments.anchor", "core.bfw_mode"))
    for name in ("moment_summary", "mgf"):
        metrics[f"moments.{name}.ms"] = _mean_ms(
            _select(spans, "probe.moments.anchor", f"moments.{name}"))
    metrics["moments.quad_failures"] = failures
    metrics["order_stats.order_stat_pdf.ns_per_pt"] = _ns_per_pt(
        _select(spans, "probe.moments.anchor", "order_stats.order_stat_pdf"))


def layer_probe(root, workdir, seed):
    """Per-layer metrics from one traced op of each workload on fixed inputs,
    including each layer's self time summed over the probe (``self.<layer>.ms``).

    Returns (metrics, tracer) so the caller can write the spans out.
    """
    metrics = import_metrics(root)
    inputs = {name: W.make_inputs(name, seed, root, workdir) for name in W.WORKLOADS}
    tracer = Tracer()
    with tracer.installed():
        _probe_cli(tracer, inputs["cli"], metrics)
        _probe_fit(tracer, inputs["fit"], metrics)
        _probe_bulk(tracer, inputs["bulk"], metrics)
        _probe_moments(tracer, inputs["moments"], metrics)
    metrics.update({f"self.{layer}.ms": ms for layer, ms in layer_self_ms(tracer.spans).items()
                    if layer in LAYERS})
    return metrics, tracer
