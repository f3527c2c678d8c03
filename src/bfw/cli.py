"""Command-line interface.

Subcommands: ``fit``, ``compare``, ``sample``, ``eval`` and ``km``.  Results
go to stdout (or ``--output``) as CSV or as a JSON envelope with ``meta``
and ``result`` members; a command builds only the format it writes.
Numbers are written with 17 significant digits in CSV and by ``repr`` in
JSON, so a text round-trip reproduces the exact double; in JSON, NaN and
+/-inf are written as ``null``.

Exit codes: 0 success, 2 usage error, 3 data error, 4 convergence failure,
5 numeric failure.  An unwritable output, stdout and help text included, is
a data error; an unwritable stderr keeps the command's code.  A standard
stream that fails a write is replaced by one on ``os.devnull``.

:func:`main` is the embedding API: it returns the exit code and never ends
the process.  :func:`run` is the process entry point of the ``bfw`` script
and of ``python -m bfw``.  It runs ``main``, flushes stdout and stderr, and
then ends the process with ``os._exit``: the output is flushed, then no
interpreter teardown runs (no ``atexit`` hook, no module cleanup).  Anything
a command must finish, a log included, finishes inside ``run``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, model_selection
from .core import BFWParams, bfw_sample
from .datasets import ingest
from .errors import (
    ConvergenceError,
    DataFormatError,
    DomainError,
    ExpansionStabilityError,
    NoInteriorModeError,
    NumericError,
    QuadratureAccuracyError,
    SaturationError,
)
from .inference import OptimizerConfig, checked_level, interval_bounds
from .inference import covariance_from_information  # noqa: F401 - kept for perfbench/tracing.py

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4
EXIT_NUMERIC = 5

_NUMERIC_ERRORS = (
    SaturationError,
    NumericError,
    QuadratureAccuracyError,
    ExpansionStabilityError,
    NoInteriorModeError,
    OverflowError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def _fmt(value):
    return format(float(value), ".17g")


class _Parser(argparse.ArgumentParser):
    """An argument parser that writes through the CLI's writers: help text
    to stdout by :func:`_write`, so that an unwritable stdout is a data
    error, and usage errors to stderr by :func:`_say`.  Its subparsers are
    of the same class."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _write("-", message)
        else:
            _say(message)


def build_parser():
    parser = _Parser(
        prog="bfw",
        description="Beta flexible Weibull lifetime model: fitting, comparison, "
        "sampling and curve evaluation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    families, forms = model_selection.available_families(), model_selection.WEIBULL_FORMS

    fit = sub.add_parser("fit", parents=[common], help="maximum-likelihood fit")
    fit.add_argument("--data", required=True, help="file of positive reals, or 'pumps'")
    fit.add_argument("--family", choices=families, default=families[0])
    fit.add_argument("--level", type=float, default=0.95, help="confidence level")
    fit.add_argument("--starts", type=int, default=16, help="multi-start count (bfw)")
    fit.add_argument("--tol", type=float, default=1e-6, help="score tolerance")
    fit.add_argument("--weibull-form", choices=forms, default=forms[0])

    compare = sub.add_parser("compare", parents=[common], help="criteria comparison table")
    compare.add_argument("--data", required=True)
    compare.add_argument("--families", default=",".join(families))
    compare.add_argument("--starts", type=int, default=16)
    compare.add_argument("--tol", type=float, default=1e-6)
    compare.add_argument("--weibull-form", choices=forms, default=forms[0])

    sample = sub.add_parser("sample", parents=[common], help="draw random variates")
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--params", required=True, help="alpha,beta,p,q")
    sample.add_argument("--seed", type=int, required=True)

    ev = sub.add_parser("eval", parents=[common], help="distribution curves on a grid")
    ev.add_argument("--family", choices=families, default=families[0])
    ev.add_argument("--params", required=True, help="comma-separated family parameters")
    ev.add_argument("--grid", required=True, help="lo:hi:count, strictly positive")
    ev.add_argument("--weibull-form", choices=forms, default=forms[0])

    km = sub.add_parser("km", parents=[common], help="empirical step curves")
    km.add_argument("--data", required=True)
    return parser


def _parse_params(text, count, label):
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if len(parts) != count:
        raise DomainError(f"--params expects {count} values for {label}, got {len(parts)}")
    try:
        return [float(part) for part in parts]
    except ValueError as exc:
        raise DomainError(f"--params: {exc}") from None


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("--grid expects lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"--grid: {exc}") from None
    if count < 1:
        raise DomainError("--grid count must be at least 1")
    if lo <= 0.0 or hi <= 0.0 or hi < lo:
        raise DomainError("--grid endpoints must be strictly positive with lo <= hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):  # nan passes the test above
        raise DomainError("--grid endpoints must be finite")
    return np.linspace(lo, hi, count)


def _run_fit(args):
    data = ingest(args.data)
    checked_level(args.level)  # before the fit
    config = OptimizerConfig(starts=args.starts, score_tol=args.tol)
    family = model_selection.get_family(args.family, args.weibull_form, config)
    fit = family.fit(data)
    row = model_selection.comparison_row(family, data, fit)
    values, covariance = family.output(fit.estimates, fit.covariance)
    intervals = (
        interval_bounds(values, np.diag(covariance), args.level)
        if covariance is not None
        else (None,) * family.parameter_count
    )
    result_obj = dataclasses.asdict(row)
    del result_obj["error"]  # None: the fit returned
    result_obj.update({
        "covariance": None if covariance is None else [[float(v) for v in r] for r in covariance],
        "condition_number": fit.condition_number,
        "ci": {
            "level": args.level,
            **{
                name: (None if interval is None else [interval[0], interval[1]])
                for name, interval in zip(family.param_names, intervals)
            },
        },
        "converged": fit.converged,
        "iterations": fit.iterations,
        "multistart_best_of": fit.multistart_best_of,
        "score": [float(g) for g in fit.score_at_optimum],
    })
    return result_obj if args.format == "json" else _render_fit_csv(result_obj)


def _render_fit_csv(result):
    lines = ["field,value"]

    def put(field, value):
        if value is None:
            lines.append(f"{field},")
        elif isinstance(value, bool):
            lines.append(f"{field},{str(value).lower()}")
        elif isinstance(value, (int, float)):
            lines.append(f"{field},{_fmt(value)}")
        else:
            lines.append(f"{field},{value}")

    put("model", result["model"])
    for name, value in result["estimates"].items():
        put(f"estimate.{name}", value)
    for key in ("log_likelihood", "minus_two_ll", "aic", "aicc", "bic", "hqic", "ks"):
        put(key, result[key])
    names = list(result["estimates"])
    if result["covariance"] is not None:
        for i, row in enumerate(result["covariance"]):
            for j, value in enumerate(row):
                put(f"covariance.{names[i]}.{names[j]}", value)
    put("condition_number", result["condition_number"])
    put("ci.level", result["ci"]["level"])
    for name in names:
        interval = result["ci"][name]
        if interval is None:
            put(f"ci.{name}.lower", None)
            put(f"ci.{name}.upper", None)
        else:
            put(f"ci.{name}.lower", interval[0])
            put(f"ci.{name}.upper", interval[1])
    put("converged", result["converged"])
    for i, value in enumerate(result["score"]):
        put(f"score.{i}", value)
    put("iterations", result["iterations"])
    put("multistart_best_of", result["multistart_best_of"])
    return "\n".join(lines) + "\n"


def _run_compare(args):
    data = ingest(args.data)
    names = [name.strip() for name in args.families.split(",") if name.strip()]
    if not names:
        raise DomainError("--families must name at least one family")
    config = OptimizerConfig(starts=args.starts, score_tol=args.tol)
    families = [model_selection.get_family(name, args.weibull_form, config) for name in names]
    table = model_selection.compare_models(data, families)
    if args.format == "json":
        rows = [dataclasses.asdict(row) for row in table.rows]  # _json writes NaN as null
        return {"label": table.label, "n": table.n, "rows": rows}
    lines = ["model,parameters,log_likelihood,minus_two_ll,aic,aicc,bic,hqic,ks,error"]
    for row in table.rows:
        fields = dataclasses.asdict(row)  # the header's order
        model, estimates, error = fields.pop("model"), fields.pop("estimates"), fields.pop("error")
        params = ";".join(f"{k}={_fmt(v)}" for k, v in (estimates or {}).items())
        lines.append(",".join([model, params, *map(_fmt, fields.values()), error or ""]))
    return "\n".join(lines) + "\n"


def _run_sample(args):
    if args.n < 0:
        raise DomainError("--n must be non-negative")
    values = _parse_params(args.params, 4, model_selection.available_families()[0])  # bfw
    params = BFWParams(*values)
    draws = bfw_sample(args.n, params, args.seed).tolist()
    if args.format == "json":
        return {"values": draws}
    return "".join(_fmt(v) + "\n" for v in draws)


def _run_eval(args):
    grid = _parse_grid(args.grid)
    family = model_selection.get_family(args.family, args.weibull_form)
    theta = family.parameters(_parse_params(args.params, family.parameter_count, family.name))
    pdf = np.exp(np.asarray(family.log_pdf(grid, theta), dtype=float))
    cdf = np.asarray(family.cdf(grid, theta), dtype=float)
    survival = 1.0 - cdf
    if np.any(survival <= 0.0):
        raise SaturationError("survival underflowed to zero on the requested grid")
    hazard = pdf / survival
    return _table(args, ["x", "pdf", "cdf", "survival", "hazard"],
                  [grid, pdf, cdf, survival, hazard])


def _run_km(args):
    data = ingest(args.data)
    emp = model_selection.ecdf(data)
    km = model_selection.kaplan_meier(data)
    times = np.concatenate(([0.0], emp.times))
    ecdf_vals = np.concatenate(([emp.initial_value], emp.values))
    km_vals = np.concatenate(([km.initial_value], km.values))
    return _table(args, ["time", "ecdf", "km_survival"], [times, ecdf_vals, km_vals])


def _table(args, columns, values):
    """The JSON result or the CSV text of equal-length numeric columns."""
    rows = np.column_stack(values).tolist()
    if args.format == "json":
        return {"columns": columns, "rows": rows}
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# each returns the JSON result under --format json, else the CSV text
_COMMANDS = {
    "fit": _run_fit,
    "compare": _run_compare,
    "sample": _run_sample,
    "eval": _run_eval,
    "km": _run_km,
}


def _meta(args):
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command",) and not key.startswith("_")
    }
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
    }


# how the C encoder writes non-finite floats, "-Infinity" before "Infinity"
_NON_FINITE = ("-Infinity", "Infinity", "NaN")


def _json(obj, pad="\n"):
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it at the nesting whose
    lines start with ``pad``, with NaN and +/-inf written as null and numpy
    scalars as Python ones; dict keys are strings.

    ``indent`` always takes the pure-Python encoder, so a list that holds no
    container or string is encoded by the C encoder and re-indented instead.
    Its text then holds no '"', and no '[' or '{' but the first bracket; and
    ", " appears in it only between items, since no number, ``null``,
    ``true`` or ``false`` contains it.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [inner + json.dumps(key) + ": " + _json(value, inner) for key, value in obj.items()]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not isinstance(obj[0], (dict, list, tuple, str)):
            try:
                text = json.dumps(obj)
            except TypeError:  # a numpy scalar, rendered item by item below
                text = ""
            if text and '"' not in text and "{" not in text and "[" not in text[1:]:
                for token in _NON_FINITE:
                    text = text.replace(token, "null")
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + pad + "]"
        return "[" + ",".join(inner + _json(value, inner) for value in obj) + pad + "]"
    if isinstance(obj, np.generic):
        obj = obj.item()
    text = json.dumps(obj)
    return "null" if text in _NON_FINITE else text


def _write(output, text):
    """Write ``text`` to the path ``output``, '-' for stdout; an ``OSError``
    propagates."""
    if output == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()  # a buffered stdout fails here, inside main's OSError handling
        except OSError:  # its unwritten bytes would fail the interpreter's final flush
            sys.stdout = open(os.devnull, "w")
            raise
    else:
        with open(output, "w", newline="\n") as handle:
            handle.write(text)


def _say(text):
    """Write ``text`` to stderr, passing over a stderr that cannot be
    written, so that the exit code stays the command's."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):  # None when the process started with fd 2 closed
        sys.stderr = open(os.devnull, "w")  # drops unwritten bytes, as in _write


def _emit(args, output):
    """Write a command's output: its CSV text, or its result in the JSON envelope."""
    if args.format == "json":
        output = _json({"meta": _meta(args), "result": output}) + "\n"
    _write(args.output, output)


def _fail(args, code, exc):
    """Report ``exc`` on stderr and, under ``--format json``, in the error
    envelope on the output (``args`` None: on stderr only); returns ``code``."""
    _say(f"bfw: error: {exc}\n")
    if getattr(args, "format", "csv") == "json":
        envelope = {
            "meta": _meta(args),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        try:
            _write(args.output, _json(envelope) + "\n")
        except OSError as write_exc:
            _fail(None, code, write_exc)
    return code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except OSError as exc:  # help text that cannot be written
        return _fail(None, EXIT_DATA, exc)
    try:
        output = _COMMANDS[args.command](args)
    except (DataFormatError, OSError) as exc:
        return _fail(args, EXIT_DATA, exc)
    except ConvergenceError as exc:
        return _fail(args, EXIT_CONVERGENCE, exc)
    except DomainError as exc:
        return _fail(args, EXIT_USAGE, exc)
    except _NUMERIC_ERRORS as exc:
        return _fail(args, EXIT_NUMERIC, exc)
    try:
        _emit(args, output)
    except OSError as exc:  # the output failed, so nothing more is written to it
        return _fail(None, EXIT_DATA, exc)
    return EXIT_OK


def run():
    """Run :func:`main` on ``sys.argv``, flush stdout and stderr, and end
    the process with its exit code, skipping interpreter teardown.

    ``main`` writes every output, help text included, by :func:`_write`,
    which flushes it, and reports a write that failed in its exit code, so
    a flush that fails here has nothing left to report.  An exception that
    escapes ``main`` propagates with its traceback and a normal exit.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with that fd closed
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
