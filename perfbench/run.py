"""Benchmark of the bfw library and CLI.

    python3 perfbench/run.py --workload {fit,bulk,moments,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed``, then a closed loop with one
caller runs whole cycles of the workload's ops for about ``--seconds``
(see ``measure``).  Every op's output is checked against an independent reference
after the loop.  Op latencies are reported at a reference host speed, read
from a gauge between ops (see ``HostGauge``).  With ``--trace 0`` the result
carries the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics: half the time runs untraced and half traced (the
difference is the tracing overhead), followed by a layer probe.

The last line of standard output is the result object; the lines before it
name every metric with its unit and workload, plus the run facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The workloads make no BLAS call larger than 4x4, yet idle threads of a
# threaded BLAS spin on the other core: on a 2-vCPU VM with one competing
# process, eight fit ops took 8.7 s instead of 4.5 s.  One thread, unless the
# caller chose otherwise; the run facts record the setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 2  # fresh processes; with this one, setup_s is a median of three
P90_MIN_OPS = 100  # a p90 needs ten samples beyond it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "bulk", "moments", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload, seed):
    """Import bfw from this checkout and generate the inputs; timed."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "bfw" / "__init__.py").is_file():
        raise RuntimeError(f"no bfw package under {src}")
    sys.path.insert(0, str(src))
    import bfw

    if not Path(bfw.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported bfw from {bfw.__file__}, not from {src}")
    import workloads

    inputs = workloads.make_inputs(workload, seed, ROOT, WORKDIR)
    return inputs, time.perf_counter() - t0


def setup_probe(workload, seed):
    """setup_s and the input hash measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


@dataclass(frozen=True)
class HostGauge:
    """A gauge of the host's speed.  ``read()`` returns the wall time in ms of
    fixed work that never calls bfw; ``scaled_latencies`` multiplies each op's
    wall time by ``ref_ms`` over the median reading of that op and of its
    ``window`` neighbours on each side.

    On a shared 2-vCPU VM the host's speed moves by 25% within seconds and by
    1.5x over minutes, with nothing else running in the VM and no steal time,
    and every op's wall time moves with it.  The gauge is read before every op
    and after the last, outside the timed calls.  Work the program does never
    runs inside the gauge, so a faster or slower program moves the scaled
    times as much as the wall times.
    """

    read: Callable[[], float]
    ref_ms: float
    window: int


CHILD_GAUGE = ("import math, numpy, scipy.special\n"
               "total = 0.0\n"
               "for i in range(100_000):\n"
               "    total += math.sqrt(i)\n")


def make_host_gauge(workload):
    """For ``cli``, a fresh Python process that imports NumPy and SciPy's
    special functions and runs a short loop: the start-up, import and
    interpreter work of a CLI op.  A gauge read in this process tracked the
    CLI children poorly (their ten-run spread of p50 rose from 0.09 unscaled
    to 0.27 when scaled by it); this one brought it to 0.04-0.05.  Single
    readings around an op of two seconds track it best, so the window is 0.

    Otherwise the geometric mean of three in-process parts: a pure-Python
    loop, NumPy transcendentals over a 20k-point array and 300 calls on an
    8-point array (the interpreter, vector and call-overhead costs these
    workloads mix).  Single readings carry the host's sub-second jitter;
    pooling nine ops keeps the drift of seconds and minutes.  With the
    Harrell-Davis median it took the ten-run spread of ``fit`` p50 from
    0.13-0.19 unscaled to 0.08-0.11.
    """
    if workload == "cli":
        import workloads as W

        def read_child():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", CHILD_GAUGE], cwd=ROOT, env=W.cli_env(ROOT),
                           capture_output=True, check=True, timeout=120)
            return 1e3 * (time.perf_counter() - t0)

        return HostGauge(read_child, ref_ms=700.0, window=0)

    import numpy as np

    wide = np.linspace(0.1, 5.0, 20_000)
    narrow = np.linspace(0.1, 5.0, 8)

    def read():
        t0 = time.perf_counter()
        total = 0.0
        for i in range(20_000):
            total += math.sqrt(i)
        t1 = time.perf_counter()
        for _ in range(6):
            np.log1p(np.exp(-wide)).sum()
        t2 = time.perf_counter()
        for _ in range(300):
            float(np.sum(np.exp(-narrow) * narrow))
        t3 = time.perf_counter()
        return 1e3 * ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)

    return HostGauge(read, ref_ms=1.5, window=4)


def measure(inputs, seconds, gauge, tracer=None):
    """Whole cycles of ops, one record (op, wall s, digest, host ms) per op.
    After each cycle the loop stops if one more cycle of the same length would
    end farther past ``seconds`` than stopping now falls short of it, so a run
    lasts about ``seconds`` whatever the cycle length, and holds at least one
    cycle.  ``host ms`` is the mean of the ``gauge`` readings just before and
    just after the op."""
    import workloads as W

    span = tracer.span if tracer else W.no_span
    records = []
    start = time.perf_counter()
    before = gauge.read()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in range(inputs.cycle):
            if tracer:
                tracer.op_id = index
            t0 = time.perf_counter()
            with span(f"op.{inputs.workload}"):
                op, out = W.run_op(inputs, index, span)
            latency = time.perf_counter() - t0
            after = gauge.read()
            records.append((op, latency, W.digest(inputs, out), (before + after) / 2))
            before = after
            index += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return records


def peak_rss_mb(workload):
    """The user-visible process: the CLI child for ``cli``, else this one."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def hd_median(values):
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) density.  A fit cycle holds 28 ops
    whose costs differ threefold; the sample median sits on one or two of them
    and jumps when host noise reorders their neighbours, which this weighting
    smooths."""
    from scipy.special import betainc

    ordered = sorted(values)
    a = (len(ordered) + 1) / 2
    weights = [betainc(a, a, (i + 1) / len(ordered)) - betainc(a, a, i / len(ordered))
               for i in range(len(ordered))]
    return sum(w * v for w, v in zip(weights, ordered))


def scaled_latencies(records, gauge):
    """Each op's wall time at the reference host speed (see HostGauge)."""
    host = [r[3] for r in records]
    w = gauge.window
    return [r[1] * gauge.ref_ms / statistics.median(host[max(0, i - w):i + w + 1])
            for i, r in enumerate(records)]


def loop_metrics(records, gauge):
    """Op latencies at the reference host speed; the wall-clock figures are
    returned too, under ``wall_*``."""
    wall = [r[1] for r in records]
    scaled = scaled_latencies(records, gauge)
    out = {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * hd_median(scaled),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_latency_p50_ms": 1e3 * hd_median(wall),
    }
    if len(scaled) >= P90_MIN_OPS:
        out["latency_p90_ms"] = 1e3 * statistics.quantiles(scaled, n=10)[-1]
    return out


def check_records(inputs, records):
    """Verdict per op; identical outputs are checked once."""
    import checks

    check = checks.checker(inputs)
    seen = {}
    verdicts = []
    for op, _, out, _ in records:
        key = hashlib.sha256(pickle.dumps((op.get("label") if op else None, out))).digest()
        if key not in seen:
            try:
                seen[key] = check(op, out)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run rejects the output
                seen[key] = checks.Verdict("wrong", f"check raised {type(exc).__name__}: {exc}")
        verdicts.append(seen[key])
    return verdicts


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def run_facts():
    import numpy
    import scipy

    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        level, kind = _read(base / "level"), _read(base / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(base / "size")
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    inputs, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "input_hash": inputs.input_hash}))
        return 0
    import workloads as W

    load_before = os.getloadavg()
    values = {}
    report = {}
    gauge = make_host_gauge(args.workload)
    if args.trace:
        import tracing

        untraced = measure(inputs, args.seconds / 2, gauge)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = measure(inputs, args.seconds / 2, gauge, tracer)
        records = untraced + traced
        base, with_trace = loop_metrics(untraced, gauge), loop_metrics(traced, gauge)
        report["loop_self_ms_per_op"] = tracing.layer_self_ms(tracer.spans, len(traced))
        for name in ("latency_p50_ms", "ops_per_s"):
            values[f"trace.overhead.{name}"] = with_trace[name] - base[name]
        probe_metrics, probe_tracer = tracing.layer_probe(ROOT, WORKDIR, args.seed)
        values.update(probe_metrics)
        spans_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(spans_path, {"loop": tracer.spans, "probe": probe_tracer.spans})
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["untraced"], report["traced"] = base, with_trace
    else:
        records = measure(inputs, args.seconds, gauge)
        values["peak_rss_mb"] = peak_rss_mb(args.workload)
        values.update(loop_metrics(records, gauge))
        setups = [setup_s]
        for _ in range(SETUP_PROBES):
            probe = setup_probe(args.workload, args.seed)
            setups.append(probe["setup_s"])
            if probe["input_hash"] != inputs.input_hash:
                raise RuntimeError("a fresh process generated different inputs from the same seed")
        values["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups

    import checks

    verdicts = check_records(inputs, records)
    failed = [(r[0], v) for r, v in zip(records, verdicts) if v.status != "ok"]
    correct = all(v.known for _, v in failed)
    declared = declared_metrics(args.trace)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()}

    attempted = len(records)
    for name, metric in metrics.items():
        print(f"perfbench {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"perfbench {args.workload} fail_ratio = {len(failed) / attempted:.4g} "
          f"({len(failed)} of {attempted} ops)")
    if args.workload == "bulk" and not args.trace:
        print(f"perfbench bulk points_per_s = {values['ops_per_s'] * W.BULK_POINTS:.6g} 1/s "
              f"({W.BULK_POINTS} points per op)")
    host = [r[3] for r in records]
    print(f"perfbench {args.workload} host_gauge_ms = {statistics.median(host):.4g} ms (median over "
          f"{len(host)} ops, from {min(host):.4g} to {max(host):.4g}; latencies are scaled to "
          f"{gauge.ref_ms} ms; not a metric)")
    for name in ("latency_p50_ms", "ops_per_s"):
        if f"wall_{name}" in values:
            print(f"perfbench {args.workload} wall_{name} = {values[f'wall_{name}']:.6g} "
                  f"{'ms' if name.endswith('ms') else '1/s'} (unscaled wall clock; not a metric)")
    if not args.trace:
        p90 = values.get("latency_p90_ms")
        print(f"perfbench {args.workload} latency_p90_ms = "
              + (f"{p90:.6g} ms ({attempted} ops)" if p90 else f"n/a ({attempted} ops < {P90_MIN_OPS})"))
    known = checks.KNOWN_FAILURES.get(args.workload)
    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_hash": inputs.input_hash, "facts": run_facts(),
        "load_before": load_before, "load_after": os.getloadavg(),
        "known_failures": {"failure": known[0], "ops": sorted(known[1])} if known else None,
        "failures": [{"op": (op or {}).get("label"), "status": v.status, "known": v.known,
                      "reason": v.reason[:300]} for op, v in failed],
        "op_wall_ms_host_ms": [[(op or {}).get("label"), round(1e3 * latency, 3), round(host, 4),
                                v.status] for (op, latency, _, host), v in zip(records, verdicts)],
        "extra_metrics": {k: v for k, v in values.items() if k not in metrics},
    })
    print("perfbench report " + json.dumps(report, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 - no result line on any failure
        print(f"perfbench: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
