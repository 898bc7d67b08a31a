#!/usr/bin/env python3
"""Benchmark of loccgate: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout (``src/loccgate`` must be there):

    python3 bench/run.py --workload heavy --seed 1 --seconds 30 --trace 0

The workload runs in a closed loop, one operation in flight, in whole passes
until ``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates plain and traced
passes and reports the per-layer metrics, per traced pass.  The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, a
per-case report and every output mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import speed

# The program under test is the checkout in the working directory; the
# benchmark's own files and spec are found next to this script, so one copy
# of the benchmark can measure any checkout.
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# Set-up runs this many times in all (once here, the rest in fresh processes);
# setup_s is their median.
SETUP_SAMPLES = 5

# Tail percentile of each case's latency samples.  It is fixed, so that the
# metric means the same thing in every run and on both sides of a comparison.
TAIL_PERCENTILE = 75.0


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a nonempty sample, p in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def blas_info() -> dict:
    """BLAS library numpy was built with, and its thread count if readable."""
    import ctypes

    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment(args) -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    blas = blas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "numpy": np.__version__,
        "blas": blas["library"],
        "blas_threads": blas["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
    }


def setup_probe(args) -> float:
    """Scaled set-up seconds measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Result:
    """One executed operation.

    ``seconds`` is the call's wall time scaled to reference speed and ``raw``
    the wall time itself; ``failed`` counts its units with a wrong output;
    ``spans`` is the range of tracer spans it made.
    """

    case: str
    units: int
    seconds: float
    raw: float
    scale: float
    failed: int
    problems: list
    outcome: object
    spans: range


def execute(operations, reference, tracer=None) -> list[Result]:
    """Run operations one at a time, each timed alone and then checked.

    The reference kernel runs between operations, and each operation's time
    is scaled to reference speed by the readings around it.
    """
    results = []
    readings = [(time.perf_counter(), reference.seconds())]
    intervals = []
    for op in operations:
        first = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        try:
            output, error = op.call(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            output, error = None, exc
        end = time.perf_counter()
        spans = range(first, len(tracer.spans) if tracer else 0)
        intervals.append((start, end))
        readings.append((time.perf_counter(), reference.seconds(speed.calls_for(end - start))))
        if error is not None:
            failed, problems, outcome = op.units, [f"{op.case}: raised {error!r}"], None
        else:
            try:
                failed, problems, outcome = op.check(output)
            except Exception as exc:  # output that cannot be checked is wrong
                failed, problems, outcome = op.units, [f"{op.case}: not checkable: {exc!r}"], None
        results.append(
            Result(op.case, op.units, 0.0, end - start, 1.0, failed, problems, outcome, spans)
        )
    for r, scale in zip(results, speed.window_scales(readings, intervals)):
        r.scale, r.seconds = scale, r.raw * scale
    return results


def summarise(per_unit: dict, units: int, seconds: float) -> tuple[dict, dict, dict]:
    """Throughput and latencies from per-unit seconds by case, and per-case ms."""
    case_p50 = {c: statistics.median(v) * 1e3 for c, v in per_unit.items()}
    case_tail = {c: percentile(v, TAIL_PERCENTILE) * 1e3 for c, v in per_unit.items()}
    values = {
        "throughput_per_s": units / seconds,
        "latency_p50_ms": geomean(case_p50.values()),
        "latency_tail_ms": geomean(case_tail.values()),
    }
    return values, case_p50, case_tail


def end_to_end(results, setups, peak_rss_kb) -> tuple[dict, dict]:
    """End-to-end metric values and the per-case report behind them.

    Throughput is work units over the time of the operations that made them;
    the run ends on a whole pass, so every case counts equally often.  Latency is per work unit (channel, row or
    invocation); its median and tail are taken within each case (heavy
    channel, sweep config or CLI command) and then combined by geometric mean
    over the cases, so that a change on a small case moves them as much as
    the same change on a large one.  The report gives the same figures from
    unscaled wall times (``raw``) and each case's median speed scale, so that
    a comparison can confirm the scale does not depend on the program.
    """
    scaled, raw, scales = {}, {}, {}
    for r in results:
        scaled.setdefault(r.case, []).append(r.seconds / r.units)
        raw.setdefault(r.case, []).append(r.raw / r.units)
        scales.setdefault(r.case, []).append(r.scale)
    units = sum(r.units for r in results)
    values, case_p50, case_tail = summarise(scaled, units, sum(r.seconds for r in results))
    raw_values, raw_p50, _ = summarise(raw, units, sum(r.raw for r in results))
    values.update(setup_s=statistics.median(setups), peak_rss_mb=peak_rss_kb / 1024.0)
    report = {
        "case_ms": case_p50,
        "case_tail_ms": case_tail,
        "case_samples": {c: len(v) for c, v in scaled.items()},
        "case_speed_scale": {c: statistics.median(v) for c, v in scales.items()},
        "tail_percentile": TAIL_PERCENTILE,
        "setup_samples_s": setups,
        "raw": {**raw_values, "case_ms": raw_p50},
    }
    return values, report


def per_layer(tracer, results, passes: int, overhead: float, probes: dict) -> dict:
    """Per-layer metric values per traced pass, at reference speed."""
    weights = [1.0] * len(tracer.spans)
    for r in results:
        for index in r.spans:
            weights[index] = r.scale
    summary = tracer.summary(weights)
    values = dict(probes)
    for name, s in summary.items():
        values[f"{name}.ms"] = s["total_s"] * 1e3 / passes
        values[f"{name}.self_ms"] = s["self_s"] * 1e3 / passes
        values[f"{name}.calls"] = s["calls"] / passes
    for name, count in tracer.counters.items():
        values[name] = count / passes
    attempted = tracer.counters["gate.pairs_attempted"]
    if attempted:
        values["gate.subset_yield"] = tracer.counters["gate.pairs_selected"] / attempted
    gates = summary.get("gate.gate_channel")
    if gates:
        values["channels.check_completeness.calls_per_channel"] = (
            summary.get("channels.check_completeness", {"calls": 0})["calls"] / gates["calls"]
        )
        unattributed = gates["self_s"] + summary.get("gate.gate_party", {"self_s": 0.0})["self_s"]
        values["gate.stage_coverage"] = 1.0 - unattributed / gates["total_s"]
    values["trace.overhead_frac"] = overhead
    return values


def measure(args, workload, reference, setup_s) -> tuple[list, dict, dict]:
    """Untraced run: results, end-to-end values and report."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < args.seconds:
        results.extend(execute(workload.operations(), reference))
    who = resource.RUSAGE_CHILDREN if workload.rss_who == "children" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    values, report = end_to_end(results, setups, peak_rss_kb)
    return results, values, report


def measure_traced(args, workload, reference) -> tuple[list, dict, dict]:
    """Traced run: plain and traced passes alternate; values are per traced pass."""
    from tracer import Tracer

    before = reference.seconds()
    probes = workload.layer_probes()
    scale = speed.scale(before, reference.seconds())
    probes = {name: value * scale for name, value in probes.items()}
    tracer = Tracer()
    results, traced_results = [], []
    plain_s, traced_s = [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < args.seconds:
        plain = execute(workload.trace_operations(), reference)
        with tracer:
            traced = execute(workload.trace_operations(), reference, tracer)
        plain_s.append(sum(r.seconds for r in plain))
        traced_s.append(sum(r.seconds for r in traced))
        results += plain + traced
        traced_results += traced
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    values = per_layer(tracer, traced_results, len(traced_s), overhead, probes)
    tracer.write(
        OUT / f"spans-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "traced_passes": len(traced_s)},
    )
    report = {"passes": len(plain_s) + len(traced_s), "traced_passes": len(traced_s),
              "absent": tracer.absent}
    return results, values, report


def run(args, spec) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads  # imports loccgate and numpy, so it is part of set-up

        if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"loccgate was imported from {workloads.cli.__file__}, not {SRC}")
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_raw = time.perf_counter() - start
        reference = speed.Reference()
        after = reference.seconds(5)
        setup_s = setup_raw * speed.scale(after, after)
        if args.setup_only:
            print(repr(setup_s))
            return 0

        if args.trace:
            results, values, report = measure_traced(args, workload, reference)
            names = spec["per_layer"]
        else:
            results, values, report = measure(args, workload, reference, setup_s)
            names = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names}
        attempted = sum(r.units for r in results)
        failed = sum(r.failed for r in results)
        report.update(
            unit=workload.unit,
            failed_frac=failed / attempted,
            unsettled_readings=reference.unsettled,
            not_measured=[m["name"] for m in names if m["name"] not in values],
        )
        print("env " + json.dumps(environment(args)))
        print("report " + json.dumps(report))
        for r in results:
            for problem in r.problems:
                print("mismatch " + problem)
        print(json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        ))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "loccgate" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a loccgate checkout; {SRC / 'loccgate'} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
