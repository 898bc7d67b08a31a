#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree in alternating pairs.

The parent's committed files are exported (``git archive``) once into a
temporary directory, removed on exit.  For each workload named, in turn, this
tree's ``bench/run.py`` then runs in both checkouts, pair i on seed
``--seed + i``, the parent first in even pairs and second in odd ones.  Per
workload it prints one table: for each end-to-end metric of
``BENCHMARK.json``, and each per-case median of the run's ``report`` line
(``case_ms``), each side's median and quartiles, how many pairs the
change won and two flags: ``resolved`` for a resolved gain, and
``over_bound`` for a metric worse than its bound:

    python3 scripts/bench_pairs.py --workload sweep [heavy cli] --pairs 10 --seed 3001 \
        [--parent HEAD] [--seconds 30] [--record BENCH.json]

``--record`` also writes the tables as JSON, rewritten after each workload:
per workload its seeds, seconds, both sides' ``env`` lines (of their first
run) and, per metric, each side's median and quartiles, the wins and the
flags.  A gain is resolved when the change wins at least nine tenths of the
pairs and its median beats the parent's by more than the parent's q3 - q1.  A
metric is over its bound when the change's median is worse than the parent's
by more than the metric's ``bound`` in BENCHMARK.json, a fraction of the
parent's median; that is a regression.  Per-case medians have no bound.

Stdlib only; run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, linearly interpolated between order statistics."""
    ordered = sorted(values)

    def at(p: float) -> float:
        pos = (len(ordered) - 1) * p
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(parent: list[dict], change: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of ``better`` ("lower" or "higher") that every run reports.

    ``parent`` and ``change`` hold one {metric: value} per run, pair i being
    (parent[i], change[i]).  A pair counts as a win when the change is
    strictly better; ``wins`` counts them out of ``pairs``, so ties count for
    neither side.  ``resolved`` marks a gain that stands out of the parent's
    spread: at least nine tenths of the pairs won, and the change's median
    better than the parent's by more than the parent's q3 - q1.  ``over_bound``
    marks a metric whose change median is worse than the parent's by more than
    its entry of ``bounds``, taken as a fraction of the parent's median; a
    metric with no entry is never over its bound.
    """
    bounds = bounds or {}
    rows = []
    for name, direction in better.items():
        if not all(name in run for run in (*parent, *change)):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        pairs = list(zip((run[name] for run in parent), (run[name] for run in change)))
        (q1, median, q3), change_q = quartiles(p for p, _ in pairs), quartiles(c for _, c in pairs)
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        rows.append({
            "metric": name,
            "parent": (q1, median, q3),
            "change": change_q,
            "wins": wins,
            "pairs": len(pairs),
            "resolved": 10 * wins >= 9 * len(pairs) and sign * (change_q[1] - median) > q3 - q1,
            "over_bound": name in bounds and sign * (median - change_q[1]) > bounds[name] * abs(median),
        })
    return rows


def run_bench(checkout: Path, workload: str, seed: int, seconds: float | None) -> tuple[dict, dict]:
    """One ``bench/run.py`` run of this tree in ``checkout``: ``parse_run`` of its output."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    stdout = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return parse_run(stdout, checkout)


def parse_run(stdout: str, checkout) -> tuple[dict, dict]:
    """The end-to-end values and ``case_ms`` of one run's output, and its ``env`` line."""
    lines = stdout.splitlines()
    final = json.loads(lines[-1])
    if final["failed"]:
        raise SystemExit(f"error: {final['failed']} of {final['attempted']} units failed in {checkout}")
    values, env = {name: metric["value"] for name, metric in final["metrics"].items()}, {}
    for line in lines:
        if line.startswith("report "):
            values.update({f"case_ms.{k}": v for k, v in json.loads(line[7:])["case_ms"].items()})
        elif line.startswith("env "):
            env = json.loads(line[4:])
    return values, env


def record(seeds: list[int], seconds: float, envs: tuple[dict, dict], rows: list[dict]) -> dict:
    """One workload's entry of the ``--record`` JSON: its seeds, seconds, the (parent, change) ``env``
    lines and, per ``summarize`` row, each side's median and quartiles, the change's wins, ``resolved`` and
    ``over_bound``."""
    return {
        "seeds": seeds,
        "seconds": seconds,
        "env": dict(zip(("parent", "change"), envs)),
        "metrics": {
            row["metric"]: {
                **{side: dict(zip(("q1", "median", "q3"), row[side])) for side in ("parent", "change")},
                "wins": row["wins"],
                "pairs": row["pairs"],
                "resolved": row["resolved"],
                "over_bound": row["over_bound"],
            }
            for row in rows
        },
    }


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """The command line ``argv`` (None: ``sys.argv``); ``--workload`` takes names from ``workloads``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+", action="extend",
                        help="one or more workloads, one table each")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs on seed SEED + i")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default: HEAD)")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--record", type=Path, help="also write the tables as JSON to this path")
    args = parser.parse_args(argv)
    if unknown := [w for w in args.workload if w not in workloads]:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of {', '.join(workloads)}")
    if len(set(args.workload)) < len(args.workload):
        parser.error("each workload may be named once")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def table(rows: list[dict]) -> list[str]:
    """One line per ``summarize`` row: each side's median [q1, q3], the change's wins and, if set,
    ``resolved`` and ``over_bound``."""
    lines = []
    for row in rows:
        p, c = row["parent"], row["change"]
        lines.append(f"{row['metric']}: parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
                     f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  wins {row['wins']}/{row['pairs']}"
                     + "".join(f"  {flag}" for flag in ("resolved", "over_bound") if row[flag]))
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    revision = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True, check=True)
    recorded = {"parent": revision.stdout.strip(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for workload in args.workload:
            parent, change = [], []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [(parent, Path(tmp)), (change, ROOT)]
                for runs, checkout in order if i % 2 == 0 else order[::-1]:
                    runs.append(run_bench(checkout, workload, seed, args.seconds))
                print(f"{workload}: pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
            cases = sorted(k for k in change[0][0] if k.startswith("case_ms."))
            seeds = list(range(args.seed, args.seed + args.pairs))
            print(f"== {workload}: {args.pairs} pairs against {args.parent}, seeds {seeds[0]}-{seeds[-1]}")
            metrics = {**better, **dict.fromkeys(cases, "lower")}
            rows = summarize([v for v, _ in parent], [v for v, _ in change], metrics, bounds)
            print("\n".join(table(rows)), flush=True)
            if args.record:
                seconds = spec["run_seconds"] if args.seconds is None else args.seconds
                recorded["workloads"][workload] = record(seeds, seconds, (parent[0][1], change[0][1]), rows)
                args.record.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
