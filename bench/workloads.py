"""The benchmark's workloads and the check of every output they produce.

Each workload builds its inputs from the workload seed alone and describes
one pass over them as a list of operations, each a call into loccgate's
public functions plus a check of its output.  The runner times the call
alone and checks afterwards.

* ``heavy``: five large random-unitary channels gated in-process.  Subset
  selection dominates gate time here, so a gate-kernel change shows first.
* ``sweep``: the desk-scale figure sweep (640 tiny channels through
  ``run_sweep`` and ``write_csv_atomic``), where per-call fixed costs of the
  same gate dominate.
* ``cli``: cold ``python -m loccgate.cli`` processes on generated files, which
  pay interpreter start-up, imports, JSON parsing and protocol compilation
  and do little gate work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from loccgate import cli, gate, protocols, serialize, sweeps, zoo

NOT_LOCC = gate.VERDICT_NOT_LOCC
CANDIDATES = gate.VERDICT_FIRST_MOVE_CANDIDATES

# Verdicts of random-unitary channels by (party dims, number of unitaries).
# They do not depend on the seed: probes of 60 seeds per sweep entry, 1500
# next to the transition (2x2 at 4 and 5, 2x3 at 5 and 6) and 3 per heavy
# case found no exception.  The closest call is 2x2 at 4: its smallest ratio
# in 4000 seeds was 1.9e-11, and the observed tail puts a ratio below the
# 1e-13 threshold at roughly 1e-5 per sample.
RANDOM_UNITARY_VERDICTS = {
    **{((2, 2), nu): NOT_LOCC for nu in (2, 3, 4)},
    **{((2, 2), nu): CANDIDATES for nu in (5, 6)},
    **{((2, 3), nu): NOT_LOCC for nu in (2, 3, 4, 5)},
    **{((2, 3), nu): CANDIDATES for nu in (6, 7, 8)},
    ((2, 2, 2), 8): NOT_LOCC,
    ((3, 3), 11): CANDIDATES,
    ((2, 2, 2), 12): CANDIDATES,
    ((4, 4), 18): CANDIDATES,
    ((2, 2, 2, 2), 20): CANDIDATES,
}

# Named families: every rotated-domino sample with all angles > 0 and every
# sampled usd instance is NOT_LOCC.
FAMILY_VERDICTS = {
    "bell": NOT_LOCC,
    "domino": NOT_LOCC,
    "rotated-domino": NOT_LOCC,
    "usd": NOT_LOCC,
}

# Known lambda_hat values, compared to 1e-12 relative.
EXACT_LAMBDA = {"bell": 1.0, "domino": 1.0 / 6.0}
EXACT_LAMBDA_RTOL = 1e-12

# (case, party dims, nu, gate calls per operation).  A heavy operation gates
# its channel several times when one call is short, so that every case gets
# enough samples in a run next to the 2.5 s 2x2x2x2 case.
HEAVY_CASES = (
    ("ru2x2x2_8", (2, 2, 2), 8, 4),
    ("ru3x3_11", (3, 3), 11, 2),
    ("ru2x2x2_12", (2, 2, 2), 12, 2),
    ("ru4x4_18", (4, 4), 18, 1),
    ("ru2x2x2x2_20", (2, 2, 2, 2), 20, 1),
)


def check_verdict(
    family: str,
    verdict: str,
    lambda_hat: float,
    key=None,
    ru_table: dict = RANDOM_UNITARY_VERDICTS,
) -> list[str]:
    """Problems with one gate outcome; an empty list means it is correct.

    ``key`` is ``(dims, nu)`` for the random-unitary family.  lambda_hat is
    not compared on FIRST_MOVE_CANDIDATES outcomes, where it is rounding
    noise around zero.
    """
    expected = ru_table.get(key) if family == "random-unitary" else FAMILY_VERDICTS.get(family)
    tag = family if key is None else f"{family} {key}"
    problems = []
    if verdict != expected:
        problems.append(f"{tag}: verdict {verdict}, expected {expected}")
    if verdict == NOT_LOCC and not lambda_hat > 0.0:
        problems.append(f"{tag}: NOT_LOCC with lambda_hat {lambda_hat!r} <= 0")
    exact = EXACT_LAMBDA.get(family)
    if exact is not None and not abs(lambda_hat - exact) <= EXACT_LAMBDA_RTOL * exact:
        problems.append(f"{tag}: lambda_hat {lambda_hat!r}, expected {exact!r}")
    return problems


@dataclass(frozen=True)
class Operation:
    """One operation of a pass: ``call()`` is timed, ``check(result)`` is not.

    ``check`` returns ``(failed, problems, outcome)``: how many of the
    operation's ``units`` have a wrong output, the list of mismatches (empty
    when the output is correct) and a comparable summary of the output.
    """

    case: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], tuple]


class Workload:
    """Inputs of one workload and the operations of one pass over them.

    ``operations`` gives the end-to-end pass; ``trace_operations`` the pass
    the traced run times with and without wrappers (the same by default).
    """

    unit = "operation"
    rss_who = "self"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def warm_up(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def trace_operations(self) -> list[Operation]:
        return self.operations()

    def layer_probes(self) -> dict:
        """Per-layer numbers measured outside the traced passes."""
        return {}


class Heavy(Workload):
    """The five large random-unitary channels, gated in-process."""

    unit = "channel"

    def __init__(self, seed, workdir, cases=HEAVY_CASES, ru_table=RANDOM_UNITARY_VERDICTS):
        super().__init__(seed, workdir)
        self.ru_table = ru_table
        self.cases = [
            (
                name,
                (dims, nu),
                zoo.random_unitary_channel(dims, nu, np.random.default_rng((seed, i))),
                calls,
            )
            for i, (name, dims, nu, calls) in enumerate(cases)
        ]

    def warm_up(self):
        gate.gate_channel(self.cases[0][2])

    def operations(self):
        ops = []
        for name, key, channel, calls in self.cases:

            def call(channel=channel, calls=calls):
                return [gate.gate_channel(channel) for _ in range(calls)]

            def check(verdicts, key=key):
                failed, problems = 0, []
                for v in verdicts:
                    found = check_verdict(
                        "random-unitary", v.verdict, v.lambda_hat, key, self.ru_table
                    )
                    failed += bool(found)
                    problems += found
                return failed, problems, [(v.verdict, v.lambda_hat) for v in verdicts]

            ops.append(Operation(name, calls, call, check))
        return ops


def sweep_configs(seed: int) -> tuple:
    """The four desk-scale configs of ``scripts/run_figure_sweeps.py``."""
    return (
        ("rotated_domino", sweeps.SweepConfig(family="rotated_domino", samples=200, seed=seed)),
        ("usd", sweeps.SweepConfig(family="usd", samples=200, seed=seed + 1)),
        (
            "random_unitary_2x2",
            sweeps.SweepConfig(
                family="random_unitary", samples=20, seed=seed + 2, dims=(2, 2),
                nu_values=tuple(range(2, 7)),
            ),
        ),
        (
            "random_unitary_2x3",
            sweeps.SweepConfig(
                family="random_unitary", samples=20, seed=seed + 2, dims=(2, 3),
                nu_values=tuple(range(2, 9)),
            ),
        ),
    )


def sweep_rows(cfg) -> int:
    return cfg.samples * (len(cfg.nu_values) if cfg.family == "random_unitary" else 1)


def check_sweep_csv(path, cfg, ru_table=RANDOM_UNITARY_VERDICTS) -> tuple[int, list[str], list]:
    """Check every row of a written sweep CSV.

    Returns ``(failed, problems, outcomes)``; ``failed`` counts wrong and
    missing rows, or every row when the header is wrong.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    expected_rows = sweep_rows(cfg)
    problems = []
    if len(body) != expected_rows:
        problems.append(f"{path.name}: {len(body)} rows, expected {expected_rows}")
    if header[-2:] != ["lambda_hat", "verdict"]:
        problems.append(f"{path.name}: header ends {header[-2:]}")
        return expected_rows, problems, []
    family = cfg.family.replace("_", "-")
    outcomes = []
    wrong_rows = 0
    for row in body:
        lam, verdict = float(row[-2]), row[-1]
        key = (cfg.dims, int(row[header.index("nu")])) if cfg.family == "random_unitary" else None
        row_problems = check_verdict(family, verdict, lam, key, ru_table)
        problems.extend(f"{path.name} sample {row[0]}: {p}" for p in row_problems)
        wrong_rows += bool(row_problems)
        outcomes.append((verdict, lam))
    failed = min(expected_rows, wrong_rows + max(0, expected_rows - len(body)))
    return failed, problems, outcomes


class Sweep(Workload):
    """The desk-scale figure sweep through run_sweep and write_csv_atomic."""

    unit = "row"

    def __init__(self, seed, workdir, configs=None, ru_table=RANDOM_UNITARY_VERDICTS):
        super().__init__(seed, workdir)
        self.configs = sweep_configs(seed) if configs is None else configs
        self.ru_table = ru_table

    def warm_up(self):
        cfg = sweeps.SweepConfig(family="usd", samples=1, seed=self.seed)
        header, rows = sweeps.run_sweep(cfg)
        sweeps.write_csv_atomic(self.workdir / "warm_up.csv", header, rows)

    def operations(self):
        ops = []
        for name, cfg in self.configs:
            path = self.workdir / f"{name}.csv"
            path.unlink(missing_ok=True)  # so a stale file cannot pass the check

            def call(cfg=cfg, path=path):
                header, rows = sweeps.run_sweep(cfg)
                sweeps.write_csv_atomic(path, header, rows)

            def check(_, cfg=cfg, path=path):
                return check_sweep_csv(path, cfg, self.ru_table)

            ops.append(Operation(name, sweep_rows(cfg), call, check))
        return ops


def _pythonpath() -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return src if not rest else src + os.pathsep + rest


class Cli(Workload):
    """Cold ``python -m loccgate.cli`` processes on generated files."""

    unit = "invocation"
    rss_who = "children"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng((seed, 7))
        quarter = math.pi / 4.0
        w = self.workdir
        a1 = rng.uniform(0.05, 1.0 / math.sqrt(2.0) - 0.05)
        b1 = math.sqrt(1.0 - a1 * a1)
        files = {
            "bell.json": zoo.bell_channel(),
            "domino.json": zoo.domino_channel(),
            "usd.json": zoo.usd_channel(zoo.sample_usd_params(rng)),
            "rotated_domino.json": zoo.rotated_domino_channel(
                zoo.RotatedDominoParams(tuple(quarter - rng.uniform(0.0, quarter, 4)))
            ),
            "ru2x2x2_8.json": zoo.random_unitary_channel((2, 2, 2), 8, rng),
            "usd_alpha3_zero.json": zoo.usd_channel(
                zoo.UsdParams(a1, b1, 0.0, 1.0), allow_alpha3_zero=True
            ),
        }
        t2, t3, t4 = (quarter - rng.uniform(0.0, quarter, 3)).tolist()
        files["domino_theta1_zero.json"] = zoo.rotated_domino_channel(
            zoo.RotatedDominoParams((0.0, t2, t3, t4))
        )
        for name, channel in files.items():
            serialize.save_channel(channel, w / name)
        serialize.save_protocol(
            protocols.domino_three_round_protocol(t2, t3, t4), w / "domino_three_round.json"
        )
        serialize.save_protocol(protocols.usd_oneway_protocol(a1, b1), w / "usd_oneway.json")

        def check(name, family, key=None):
            return (name, ["check", "--channel", str(w / f"{name}.json")], family, key)

        def verify(name, protocol, target):
            argv = ["verify-protocol", "--protocol", str(w / protocol), "--channel", str(w / target)]
            return (name, argv, "verify", None)

        self.commands = [
            check("bell", "bell"),
            check("domino", "domino"),
            check("usd", "usd"),
            check("rotated_domino", "rotated-domino"),
            check("ru2x2x2_8", "random-unitary", ((2, 2, 2), 8)),
            verify("verify_domino_three_round", "domino_three_round.json", "domino_theta1_zero.json"),
            verify("verify_usd_oneway", "usd_oneway.json", "usd_alpha3_zero.json"),
        ]
        self.env = {**os.environ, "PYTHONPATH": _pythonpath()}

    @staticmethod
    def check_output(family, key, code: int, stdout: str):
        """Failed count, problems and (verdict, lambda_hat) or ok flag of one CLI result."""
        if code != 0:
            return 1, [f"{family}: exit code {code}"], None
        doc = json.loads(stdout)
        if family == "verify":
            problems = [] if doc["ok"] is True else [f"verify: ok is {doc['ok']!r}"]
            outcome = doc["ok"]
        else:
            problems = check_verdict(family, doc["verdict"], doc["lambda_hat"], key)
            outcome = (doc["verdict"], doc["lambda_hat"])
        return int(bool(problems)), problems, outcome

    def _subprocess(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "loccgate.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )

    def warm_up(self):
        self._subprocess(self.commands[0][1])

    def operations(self):
        ops = []
        for name, argv, family, key in self.commands:

            def check(proc, family=family, key=key):
                return self.check_output(family, key, proc.returncode, proc.stdout)

            ops.append(Operation(name, 1, lambda argv=argv: self._subprocess(argv), check))
        return ops

    def trace_operations(self):
        """The same commands through ``loccgate.cli.main`` in this process."""
        ops = []
        for name, argv, family, key in self.commands:

            def call(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                return code, out.getvalue()

            def check(result, family=family, key=key):
                return self.check_output(family, key, *result)

            ops.append(Operation(name, 1, call, check))
        return ops

    def layer_probes(self, repeats: int = 5):
        """Start-up split of a CLI process: median wall times, interleaved.

        Import times are the wall time of ``python -c "import X"`` minus that
        of ``python -c pass``.
        """
        scripts = {"start": "pass", "numpy": "import numpy", "loccgate": "import loccgate.cli"}
        times: dict = {k: [] for k in scripts}
        for _ in range(repeats):
            for key, script in scripts.items():
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", script], env=self.env, check=True, timeout=120)
                times[key].append(time.perf_counter() - start)
        ms = {k: statistics.median(v) * 1e3 for k, v in times.items()}
        return {
            "cli.python_start_ms": ms["start"],
            "cli.numpy_import_ms": ms["numpy"] - ms["start"],
            "cli.import_ms": ms["loccgate"] - ms["start"],
        }


WORKLOADS = {"heavy": Heavy, "sweep": Sweep, "cli": Cli}
