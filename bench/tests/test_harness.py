"""Tests of the benchmark itself: its output check, tracer and statistics.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from loccgate import KrausChannel, gate
import speed
from speed import Reference
from tracer import Tracer, subset_flops

SMALL_CASES = (("ru2x2x2_8", (2, 2, 2), 8, 1), ("ru3x3_11", (3, 3), 11, 1))


def small_sweep_configs(seed):
    return (
        ("random_unitary_2x2", workloads.sweeps.SweepConfig(
            family="random_unitary", samples=2, seed=seed, dims=(2, 2), nu_values=(3, 5))),
        ("usd", workloads.sweeps.SweepConfig(family="usd", samples=3, seed=seed)),
    )


@pytest.fixture(scope="module")
def reference():
    return Reference()


def failed_units(results):
    return sum(r.failed for r in results)


def test_correct_outputs_pass_the_check(tmp_path, reference):
    heavy = workloads.Heavy(1, tmp_path, cases=SMALL_CASES)
    sweep = workloads.Sweep(1, tmp_path, configs=small_sweep_configs(1))
    for w in (heavy, sweep):
        results = run.execute(w.operations(), reference)
        assert failed_units(results) == 0, [r.problems for r in results]


def test_wrong_expected_verdict_counts_as_failure(tmp_path, reference):
    table = dict(workloads.RANDOM_UNITARY_VERDICTS)
    table[((2, 2, 2), 8)] = workloads.CANDIDATES
    table[((2, 2), 3)] = workloads.CANDIDATES
    heavy = workloads.Heavy(1, tmp_path, cases=SMALL_CASES, ru_table=table)
    results = run.execute(heavy.operations(), reference)
    assert failed_units(results) == 1
    sweep = workloads.Sweep(1, tmp_path, configs=small_sweep_configs(1), ru_table=table)
    results = run.execute(sweep.operations(), reference)
    assert failed_units(results) == 2  # the two 2x2 rows at nu=3; all other rows are correct


def test_non_trace_preserving_channel_counts_as_failure(tmp_path, reference):
    heavy = workloads.Heavy(1, tmp_path, cases=SMALL_CASES[:1])
    name, key, channel, _ = heavy.cases[0]
    shrunk = KrausChannel("shrunk", channel.input_dims, channel.output_dim,
                          tuple(0.9 * k for k in channel.kraus))
    heavy.cases = [(name, key, shrunk, 2)]
    results = run.execute(heavy.operations(), reference)
    assert failed_units(results) == 2
    assert "raised" in results[0].problems[0]


def test_known_lambda_hat_and_cli_results_are_checked():
    assert workloads.check_verdict("bell", "NOT_LOCC", 1.0) == []
    assert workloads.check_verdict("domino", "NOT_LOCC", 1.0 / 6.0 * (1 + 1e-9))
    assert workloads.check_verdict("usd", "NOT_LOCC", 0.0)
    assert workloads.Cli.check_output("verify", None, 1, "")[0] == 1
    assert workloads.Cli.check_output("verify", None, 0, '{"ok": false}')[0] == 1
    assert workloads.Cli.check_output("verify", None, 0, '{"ok": true}')[:2] == (0, [])


def outcomes(results):
    return [(r.case, r.outcome) for r in results]


def test_tracing_leaves_every_output_identical(tmp_path, reference):
    heavy = workloads.Heavy(2, tmp_path, cases=SMALL_CASES)
    sweep = workloads.Sweep(2, tmp_path, configs=small_sweep_configs(2))
    cli = workloads.Cli(2, tmp_path)
    original = gate.gate_channel
    tracer = Tracer()
    for w in (heavy, sweep, cli):
        plain = run.execute(w.trace_operations(), reference)
        with tracer:
            traced = run.execute(w.trace_operations(), reference, tracer)
        assert failed_units(plain) == failed_units(traced) == 0
        assert outcomes(plain) == outcomes(traced)
    assert gate.gate_channel is original
    assert tracer.absent == []
    names = set(tracer.summary())
    assert {"gate.gate_channel", "linalg.select_independent_subset", "sweeps.run_sweep",
            "cli.main", "serialize.load_protocol", "protocols.verify_protocol"} <= names


def test_gate_stages_cover_gate_time(tmp_path, reference):
    heavy = workloads.Heavy(3, tmp_path, cases=SMALL_CASES)
    tracer = Tracer()
    with tracer:
        results = run.execute(heavy.operations(), reference, tracer)
        assert not tracer.counters  # hooks run on leaving, outside every span
    values = run.per_layer(tracer, results, 1, 0.0, {})
    assert values["gate.gate_channel.calls"] == 2
    assert values["gate.stage_coverage"] > 0.9
    assert values["channels.check_completeness.calls_per_channel"] == (3 + 1 + 2 + 1) / 2
    assert values["gate.pairs_attempted"] == 8 * 8 * 3 + 11 * 11 * 2
    assert 0 < values["gate.subset_yield"] <= 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 7.0, 0], ["d", 2.0, 3.0, 1]]
    summary = tracer.summary()
    assert summary["a"]["self_s"] == pytest.approx(5.0)
    assert summary["b"]["self_s"] == pytest.approx(2.0)
    assert summary["a"]["total_s"] == pytest.approx(10.0)


def test_subset_flops_follow_the_projection_and_lstsq_counts():
    e = np.eye(4, dtype=complex)
    vectors = [e[0], e[1], np.zeros(4, dtype=complex), e[0] + e[1], e[2]]
    # ranks seen by the non-zero vectors: 0, 1, 2, 2; each projection is 2 x 4 multiply-adds
    projections = 2 * (0 + 1 + 2 + 2) * 2 * 4
    # least squares of the 2 rejected vectors over the 3 selected, length 4
    lstsq = 4 * 3 * 3 + 4 * 3 * 2
    assert subset_flops(vectors, [0, 1, 4], 1e-9) == 8 * (projections + lstsq)


def test_window_scale_uses_adjacent_and_nearby_readings_only():
    ref = speed.REFERENCE_S
    readings = [(0.0, ref), (1.0, 2 * ref), (1.5, 4 * ref), (9.0, ref)]
    intervals = [(0.1, 0.9), (1.1, 1.4), (2.0, 8.5)]
    # op 0 and op 2 take the readings at 0.0, 1.0, 1.5 and 1.0, 1.5, 9.0 s;
    # op 1 only those at 1.0 and 1.5 s, and never the ones 1.1 s and more away
    assert speed.window_scales(readings, intervals) == pytest.approx([3 / 7, 1 / 3, 3 / 7])


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
    assert run.percentile([5.0, 1.0], 100.0) == 5.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    repo = Path(run.__file__).resolve().parents[1]
    shutil.copytree(repo / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
