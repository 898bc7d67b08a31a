import csv
import math
import tracemalloc
from dataclasses import replace
from itertools import groupby

import pytest

from loccgate import (
    RotatedDominoParams,
    SweepConfig,
    gate_channel,
    gate_channels,
    random_unitary_channel,
    rotated_domino_channel,
    run_sweep,
    sample_usd_params,
    usd_channel,
    write_csv_atomic,
)
from loccgate import gate, sweeps, zoo
from loccgate.gate import STACK_BYTES
from loccgate.sweeps import sample_rng
from loccgate.serialize import SchemaError

from oracle import traced_peak


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_config_from_dict_and_validation():
    cfg = SweepConfig.from_dict({"family": "rotated_domino", "samples": 3, "seed": 1})
    assert cfg.family == "rotated_domino"
    with pytest.raises(SchemaError):
        SweepConfig.from_dict({"family": "nope", "samples": 1, "seed": 0})
    with pytest.raises(SchemaError):
        SweepConfig.from_dict({"family": "usd", "samples": 0, "seed": 0})
    with pytest.raises(SchemaError):
        SweepConfig.from_dict({"family": "usd", "samples": 1})
    with pytest.raises(SchemaError):
        SweepConfig.from_dict({"family": "usd", "samples": 1, "seed": 0, "bogus": 2})
    with pytest.raises(SchemaError):
        SweepConfig.from_dict({"family": "random_unitary", "samples": 1, "seed": 0})
    with pytest.raises(SchemaError):
        SweepConfig.from_dict({"family": "usd", "samples": 1, "seed": 0, "eta1": 0.6})
    for field, value in (
        ("samples", 1.0), ("seed", True), ("seed", -1), ("dims", ["a"]), ("dims", 2),
        ("nu_values", [False]), ("rel_tol", "x"), ("theta_high", None), ("eta1", True), ("eta3", [0.1]),
    ):
        with pytest.raises(SchemaError, match=field):
            SweepConfig.from_dict({"family": "usd", "samples": 1, "seed": 0, field: value})
    for rel_tol in (float("nan"), float("inf"), -float("inf"), 0, -1, 1.0, 2):
        with pytest.raises(SchemaError, match="rel_tol"):
            SweepConfig.from_dict({"family": "usd", "samples": 1, "seed": 0, "rel_tol": rel_tol})
    cfg = SweepConfig.from_dict(
        {"family": "random_unitary", "samples": 1, "seed": 0, "dims": [2, 3], "nu_values": [4],
         "rel_tol": 1e-12, "theta_high": 0.5, "eta1": 0.1, "eta3": 0}
    )
    assert cfg.dims == (2, 3) and cfg.nu_values == (4,) and cfg.rel_tol == 1e-12


def test_rotated_domino_sweep_rows_and_determinism():
    cfg = SweepConfig(family="rotated_domino", samples=4, seed=7)
    header, rows = run_sweep(cfg)
    rows = list(rows)
    assert header == [
        "sample",
        "theta1",
        "theta2",
        "theta3",
        "theta4",
        "theta_min",
        "ratio_party0",
        "ratio_party1",
        "lambda_hat",
        "verdict",
    ]
    assert len(rows) == 4
    for row in rows:
        thetas = row[1:5]
        assert all(0.0 < t <= 3.15 / 4 for t in thetas)
        assert row[5] == min(thetas)
        assert row[9] == "NOT_LOCC"
    _, rows_again = run_sweep(cfg)
    assert rows == list(rows_again)


def test_random_unitary_sweep_columns():
    cfg = SweepConfig(
        family="random_unitary", samples=2, seed=3, dims=(2, 2), nu_values=(2, 5)
    )
    header, rows = run_sweep(cfg)
    rows = list(rows)
    assert header == ["sample", "nu", "ratio_party0", "ratio_party1", "lambda_hat", "verdict"]
    assert [row[1] for row in rows] == [2, 2, 5, 5]
    assert [row[0] for row in rows] == [0, 1, 2, 3]
    for row in rows[:2]:
        assert row[5] == "NOT_LOCC"


def test_random_unitary_sweep_transition_thresholds():
    # below the global dimension the gate certifies every seed with margin;
    # above it at least one party's ratio collapses to solver zero
    cfg = SweepConfig(
        family="random_unitary", samples=20, seed=17, dims=(2, 2), nu_values=(2, 5, 6)
    )
    header, rows = run_sweep(cfg)
    rows = list(rows)
    i_nu = header.index("nu")
    i_lambda = header.index("lambda_hat")
    ratios = [header.index("ratio_party0"), header.index("ratio_party1")]
    low = [row for row in rows if row[i_nu] == 2]
    high = [row for row in rows if row[i_nu] in (5, 6)]
    assert min(row[i_lambda] for row in low) >= 1e-3
    for row in high:
        assert min(row[i] for i in ratios) < 1e-13


def test_usd_sweep_rows():
    cfg = SweepConfig(family="usd", samples=3, seed=11)
    header, rows = run_sweep(cfg)
    assert header[:7] == [
        "sample",
        "alpha1_abs",
        "beta1_abs",
        "alpha3_abs",
        "beta3_abs",
        "eta1",
        "eta3",
    ]
    for row in rows:
        assert row[-1] == "NOT_LOCC"
        assert 0.0 < row[1] < row[2]


def test_a_usd_sweep_validates_each_row_once(monkeypatch):
    # sample_usd_params validates what it returns; usd_kraus does not check it again
    calls = []
    validate = zoo.validate_usd_params
    monkeypatch.setattr(zoo, "validate_usd_params", lambda p, **k: calls.append(p) or validate(p, **k))
    _, rows = run_sweep(SweepConfig(family="usd", samples=200, seed=2))
    assert len(list(rows)) == 200
    assert len(calls) == 200


def test_rows_gate_one_run_at_a_time_from_the_first_row_read(monkeypatch):
    gated = []
    monkeypatch.setattr(sweeps, "_gate_stack", lambda kraus, *rest: gated.append(len(kraus)) or gate._gate_stack(kraus, *rest))
    header, rows = run_sweep(SweepConfig(family="usd", samples=410, seed=4))  # runs of 409 rows and 1
    assert header[0] == "sample" and gated == []
    assert next(rows)[0] == 0 and gated == [409]
    assert [row[0] for row in rows] == list(range(1, 410)) and gated == [409, 1]


@pytest.mark.parametrize("family", ["rotated_domino", "usd"])
def test_a_sweep_peaks_at_one_run_whatever_its_samples(tmp_path, family):
    # a sweep's peak is its largest run's gate peak plus that run's rows: four times the samples
    # may add at most one run's rows (44 rotated-domino rows, 409 usd rows; ``sweeps._runs``)
    cfg = SweepConfig(family=family, samples={"rotated_domino": 44, "usd": 409}[family], seed=3)
    write_csv_atomic(tmp_path / "warm.csv", *run_sweep(cfg))
    tracemalloc.start()
    try:
        kept = list(run_sweep(cfg)[1])
        run_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # run_sweep is called inside the traced call, so its gating is traced whenever it happens
    peaks = [traced_peak(lambda n=n: write_csv_atomic(tmp_path / "o.csv", *run_sweep(replace(cfg, samples=n))))[0]
             for n in (600, 2400)]
    assert peaks[1] - peaks[0] <= run_bytes, (peaks, run_bytes)


def test_write_csv_atomic(tmp_path):
    out = tmp_path / "rows.csv"
    write_csv_atomic(out, ["a", "b"], [[1, 2], [3, 4]])
    data = read_csv(out)
    assert data == [["a", "b"], ["1", "2"], ["3", "4"]]
    # overwrite in place, no stray temp files left behind
    write_csv_atomic(out, ["a", "b"], [[5, 6]])
    assert read_csv(out) == [["a", "b"], ["5", "6"]]
    assert list(tmp_path.iterdir()) == [out]


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    out = tmp_path / "rows.csv"
    write_csv_atomic(out, ["a", "b"], [[1, 2]])
    before = out.read_bytes()

    def rows():
        yield [3, 4]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv_atomic(out, ["a", "b"], rows())
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]  # no *.csv.tmp left behind


def test_identical_seed_identical_file(tmp_path):
    cfg = SweepConfig(family="rotated_domino", samples=3, seed=21)
    for name in ("one.csv", "two.csv"):
        header, rows = run_sweep(cfg)
        write_csv_atomic(tmp_path / name, header, rows)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def assert_rows_equal_gating_each_row_alone(header, rows, channels):
    i_lambda = header.index("lambda_hat")
    for flat, (row, channel) in enumerate(zip(rows, channels, strict=True)):
        alone = gate_channel(channel)
        assert row[0] == flat
        assert row[-1] == alone.verdict
        assert abs(row[i_lambda] - alone.lambda_hat) <= 2e-15
        for got, report in zip(row[i_lambda - len(alone.reports) : i_lambda], alone.reports, strict=True):
            assert abs(got - report.ratio) <= 2e-15


def assert_rows_equal_gating_them_as_lists(header, rows, channels):
    """Sweep rows equal ``gate_channels`` on each same-shape run of their channels bit for bit, since
    both take the stacked scan (a lone channel would take the one-vector scan, so a run of one is
    gated twice).  ``repr`` round-trips each float and tells -0.0 from 0.0."""
    verdicts = []
    for _, run in groupby(channels, key=lambda c: c.kraus.shape):
        run = list(run)
        verdicts += gate_channels(run + run[:1] if len(run) == 1 else run)[: len(run)]
    for row, verdict in zip(rows, verdicts, strict=True):
        got = row[header.index("ratio_party0") :]
        want = [*(r.ratio for r in verdict.reports), verdict.lambda_hat, verdict.verdict]
        assert list(map(repr, got)) == list(map(repr, want))
        assert {type(x) for x in got[:-1]} == {float}


def one_row_channels(cfg):
    """The channels of a sweep's rows, from the public one-row constructors."""
    if cfg.family == "rotated_domino":
        rngs = [sample_rng(cfg.seed, i) for i in range(cfg.samples)]
        return [
            rotated_domino_channel(RotatedDominoParams(tuple(cfg.theta_high - rng.uniform(0.0, cfg.theta_high) for _ in range(4))))
            for rng in rngs
        ]
    if cfg.family == "usd":
        return [usd_channel(sample_usd_params(sample_rng(cfg.seed, i), cfg.eta1, cfg.eta3)) for i in range(cfg.samples)]
    nus = [nu for nu in cfg.nu_values for _ in range(cfg.samples)]
    return [random_unitary_channel(cfg.dims, nu, sample_rng(cfg.seed, i)) for i, nu in enumerate(nus)]


def test_stacked_sweep_rows_equal_gating_each_row_alone():
    # nu changes mid-sweep, and the nu = 5 run is longer than one stack
    per_stack = STACK_BYTES // (16 * 25 * 16)  # 25 pair products of 4 x 4
    cfg = SweepConfig(
        family="random_unitary", samples=per_stack + 3, seed=5, dims=(2, 2), nu_values=(5, 2)
    )
    header, rows = run_sweep(cfg)
    rows = list(rows)
    nus = [nu for nu in cfg.nu_values for _ in range(cfg.samples)]
    assert [row[1] for row in rows] == nus
    channels = one_row_channels(cfg)
    assert_rows_equal_gating_each_row_alone(header, rows, channels)
    assert_rows_equal_gating_them_as_lists(header, rows, channels)


def test_sweeps_build_no_verdict_objects(monkeypatch):
    # a sweep reads its rows from the gate's columns; gate_channels builds the objects from the same
    made = []
    for cls in (gate.GateVerdict, gate.PartyGateReport):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=cls.__init__, **k: made.append(type(self)) or init(self, *a, **k))
    configs = [
        SweepConfig(family="rotated_domino", samples=3, seed=1),
        SweepConfig(family="usd", samples=3, seed=2),
        SweepConfig(family="random_unitary", samples=2, seed=3, dims=(2, 2), nu_values=(1, 3)),  # nu = 1: Kraus rank one
    ]
    swept = [(header, list(rows)) for header, rows in map(run_sweep, configs)]
    assert made == []
    assert {id(row[-1]) for _, rows in swept for row in rows} <= set(map(id, gate._VERDICTS))  # one str per label
    for cfg, (header, rows) in zip(configs, swept):
        assert_rows_equal_gating_them_as_lists(header, rows, one_row_channels(cfg))
    assert len(made) == 3 * (3 + 3 + 2 + 2) and made.count(gate.GateVerdict) == 3 + 3 + 2 + 2


@pytest.mark.parametrize("family, samples", [("rotated_domino", 50), ("usd", 210)])
def test_packed_sweep_stacks_stay_within_stack_bytes(monkeypatch, family, samples):
    # runs longer than one stack; rotated domino keeps 9 of 81 pair products, usd 5 of 25
    scanned = []
    for name in ("select_independent_subset", "select_independent_subsets"):
        scan = getattr(gate, name)
        monkeypatch.setattr(gate, name, lambda vecs, *rest, scan=scan: scanned.append(vecs) or scan(vecs, *rest))
    cfg = SweepConfig(family=family, samples=samples, seed=9)
    header, rows = run_sweep(cfg)
    rows = list(rows)
    monkeypatch.undo()
    stacks = [len(vecs) if vecs.ndim == 3 else 1 for vecs in scanned]
    assert sum(stacks) == samples and max(stacks) > 2
    assert max(vecs.nbytes for vecs in scanned) <= STACK_BYTES
    channels = one_row_channels(cfg)
    assert_rows_equal_gating_each_row_alone(header, rows, channels)
    assert_rows_equal_gating_them_as_lists(header, rows, channels)


@pytest.mark.parametrize("short, long", [
    # the first three ended on a run of one row when runs were 56, 18 and 200 rows long;
    # the last three end on one with runs of 113, 44 and 409 rows (``sweeps._runs``)
    (SweepConfig(family="random_unitary", samples=57, seed=5, dims=(2, 3), nu_values=(8,)), 70),
    (SweepConfig(family="rotated_domino", samples=19, seed=3), 30),
    (SweepConfig(family="usd", samples=201, seed=4), 205),
    (SweepConfig(family="random_unitary", samples=114, seed=5, dims=(2, 3), nu_values=(8,)), 130),
    (SweepConfig(family="rotated_domino", samples=45, seed=3), 60),
    (SweepConfig(family="usd", samples=410, seed=4), 415),
])
def test_rows_of_a_shorter_sweep_are_a_prefix_of_a_longer_one(tmp_path, short, long):
    # a lone last row once took the one-vector scan, and sample 56 above read 0.0 instead of 9.65e-18
    for name, cfg in (("short.csv", short), ("long.csv", replace(short, samples=long))):
        write_csv_atomic(tmp_path / name, *run_sweep(cfg))
    short_bytes, long_bytes = (tmp_path / "short.csv").read_bytes(), (tmp_path / "long.csv").read_bytes()
    assert short_bytes.count(b"\n") == short.samples + 1
    assert long_bytes.startswith(short_bytes)


def test_a_run_holds_as_many_rows_as_fit_one_stack_of_their_n_products():
    # STACK_BYTES // (16 N D^2) rows: 2x3 channels of 8 unitaries, rotated domino, usd
    for (n_kraus, dim), step in (((8, 6), 113), ((9, 9), 44), ((5, 4), 409)):
        assert step == STACK_BYTES // (16 * n_kraus * dim * dim)
        assert sweeps._runs(step + 1, n_kraus, dim) == [(0, step), (step, step + 1)]
    assert sweeps._runs(3, 10**4, 10**3) == [(0, 1), (1, 2), (2, 3)]  # at least one row


def test_rotated_domino_angles_match_four_scalar_draws():
    # one uniform(0, theta_high, 4) draw per row gives the four scalar draws' angles, bit for bit
    for seed in range(40):
        for theta_high in (math.pi / 4, 0.3):
            cfg = SweepConfig(family="rotated_domino", samples=3, seed=seed, theta_high=theta_high)
            for row in run_sweep(cfg)[1]:
                rng = sample_rng(seed, row[0])
                reference = [theta_high - rng.uniform(0.0, theta_high) for _ in range(4)]
                assert [type(t) for t in row[1:6]] == [float] * 5
                assert row[1:5] == reference and row[5] == min(reference)
