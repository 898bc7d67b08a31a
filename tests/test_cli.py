import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loccgate
from loccgate import (
    RotatedDominoParams,
    SweepConfig,
    bell_channel,
    domino_channel,
    domino_three_round_protocol,
    random_unitary_channel,
    rotated_domino_channel,
    run_sweep,
    usd_oneway_protocol,
)
from loccgate.cli import main
from loccgate.sweeps import FAMILIES
from loccgate.serialize import channel_to_dict, protocol_to_dict, save_channel, save_protocol
from loccgate.zoo import usd_kraus


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_channel(bell_channel(), path)
    return path


# ---------------------------------------------------------------------------
# check


def test_check_bell(capsys, bell_file):
    code, out, _ = run(capsys, ["check", "--channel", str(bell_file)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NOT_LOCC"
    assert abs(doc["lambda_hat"] - 1.0) < 1e-9


def test_check_identity_degenerate(capsys, tmp_path):
    from loccgate import KrausChannel

    path = tmp_path / "identity.json"
    save_channel(KrausChannel("identity", (2, 2), 4, (np.eye(4),)), path)
    code, out, _ = run(capsys, ["check", "--channel", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "DEGENERATE_KRAUS_RANK_ONE"
    assert doc["local"] is True


def test_check_large_local_unitary(capsys, tmp_path):
    # U x I_128, D = 256: each cut's product test forms a Gram of at most D x D entries
    from loccgate import KrausChannel, haar_unitary

    path = tmp_path / "local-unitary.json"
    u = np.kron(haar_unitary(2, np.random.default_rng(5)), np.eye(128))
    save_channel(KrausChannel("local-unitary", (2, 128), 256, (u,)), path)
    code, out, _ = run(capsys, ["check", "--channel", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert (doc["verdict"], doc["local"]) == ("DEGENERATE_KRAUS_RANK_ONE", True)


def test_check_parse_failure(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, ["check", "--channel", str(path)])
    assert code == 2
    assert "parse failure" in err


def test_check_dimension_inconsistency(capsys, tmp_path, bell_file):
    doc = json.loads(bell_file.read_text())
    doc["output_dim"] = 5
    path = tmp_path / "badshape.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["check", "--channel", str(path)])
    assert code == 3
    assert "dimension inconsistency" in err


def test_check_completeness_failure(capsys, tmp_path):
    bad = channel_to_dict(bell_channel())
    # halve one Kraus operator: shapes stay valid, completeness breaks
    bad["kraus"][0] = [[[0.5 * re, 0.5 * im] for re, im in row] for row in bad["kraus"][0]]
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, ["check", "--channel", str(path)])
    assert code == 4
    assert "completeness failure" in err


def test_check_fails_completeness_of_a_channel_too_narrow_to_be_complete(capsys, tmp_path):
    # one 1 x 2048 Kraus operator on input dims (2048, 1): sum K^dag K has rank 1
    from loccgate import KrausChannel

    path = tmp_path / "wide.json"
    save_channel(KrausChannel("wide", (2048, 1), 1, (np.full((1, 2048), 2048 ** -0.5),)), path)
    code, out, err = run(capsys, ["check", "--channel", str(path)])
    assert (code, out) == (4, "")
    assert "'wide' has completeness residual inf" in err


def overflowing_channel():
    # K^dag K overflows to inf - inf, so the completeness residual is nan
    from loccgate import KrausChannel

    k = np.eye(4, dtype=complex)
    k[:2, :2] = 1e155 * np.array([[1, 1], [1, -1]])
    return KrausChannel("overflow", (2, 2), 4, [k])


def test_check_nan_completeness_residual_fails_without_warning(capsys, tmp_path, recwarn):
    from loccgate import gate_channel
    from oracle import check_completeness

    channel = overflowing_channel()
    assert np.isnan(check_completeness(channel))
    path = tmp_path / "overflow.json"
    save_channel(channel, path)
    code, out, err = run(capsys, ["check", "--channel", str(path)])
    assert code == 4
    assert out == ""
    assert err == (
        "error: completeness failure: channel 'overflow' has completeness residual nan, "
        "not within 1e-06\n"
    )
    assert len(recwarn) == 0
    with pytest.raises(ValueError, match="completeness residual nan"):
        gate_channel(channel)


# ---------------------------------------------------------------------------
# zoo


def test_zoo_bell_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, ["zoo", "bell", "--out", str(a)])[0] == 0
    assert run(capsys, ["zoo", "bell", "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["input_dims"] == [2, 2]
    assert len(doc["kraus"]) == 4


def test_zoo_rotated_domino(capsys, tmp_path):
    out = tmp_path / "rd.json"
    code, _, _ = run(
        capsys, ["zoo", "rotated-domino", "--theta", "0.3,0.4,0.5,0.6", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["kraus"]) == 9
    assert doc["input_dims"] == [3, 3]


def test_zoo_rotated_domino_rejects_bad_theta(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["zoo", "rotated-domino", "--theta", "0.3,0.4", "--out", str(tmp_path / "x.json")],
    )
    assert code == 2
    assert "four angles" in err


def test_zoo_random_unitary_seeded(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["zoo", "random-unitary", "--dims", "2,2", "--nu", "3", "--seed", "7"]
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(json.loads(a.read_text())["kraus"]) == 3


def test_zoo_usd_seeded_and_explicit(capsys, tmp_path):
    out = tmp_path / "usd.json"
    assert run(capsys, ["zoo", "usd", "--seed", "5", "--out", str(out)])[0] == 0
    assert len(json.loads(out.read_text())["kraus"]) == 5
    out2 = tmp_path / "usd2.json"
    code, _, _ = run(
        capsys, ["zoo", "usd", "--alpha1", "0.4", "--alpha3", "0.5", "--out", str(out2)]
    )
    assert code == 0


def test_zoo_usd_rejects_bad_priors_before_sampling(capsys, tmp_path):
    out = tmp_path / "usd.json"
    code, _, err = run(capsys, ["zoo", "usd", "--eta1", "nan", "--out", str(out)])
    assert code == 2
    assert "priors must satisfy" in err and "could not sample" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_end_to_end(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "rotated_domino", "samples": 2, "seed": 9}))
    out = tmp_path / "rows.csv"
    code, _, _ = run(capsys, ["sweep", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("sample,theta1")
    assert len(lines) == 3


def help_columns() -> dict[str, str]:
    """Each family's CSV columns as ``cli.SWEEP_COLUMNS_HELP`` spells them, continuation lines joined."""
    columns: dict[str, str] = {}
    for line in loccgate.cli.SWEEP_COLUMNS_HELP.splitlines()[1:]:
        head, colon, rest = line.partition(":")
        if colon:
            family, columns[head.strip()] = head.strip(), rest.strip()
        else:
            columns[family] += line.strip()
    return columns


@pytest.mark.parametrize("family, config", [
    ("rotated_domino", {}),
    ("usd", {}),
    ("random_unitary", {"dims": (2, 3, 2), "nu_values": (2,)}),
])
def test_the_sweep_help_spells_the_columns_each_sweep_writes(family, config):
    header = ",".join(run_sweep(SweepConfig(family=family, samples=1, seed=0, **config))[0])
    spelled = help_columns()
    assert sorted(spelled) == sorted(FAMILIES)
    if family == "random_unitary":  # spelled for any party count P: a fixed prefix and suffix
        prefix, suffix = spelled[family].split(",...,ratio_party{P-1},")
        assert header == f"{prefix},ratio_party1,ratio_party2,{suffix}"
    else:
        assert header == spelled[family]


def test_sweep_rejects_bad_config(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "nope", "samples": 2, "seed": 9}))
    code, _, err = run(capsys, ["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "parse failure" in err


def test_a_failure_in_a_later_sweep_run_exits_2_and_leaves_the_old_csv(capsys, tmp_path, monkeypatch):
    # the rows are gated run by run while the temp file is written, so the second run's
    # failure raises mid-write: the temp file goes, and --out keeps its old bytes
    out = tmp_path / "o.csv"
    out.write_bytes(b"old,bytes\n")
    runs = []

    def second_run_fails(params):
        runs.append(len(params))
        if len(runs) == 2:
            raise ValueError("second run failed")
        return usd_kraus(params)

    monkeypatch.setattr(loccgate.sweeps, "usd_kraus", second_run_fails)
    code, stdout, err = run(capsys, _sweep(tmp_path, samples=410))  # runs of 409 rows and 1
    assert (code, stdout, err) == (2, "", "error: parse failure: second run failed\n")
    assert runs == [409, 1]
    assert out.read_bytes() == b"old,bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o.csv"]  # no *.csv.tmp


def test_input_too_large_for_memory_exits_2_without_traceback(capsys, tmp_path, bell_file, monkeypatch):
    # a random_unitary sweep at nu_values [100000] asks numpy for 2.33 TiB of pair
    # products; the gate stage that would allocate them raises instead, in both forms:
    # pair by pair for bell, whose operators share output rows in 8 of 16 pairs, and by
    # block columns for random unitaries, whose operators all share every row
    forms = []

    def too_large(kraus, pairs):
        forms.append("pairs" if pairs is not None else "columns")
        raise MemoryError("Unable to allocate 2.33 TiB for an array")

    monkeypatch.setattr(loccgate.gate, "formed_pair_products", too_large)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "random_unitary", "samples": 1, "seed": 0, "nu_values": [5]}))
    dense = tmp_path / "ru.json"
    save_channel(random_unitary_channel((2, 2), 3, np.random.default_rng(0)), dense)
    for argv in (["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")],
                 ["check", "--channel", str(bell_file)], ["check", "--channel", str(dense)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: input too large: Unable to allocate 2.33 TiB for an array\n"
    assert forms == ["columns", "pairs", "columns"]
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# tolerances that would fake a verdict


@pytest.fixture()
def implementable_domino_file(tmp_path):
    # rotated domino with theta1 = 0 has a three-round LOCC protocol
    path = tmp_path / "rd.json"
    save_channel(rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7))), path)
    return path


def _cli_process(argv, python=("-m", "loccgate.cli"), **env):
    """A cold ``python -m loccgate.cli`` process (``python`` replaces the module flags).

    ``env`` adds variables to this process's environment; a value of None removes one.
    """
    src = Path(loccgate.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in {**os.environ, "PYTHONPATH": path, **env}.items() if value is not None}
    return subprocess.run([sys.executable, *python, *argv], env=env, capture_output=True, text=True, timeout=120)


def test_check_default_tol_finds_candidates(capsys, implementable_domino_file):
    code, out, _ = run(capsys, ["check", "--channel", str(implementable_domino_file)])
    assert code == 0
    assert json.loads(out)["verdict"] == "FIRST_MOVE_CANDIDATES"


@pytest.mark.parametrize("tol", ["nan", "-1", "2"])
def test_check_rejects_tol_that_fakes_a_verdict(implementable_domino_file, tol):
    # these used to print NOT_LOCC (nan, -1) or nullity 9 (2) with exit 0
    proc = _cli_process(["check", "--channel", str(implementable_domino_file), f"--tol={tol}"])
    assert proc.returncode == 2, proc.stderr
    assert "NOT_LOCC" not in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--tol" in proc.stderr


@pytest.mark.parametrize("tol", ["inf", "-inf", "0", "1", "1.5", "x"])
def test_check_rejects_tol_outside_unit_interval(capsys, implementable_domino_file, tol):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--channel", str(implementable_domino_file), f"--tol={tol}"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_protocol_rejects_tol_that_fakes_a_match(
    capsys, tmp_path, implementable_domino_file, tol
):
    proto = tmp_path / "domino-protocol.json"  # pi/4 angles: Choi distance 0.34 to the target
    assert run(capsys, ["protocol", "domino-three-round", "--out", str(proto)])[0] == 0
    target = str(implementable_domino_file)
    argv = ["verify-protocol", "--protocol", str(proto), "--channel", target]
    code, out, _ = run(capsys, argv)
    assert code == 1 and json.loads(out)["choi_distance"] > 0.3
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_sweep_rejects_rel_tol_outside_unit_interval(capsys, tmp_path):
    assert run(capsys, _sweep(tmp_path, rel_tol=-1.0))[0] == 2
    assert run(capsys, _sweep(tmp_path, rel_tol=float("nan")))[0] == 2
    assert not (tmp_path / "o.csv").exists()


def test_check_warns_with_the_residual_its_one_completeness_pass_computed(capsys, monkeypatch, tmp_path):
    # the gate's own check computes the residual that the warning prints: one pass, not two
    from loccgate import KrausChannel, channels, gate
    from oracle import check_completeness

    channel = KrausChannel("scaled", (2, 2), 4, np.sqrt(1 + 2e-7) * bell_channel().kraus)
    path = tmp_path / "scaled.json"
    save_channel(channel, path)
    calls, residuals = [], channels.completeness_residuals
    for module in (channels, gate):
        monkeypatch.setattr(module, "completeness_residuals", lambda kraus: calls.append(1) or residuals(kraus))
    code, out, err = run(capsys, ["check", "--channel", str(path)])
    assert (code, len(calls)) == (0, 1)
    assert json.loads(out)["verdict"] == "NOT_LOCC"
    assert err == f"warning: completeness residual {check_completeness(channel):.3e} above 1e-09\n"


def test_check_exits_4_when_a_residual_in_the_warning_band_leaves_the_identity_off_the_span(capsys, tmp_path):
    # a residual in (1e-9, 1e-6] is gated only while the identity stays within 1e-9 of the span of
    # the selected products: a flagged measurement whose first state is tilted by 1e-8 is not
    from loccgate import KrausChannel
    from oracle import check_completeness

    states = np.eye(4, dtype=complex)
    states[0, 1] = 1e-8
    states[0] /= np.linalg.norm(states[0])
    kraus = np.zeros((4, 16, 4), dtype=complex)
    for k, phi in enumerate(states):
        kraus[k, 4 * k : 4 * k + 4] = np.outer(phi, phi.conj())
    channel = KrausChannel("tilted", (2, 2), 16, kraus)
    assert 1e-9 < check_completeness(channel) <= 1e-6
    path = tmp_path / "tilted.json"
    save_channel(channel, path)
    code, out, err = run(capsys, ["check", "--channel", str(path)])
    assert (code, out) == (4, "")
    assert err.startswith("error: completeness failure: channel 'tilted': identity not in the span of "
                          "selected pair products (residual 1.414e-08)")


# ---------------------------------------------------------------------------
# protocol + verify-protocol


def test_verify_protocol_walks_the_tree_once(capsys, monkeypatch, tmp_path):
    from loccgate import protocols

    proto, target = tmp_path / "domino-protocol.json", tmp_path / "domino-target.json"
    save_protocol(domino_three_round_protocol(0.3, 0.5, 0.7), proto)
    save_channel(rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7))), target)
    calls, walk = [], protocols._walk_nodes
    monkeypatch.setattr(protocols, "_walk_nodes", lambda tree: calls.append(1) or walk(tree))
    code, out, _ = run(capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(target)])
    assert (code, len(calls)) == (0, 1)
    assert json.loads(out)["ok"] is True


def test_protocol_export_and_verify(capsys, tmp_path):
    proto = tmp_path / "domino-protocol.json"
    target = tmp_path / "domino-target.json"
    code, _, _ = run(
        capsys, ["protocol", "domino-three-round", "--theta", "0.3,0.5,0.7", "--out", str(proto)]
    )
    assert code == 0
    code, _, _ = run(
        capsys, ["zoo", "rotated-domino", "--theta", "0,0.3,0.5,0.7", "--out", str(target)]
    )
    assert code == 0
    code, out, _ = run(
        capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(target)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["choi_distance"] < 1e-9


def test_verify_protocol_usd_oneway(capsys, tmp_path):
    from loccgate import UsdParams, usd_channel

    proto = tmp_path / "oneway.json"
    assert run(capsys, ["protocol", "usd-oneway", "--alpha1", "0.4", "--out", str(proto)])[0] == 0
    # target: the conclusive limit channel, built through the library
    target_path = tmp_path / "usd0.json"
    target = usd_channel(UsdParams(0.4, np.sqrt(1 - 0.16), 0.0, 1.0), allow_alpha3_zero=True)
    save_channel(target, target_path)
    code, out, _ = run(
        capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(target_path)]
    )
    assert code == 0
    assert json.loads(out)["choi_distance"] < 1e-9


def test_verify_protocol_overflowing_distance_prints_strict_json(capsys, tmp_path):
    from loccgate import KrausChannel, UsdParams, usd_channel

    proto = tmp_path / "oneway.json"
    assert run(capsys, ["protocol", "usd-oneway", "--alpha1", "0.4", "--out", str(proto)])[0] == 0
    # finite entries around 1e200 load (only finiteness is checked), and their Choi matrix overflows
    target_path = tmp_path / "usd0.json"
    target = usd_channel(UsdParams(0.4, np.sqrt(1 - 0.16), 0.0, 1.0), allow_alpha3_zero=True)
    save_channel(KrausChannel("huge", target.input_dims, target.output_dim, 1e200 * target.kraus), target_path)
    code, out, _ = run(
        capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(target_path)]
    )

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    assert code == 1
    assert json.loads(out, parse_constant=reject) == {"ok": False, "choi_distance": None}


def test_verify_protocol_rejects_an_output_map_that_is_not_isometric(capsys, tmp_path):
    from loccgate import UsdParams, usd_channel

    proto = tmp_path / "oneway.json"
    assert run(capsys, ["protocol", "usd-oneway", "--alpha1", "0.4", "--out", str(proto)])[0] == 0
    doc = json.loads(proto.read_text())
    doc["output_isometry"] = [[[2 * re, 2 * im] for re, im in row] for row in doc["output_isometry"]]
    proto.write_text(json.dumps(doc))
    target_path = tmp_path / "usd0.json"
    save_channel(usd_channel(UsdParams(0.4, np.sqrt(1 - 0.16), 0.0, 1.0), allow_alpha3_zero=True), target_path)
    code, out, err = run(capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(target_path)])
    assert (code, out) == (2, "")
    assert err == "error: parse failure: output isometry is not isometric on the protocol's outputs (3.000e+00)\n"


def test_verify_protocol_mismatch_exit_1(capsys, tmp_path, bell_file):
    proto = tmp_path / "oneway.json"
    run(capsys, ["protocol", "usd-oneway", "--alpha1", "0.4", "--out", str(proto)])
    # 2x2 -> 5 protocol against the 2x2 -> 4 Bell channel: dimension error
    code, _, err = run(
        capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(bell_file)]
    )
    assert code == 3
    assert "dimension" in err


def test_verify_protocol_checks_dims_before_compiling(capsys, tmp_path, no_compiling, isometry_chain):
    from loccgate import KrausChannel

    proto, target = tmp_path / "chain.json", tmp_path / "identity.json"
    save_protocol(isometry_chain, proto)
    save_channel(KrausChannel("identity", (2, 2, 2), 8, (np.eye(8),)), target)
    assert proto.stat().st_size > 75_000
    argv = ["verify-protocol", "--protocol", str(proto), "--channel", str(target)]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "protocol outputs 1000000000, target outputs 8" in err


def test_verify_protocol_distinct_channels(capsys, tmp_path, bell_file):
    # identity protocol on two qubits vs the Bell channel: comparable but unequal
    proto_doc = {
        "parties": 2,
        "initial_dims": [2, 2],
        "root": {
            "party": 0,
            "branches": [
                {"op": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "child": None}
            ],
        },
    }
    proto = tmp_path / "identity-protocol.json"
    proto.write_text(json.dumps(proto_doc))
    code, out, _ = run(
        capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(bell_file)]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["choi_distance"] > 0.1


# ---------------------------------------------------------------------------
# inputs that used to end in a traceback


def _one_party_channel(tmp_path):
    from loccgate import KrausChannel

    path = tmp_path / "single.json"
    save_channel(KrausChannel("single", (4,), 4, (np.eye(4),)), path)
    return ["check", "--channel", str(path)]


def _sweep(tmp_path, out="o.csv", **priors):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "usd", "samples": 1, "seed": 1, **priors}))
    return ["sweep", "--config", str(config), "--out", str(tmp_path / out)]


def _random_unitary_zoo(tmp_path, dims):
    return ["zoo", "random-unitary", "--dims", dims, "--nu", "2", "--out", str(tmp_path / "ru.json")]


def _near_complete_channel(tmp_path):
    # completeness residual 1e-7, between the warning level and the ceiling, in a
    # direction outside the pair products' span
    from loccgate import KrausChannel

    k0 = np.sqrt(0.5) * np.diag([1, 1, 1, np.sqrt(1 + 1e-7)]).astype(complex)
    k1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)) @ k0
    path = tmp_path / "near-complete.json"
    save_channel(KrausChannel("near-complete", (2, 2), 4, (k0, k1)), path)
    return ["check", "--channel", str(path)]


def _deep_protocol(tmp_path):
    path = tmp_path / "deep.json"
    depth = 3000
    path.write_text('{"parties": 2, "initial_dims": [2, 2], "root": ' + "[" * depth + "]" * depth + "}")
    return ["verify-protocol", "--protocol", str(path), "--channel", str(path)]


def _domino_protocol(tmp_path, edit_root):
    # the three-round domino protocol, its root edited, against the channel it implements
    doc = protocol_to_dict(domino_three_round_protocol(0.3, 0.5, 0.7))
    edit_root(doc["root"])
    proto, target = tmp_path / "protocol.json", tmp_path / "target.json"
    proto.write_text(json.dumps(doc))
    save_channel(rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7))), target)
    return ["verify-protocol", "--protocol", str(proto), "--channel", str(target)]


def _deep_sweep_config(tmp_path):
    path = tmp_path / "deep.json"
    depth = 3000
    path.write_text('{"family": ' + "[" * depth + "]" * depth + "}")
    return ["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_one_party_channel, 3),
        (lambda tmp_path: _sweep(tmp_path, eta1=0.6), 2),  # infeasible priors
        (lambda tmp_path: _sweep(tmp_path, eta1=1e-6, eta3=0.999), 2),  # sampler gives up
        (lambda tmp_path: _sweep(tmp_path, dims=["a"]), 2),
        (lambda tmp_path: _sweep(tmp_path, rel_tol="x"), 2),
        (_deep_protocol, 2),
        (_deep_sweep_config, 2),
        (_near_complete_channel, 4),
        (lambda tmp_path: ["zoo", "bell", "--out", str(tmp_path / "missing" / "bell.json")], 2),
        (lambda tmp_path: ["protocol", "usd-oneway", "--out", str(tmp_path / "missing" / "p.json")], 2),
        (lambda tmp_path: _sweep(tmp_path, out="missing/o.csv"), 2),
        (lambda tmp_path: _random_unitary_zoo(tmp_path, "inf,2"), 2),
        (lambda tmp_path: _random_unitary_zoo(tmp_path, "2.7,2"), 2),
        (lambda tmp_path: _domino_protocol(tmp_path, lambda root: root["branches"].pop()), 4),
        (lambda tmp_path: _domino_protocol(tmp_path, lambda root: root.update(party=2)), 3),
        (lambda tmp_path: _sweep(tmp_path, seed=-1), 2),
    ],
    ids=[
        "one-party-check",
        "usd-infeasible-priors",
        "usd-sampler-gives-up",
        "sweep-non-integer-dims",
        "sweep-non-real-rel-tol",
        "deep-protocol",
        "deep-sweep-config",
        "near-complete-identity-outside-span",
        "zoo-out-in-missing-dir",
        "protocol-out-in-missing-dir",
        "sweep-out-in-missing-dir",
        "zoo-infinite-dims",
        "zoo-fractional-dims",
        "verify-incomplete-protocol",
        "verify-party-out-of-range",
        "sweep-negative-seed",
    ],
)
def test_bad_input_exits_with_documented_code(tmp_path, argv, expected):
    proc = _cli_process(argv(tmp_path))
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")



@pytest.mark.parametrize(
    "argv",
    [
        ["zoo", "usd", "--alpha1=1e-300"],  # squaring 1/alpha1 overflows
        ["zoo", "usd", "--alpha1=0.3", "--alpha3=0.5,1e308"],
        ["protocol", "usd-oneway", "--alpha1=1e155"],
    ],
)
def test_out_of_range_amplitudes_exit_2_without_warning(capsys, tmp_path, recwarn, argv):
    code, _, err = run(capsys, [*argv, f"--out={tmp_path / 'out.json'}"])
    assert code == 2
    assert err.startswith("error: ")
    assert len(recwarn) == 0
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# fuzz: every run ends in a documented exit code, with no exception or warning

_DIR = "@DIR@"  # stands for the example's own temporary directory

_numbers = st.sampled_from([0, 1, -1, 0.25, 2, 1e-300, 1e155, 1e308, math.nan, math.inf]) | (
    st.floats(-3, 3)
)
_arg_text = st.lists(_numbers, max_size=4).map(lambda xs: ",".join(map(str, xs))) | st.text(
    st.characters(codec="ascii", exclude_categories=["Cc"]), max_size=5
)
_malformed_json = st.sampled_from(["", "{", "[]", "null", '{"name": 1}', "[" * 3000])
_small_ints = st.lists(st.integers(-1, 3), max_size=3)
_out = st.sampled_from([f"{_DIR}/out", f"{_DIR}/missing/out"])

_CHANNEL_DOCS = [
    channel_to_dict(bell_channel()),
    channel_to_dict(rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7)))),
]
_PROTOCOL_DOCS = [
    protocol_to_dict(domino_three_round_protocol(0.3, 0.5, 0.7)),
    protocol_to_dict(usd_oneway_protocol(0.4, math.sqrt(0.84))),
]


def _matrix(draw, rows: int, cols: int) -> list:
    return [[[draw(_numbers), draw(_numbers)] for _ in range(cols)] for _ in range(rows)]


def _options(draw, strategies: dict) -> list[str]:
    """A few of the given options, each as one ``--flag=value`` argument."""
    flags = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True, max_size=4))
    return [f"{flag}={draw(strategies[flag])}" for flag in flags]


@st.composite
def _channel_text(draw) -> str:
    kind = draw(st.sampled_from(["zoo", "random", "malformed"]))
    if kind == "malformed":
        return draw(_malformed_json)
    if kind == "zoo":  # one Kraus operator rescaled, sometimes
        doc = copy.deepcopy(draw(st.sampled_from(_CHANNEL_DOCS)))
        scale = draw(st.just(1.0) | _numbers)
        doc["kraus"][0] = [[[scale * re, scale * im] for re, im in row] for row in doc["kraus"][0]]
    else:
        dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        out = draw(st.integers(0, 3))
        n = draw(st.integers(1, 2))
        kraus = [_matrix(draw, max(out, 1), max(math.prod(dims), 1)) for _ in range(n)]
        doc = {"name": "fuzz", "input_dims": dims, "output_dim": out, "kraus": kraus}
    return json.dumps(doc)


@st.composite
def _protocol_text(draw) -> str:
    kind = draw(st.sampled_from(["builtin", "random-root", "malformed"]))
    if kind == "malformed":
        return draw(_malformed_json)
    doc = copy.deepcopy(draw(st.sampled_from(_PROTOCOL_DOCS)))
    if kind == "random-root":  # one measurement, by a party past the last one sometimes
        dims = doc["initial_dims"]
        party = draw(st.integers(0, len(dims)))
        local = dims[party] if party < len(dims) else 1
        ops = [_matrix(draw, draw(st.integers(1, 3)), local) for _ in range(draw(st.integers(1, 2)))]
        doc["root"] = {"party": party, "branches": [{"op": op, "child": None} for op in ops]}
    return json.dumps(doc)


@st.composite
def _sweep_config_text(draw) -> str:
    if draw(st.integers(0, 4)) == 0:
        return draw(_malformed_json)
    doc = {
        "family": draw(st.sampled_from(["rotated_domino", "random_unitary", "usd", "bogus"])),
        "samples": draw(st.integers(-1, 2)),
        "seed": draw(st.integers(-1, 3)),
    }
    optional = {
        "dims": _small_ints,
        "nu_values": st.lists(st.integers(-1, 6), max_size=3),
        "rel_tol": _numbers,
        "theta_high": _numbers,
        "eta1": _numbers,
        "eta3": _numbers,
        "unknown": st.just(1),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4)):
        doc[key] = draw(optional[key])
    if draw(st.integers(0, 5)) == 0:
        del doc[draw(st.sampled_from(["family", "samples", "seed"]))]
    return json.dumps(doc)


def _maybe(draw, name: str, text) -> dict:
    """The file ``name`` with generated contents, or no file at all."""
    return {} if draw(st.integers(0, 9)) == 0 else {name: draw(text)}


@st.composite
def _cli_runs(draw) -> tuple[list[str], dict]:
    """One CLI invocation: its argv and the files it reads, by name."""
    command = draw(st.sampled_from(["check", "zoo", "protocol", "sweep", "verify-protocol"]))
    channel, protocol = f"--channel={_DIR}/channel.json", f"--protocol={_DIR}/protocol.json"
    if command == "check":
        argv = ["check", channel, *_options(draw, {"--tol": _arg_text})]
        return argv, _maybe(draw, "channel.json", _channel_text())
    if command == "verify-protocol":
        argv = ["verify-protocol", protocol, channel, *_options(draw, {"--tol": _arg_text})]
        files = _maybe(draw, "channel.json", _channel_text())
        return argv, {**files, **_maybe(draw, "protocol.json", _protocol_text())}
    if command == "sweep":
        argv = ["sweep", f"--config={_DIR}/config.json", f"--out={draw(_out)}"]
        return argv, _maybe(draw, "config.json", _sweep_config_text())
    if command == "protocol":
        name = draw(st.sampled_from(["domino-three-round", "usd-oneway", "unknown"]))
        options = {"--theta": _arg_text, "--alpha1": _arg_text}
        return ["protocol", name, f"--out={draw(_out)}", *_options(draw, options)], {}
    families = ["bell", "domino", "rotated-domino", "random-unitary", "usd", "unknown"]
    options = {
        "--theta": _arg_text,
        "--dims": _small_ints.map(lambda ds: ",".join(map(str, ds))),
        "--nu": st.integers(-1, 6).map(str),
        "--seed": st.integers(-1, 3).map(str),
        "--alpha1": _arg_text,
        "--alpha3": _arg_text,
        "--eta1": _arg_text,
        "--eta3": _arg_text,
    }
    argv = ["zoo", draw(st.sampled_from(families)), f"--out={draw(_out)}"]
    return [*argv, *_options(draw, options)], {}


@settings(max_examples=80, deadline=None)
@given(_cli_runs())
def test_cli_exits_with_a_documented_code_and_no_warning(run_spec):
    argv, files = run_spec
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [arg.replace(_DIR, tmp) for arg in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
    assert code in range(5), stderr.getvalue()
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# cold processes: per-command imports, the cyclic collector and the BLAS thread count


def _loaded_loccgate_modules(importtime_stderr: str) -> set[str]:
    # -X importtime lines read "import time: self [us] | cumulative | imported package"
    lines = (line for line in importtime_stderr.splitlines() if line.startswith("import time:"))
    return {name for line in lines if (name := line.rsplit("|", 1)[-1].strip()).startswith("loccgate")}


def test_cold_check_and_verify_protocol_load_neither_zoo_nor_sweeps(tmp_path, bell_file):
    from loccgate import UsdParams, usd_channel

    b1 = math.sqrt(1 - 0.16)
    boundary = {  # each built-in protocol against the channel it implements
        "domino": (domino_three_round_protocol(0.3, 0.5, 0.7),
                   rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7)))),
        "usd": (usd_oneway_protocol(0.4, b1),
                usd_channel(UsdParams(0.4, b1, 0.0, 1.0), allow_alpha3_zero=True)),
    }
    runs = [(["check", "--channel", str(bell_file)],
             lambda doc: doc["verdict"] == "NOT_LOCC" and abs(doc["lambda_hat"] - 1.0) < 1e-9)]
    for name, (protocol, target) in boundary.items():
        save_protocol(protocol, tmp_path / f"{name}-protocol.json")
        save_channel(target, tmp_path / f"{name}.json")
        argv = ["verify-protocol", "--protocol", str(tmp_path / f"{name}-protocol.json"),
                "--channel", str(tmp_path / f"{name}.json")]
        runs.append((argv, lambda doc: doc["ok"] is True and doc["choi_distance"] < 1e-9))
    for argv, right in runs:
        proc = _cli_process(argv, PYTHONPROFILEIMPORTTIME="1")
        assert proc.returncode == 0, proc.stderr
        assert right(json.loads(proc.stdout)), proc.stdout
        loaded = _loaded_loccgate_modules(proc.stderr)
        assert {"loccgate", "loccgate.gate", "loccgate.serialize", "loccgate.protocols"} <= loaded
        assert loaded.isdisjoint({"loccgate.zoo", "loccgate.sweeps"}), argv[0]


def test_cold_zoo_protocol_and_sweep_write_what_main_writes(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "usd", "samples": 1, "seed": 1}))
    for argv in (["zoo", "domino"], ["protocol", "usd-oneway"], ["sweep", "--config", str(config)]):
        warm, cold = tmp_path / "warm.out", tmp_path / "cold.out"
        assert run(capsys, [*argv, "--out", str(warm)])[0] == 0
        proc = _cli_process([*argv, "--out", str(cold)])
        assert proc.returncode == 0, proc.stderr
        assert cold.read_bytes() == warm.read_bytes(), argv[0]


def test_cold_process_freezes_the_import_heap_and_collects_while_the_command_runs(bell_file):
    # the gate records the collector's state; cli binds gate_channel when it runs as __main__
    script = """
import gc, runpy, sys
import loccgate.gate

seen = []
gate_channel = loccgate.gate.gate_channel

def probe(*args, **kwargs):
    seen.append((gc.isenabled(), gc.get_freeze_count() > 0))
    return gate_channel(*args, **kwargs)

loccgate.gate.gate_channel = probe
try:
    runpy.run_module("loccgate.cli", run_name="__main__")
finally:
    print(seen, file=sys.stderr)
"""
    proc = _cli_process(["check", "--channel", str(bell_file)], python=("-c", script))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "NOT_LOCC"
    assert proc.stderr.splitlines()[-1] == "[(True, True)]"


def test_main_in_process_leaves_the_collector_as_it_found_it(capsys, bell_file):
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(capsys, ["check", "--channel", str(bell_file)])[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_UNSET_BLAS_THREADS = dict.fromkeys(_BLAS_THREAD_VARIABLES)  # _cli_process removes each

# runs the CLI as __main__ in a process where nothing has loaded numpy, then reports on stderr
# what it saw and the thread count OpenBLAS reports, found as bench/run.py::blas_info finds it
_BLAS_CHILD = """
import ctypes, json, os, runpy, sys

numpy_before = "numpy" in sys.modules
try:
    runpy.run_module("loccgate.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
threads = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    getters = [g for path in paths for s in symbols if (g := getattr(ctypes.CDLL(path), s, None))]
    if getters:
        getters[0].restype = ctypes.c_int
        threads = getters[0]()
names = %r
print(json.dumps({"code": code, "numpy_before": numpy_before, "threads": threads,
                  "env": {name: os.environ.get(name) for name in names}}), file=sys.stderr)
""" % (_BLAS_THREAD_VARIABLES,)


def _blas_report(bell_file, **env) -> dict:
    argv = ["check", "--channel", str(bell_file)]
    proc = _cli_process(argv, python=("-c", _BLAS_CHILD), **{**_UNSET_BLAS_THREADS, **env})
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0 and not report["numpy_before"], proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "NOT_LOCC"
    return report


def test_cold_process_runs_blas_on_one_thread_by_default(bell_file):
    report = _blas_report(bell_file)
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    assert report["threads"] in (None, 1)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its threads at the CPU count")
def test_cold_process_keeps_a_thread_count_the_user_set(bell_file):
    report = _blas_report(bell_file, OMP_NUM_THREADS="2")
    assert report["env"] == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}
    assert report["threads"] in (None, 2)


def test_main_and_import_leave_the_environment_as_they_found_it(capsys, monkeypatch, bell_file):
    for name in _BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert run(capsys, ["check", "--channel", str(bell_file)])[0] == 0
    assert dict(os.environ) == before
    script = "import os; before = dict(os.environ); import loccgate.cli; print(dict(os.environ) == before)"
    proc = _cli_process([], python=("-c", script), **_UNSET_BLAS_THREADS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_cold_check_prints_what_main_prints(capsys, tmp_path):
    for name, channel in (("bell", bell_channel()), ("domino", domino_channel())):
        path = tmp_path / f"{name}.json"
        save_channel(channel, path)
        argv = ["check", "--channel", str(path)]
        code, out, _ = run(capsys, argv)
        proc = _cli_process(argv, **_UNSET_BLAS_THREADS)
        assert code == proc.returncode == 0, proc.stderr
        assert proc.stdout == out, name
