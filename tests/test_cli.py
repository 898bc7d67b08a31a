import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loccgate
from loccgate import bell_channel
from loccgate.cli import main
from loccgate.serialize import channel_to_dict, save_channel


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


def test_sweep_rejects_bad_config(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "nope", "samples": 2, "seed": 9}))
    code, _, err = run(capsys, ["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "parse failure" in err


# ---------------------------------------------------------------------------
# protocol + verify-protocol


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


def test_verify_protocol_mismatch_exit_1(capsys, tmp_path, bell_file):
    proto = tmp_path / "oneway.json"
    run(capsys, ["protocol", "usd-oneway", "--alpha1", "0.4", "--out", str(proto)])
    # 2x2 -> 5 protocol against the 2x2 -> 4 Bell channel: dimension error
    code, _, err = run(
        capsys, ["verify-protocol", "--protocol", str(proto), "--channel", str(bell_file)]
    )
    assert code == 3
    assert "dimension" in err


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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_one_party_channel, 3),
        (lambda tmp_path: _sweep(tmp_path, eta1=0.6), 2),  # infeasible priors
        (lambda tmp_path: _sweep(tmp_path, eta1=1e-6, eta3=0.999), 2),  # sampler gives up
        (lambda tmp_path: _sweep(tmp_path, dims=["a"]), 2),
        (lambda tmp_path: _sweep(tmp_path, rel_tol="x"), 2),
        (_deep_protocol, 2),
        (_near_complete_channel, 4),
        (lambda tmp_path: ["zoo", "bell", "--out", str(tmp_path / "missing" / "bell.json")], 2),
        (lambda tmp_path: ["protocol", "usd-oneway", "--out", str(tmp_path / "missing" / "p.json")], 2),
        (lambda tmp_path: _sweep(tmp_path, out="missing/o.csv"), 2),
        (lambda tmp_path: _random_unitary_zoo(tmp_path, "inf,2"), 2),
        (lambda tmp_path: _random_unitary_zoo(tmp_path, "2.7,2"), 2),
    ],
    ids=[
        "one-party-check",
        "usd-infeasible-priors",
        "usd-sampler-gives-up",
        "sweep-non-integer-dims",
        "sweep-non-real-rel-tol",
        "deep-protocol",
        "near-complete-identity-outside-span",
        "zoo-out-in-missing-dir",
        "protocol-out-in-missing-dir",
        "sweep-out-in-missing-dir",
        "zoo-infinite-dims",
        "zoo-fractional-dims",
    ],
)
def test_bad_input_exits_with_documented_code(tmp_path, argv, expected):
    src = Path(loccgate.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "loccgate.cli", *argv(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
