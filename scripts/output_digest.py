#!/usr/bin/env python3
"""Print one sha256 per gate output, to check that a change leaves every output byte-identical.

The outputs are the desk-scale figure CSVs of run_figure_sweeps.py at master
seeds 1, 7 and 511, and the verdict JSON (``gate_channel(...).to_dict()``)
of the bell and domino channels, of five large random-unitary channels at
seeds 1 and 2, of two seeded measurements whose Kraus operators share
output rows in some pairs only, of a local channel A (x) I_64 and of a
Kraus-rank-one local unitary U (x) I_16, and the exit code and stdout of cold
``python -m loccgate.cli`` processes running the benchmark's cli commands.
--full-scale adds the three full-scale figure CSVs at the default master
seed.  Run it before and after a change and diff the output:

    PYTHONPATH=src python scripts/output_digest.py [--full-scale]

Some verdict digests depend on the BLAS thread count: OpenBLAS's eigensolver
rounds differently on one thread and on two for the larger Grams, so compare
digests only on one machine with one thread setting.  The cold CLI processes run
on one thread unless a BLAS thread count is set.  The numpy version, BLAS
library, OPENBLAS_NUM_THREADS and CPU count are printed as one line to stderr.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import loccgate
from loccgate import (
    KrausChannel,
    RotatedDominoParams,
    UsdParams,
    bell_channel,
    domino_channel,
    domino_three_round_protocol,
    gate_channel,
    gate_channels,
    haar_unitary,
    random_unitary_channel,
    rotated_domino_channel,
    sample_rng,
    usd_channel,
    usd_oneway_protocol,
    write_csv_atomic,
)
from loccgate.serialize import save_channel, save_protocol
from run_figure_sweeps import figure_configs, figure_table

DESK_SEEDS = (1, 7, 511)
VERDICT_SEEDS = (1, 2)
# The heavy cases of bench/workloads.py: (name, party dims, N_u), channel i at a seed
# drawn from sample_rng(seed, i)
LARGE_CASES = (
    ("ru2x2x2_8", (2, 2, 2), 8),
    ("ru3x3_11", (3, 3), 11),
    ("ru2x2x2_12", (2, 2, 2), 12),
    ("ru4x4_18", (4, 4), 18),
    ("ru2x2x2x2_20", (2, 2, 2, 2), 20),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def figure_digests(outdir: Path, label: str, samples: int, seeds: int, seed: int):
    for filename, configs in figure_configs(samples, seeds, seed).items():
        write_csv_atomic(outdir / filename, *figure_table(configs))
        yield sha256((outdir / filename).read_bytes()), f"{label}/{filename}"


def verdict_digest(channel) -> str:
    return sha256(json.dumps(gate_channel(channel).to_dict()).encode())


def flagged_measurement(rng) -> KrausChannel:
    """16-outcome rank-one measurement on 4x4 in a Haar basis that writes outcome k to a flag:
    K_k = |k> (x) |phi_k><phi_k|, so no two Kraus operators share an output row."""
    phi = haar_unitary(16, rng)
    kraus = np.zeros((16, 16 * 16, 16), dtype=complex)
    for k in range(16):
        kraus[k, 16 * k : 16 * k + 16] = np.outer(phi[:, k], phi[:, k].conj())
    return KrausChannel("flagged-measurement", (4, 4), 16 * 16, kraus)


def chained_flags(rng) -> KrausChannel:
    """Three Kraus operators on 2x3, each half of four Haar unitaries U_k: K_0 = |0> (x) U_0,
    K_1 = |0> (x) U_1 + |1> (x) U_2 and K_2 = |1> (x) U_3, so K_0 and K_2 share no output row."""
    u = 0.5 * np.stack([haar_unitary(6, rng) for _ in range(4)])
    kraus = np.zeros((3, 12, 6), dtype=complex)
    kraus[0, :6], kraus[1, :6], kraus[1, 6:], kraus[2, 6:] = u
    return KrausChannel("chained-flags", (2, 3), 12, kraus)


def local_channel(rng, d_b: int) -> KrausChannel:
    """K_i = A_i (x) I_{d_b} on 2 x d_b for a random two-operator qubit channel A (the QR factor of
    a 4 x 2 complex Gaussian): LOCC without communication, and a lone scan over long products
    whose entries are exactly zero off a sparse pattern."""
    a = np.linalg.qr(rng.normal(size=(4, 2, 2)).view(complex)[..., 0])[0]
    kraus = np.stack([np.kron(a_i, np.eye(d_b)) for a_i in a.reshape(2, 2, 2)])
    return KrausChannel("local", (2, d_b), 2 * d_b, kraus)


def local_unitary(rng, d_b: int) -> KrausChannel:
    """The single Kraus operator U (x) I_{d_b} on 2 x d_b for a Haar qubit unitary U: Kraus rank
    one, and a product across the cut."""
    return KrausChannel("local-unitary", (2, d_b), 2 * d_b, (np.kron(haar_unitary(2, rng), np.eye(d_b)),))


def flagged(ops_and_weights) -> np.ndarray:
    """Kraus operators of a two-qubit channel that applies op_k with weight w_k and writes k to a flag."""
    kraus = np.zeros((len(ops_and_weights), 4 * len(ops_and_weights), 4), dtype=complex)
    for k, (op, weight) in enumerate(ops_and_weights):
        kraus[k, 4 * k : 4 * k + 4] = np.sqrt(weight) * op
    return kraus


def mixed_survivors(rng) -> list[KrausChannel]:
    """Four 2x2 channels of three 12 x 4 Kraus operators that keep 9, 5, 3 and 3 of their 9 pair
    products: three Haar unitaries zero-padded to 12 rows; the same unitaries, the first on a
    flag of its own; a flagged measurement in a Haar basis; and a flagged coin."""
    u = random_unitary_channel((2, 2), 3, rng).kraus
    padded_unitary = np.zeros((3, 12, 4), dtype=complex)
    padded_unitary[:, :4] = u
    two_flags = np.zeros((3, 12, 4), dtype=complex)  # only K_1^dag K_2 survives of the cross terms
    two_flags[0, :4] = np.sqrt(1.5) * u[0]  # weights 1/2, 1/4 and 1/4
    two_flags[1:, 4:8] = np.sqrt(0.75) * u[1:]
    q = haar_unitary(4, rng)
    proj = [np.outer(q[:, i], q[:, i].conj()) for i in range(4)]
    measure = flagged([(proj[0], 1.0), (proj[1], 1.0), (proj[2] + proj[3], 1.0)])
    coin = flagged([(np.eye(4), 0.2), (np.eye(4), 0.3), (np.eye(4), 0.5)])
    return [KrausChannel("mixed-survivors", (2, 2), 12, k) for k in (padded_unitary, two_flags, measure, coin)]


def cli_digests(outdir: Path):
    """One digest of exit code and stdout per cold CLI process, over the cli workload's commands.

    ``check`` on bell, domino and a seeded 2x2x2 channel of 8 unitaries, and
    ``verify-protocol`` for each built-in protocol against the boundary
    channel it implements.
    """
    b1 = math.sqrt(1.0 - 0.4**2)
    channels = {
        "bell": bell_channel(),
        "domino": domino_channel(),
        "ru2x2x2_8": random_unitary_channel((2, 2, 2), 8, sample_rng(1, 0)),
        "domino_theta1_zero": rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7))),
        "usd_alpha3_zero": usd_channel(UsdParams(0.4, b1, 0.0, 1.0), allow_alpha3_zero=True),
    }
    for name, channel in channels.items():
        save_channel(channel, outdir / f"{name}.json")
    save_protocol(domino_three_round_protocol(0.3, 0.5, 0.7), outdir / "domino_three_round.json")
    save_protocol(usd_oneway_protocol(0.4, b1), outdir / "usd_oneway.json")
    commands = {name: ["check", "--channel", f"{name}.json"] for name in ("bell", "domino", "ru2x2x2_8")}
    for protocol, target in (("domino_three_round", "domino_theta1_zero"), ("usd_oneway", "usd_alpha3_zero")):
        argv = ["verify-protocol", "--protocol", f"{protocol}.json", "--channel", f"{target}.json"]
        commands[f"verify_{protocol}"] = argv
    src = str(Path(loccgate.__file__).resolve().parents[1])  # the loccgate this script imported
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, argv in commands.items():
        cmd = [sys.executable, "-m", "loccgate.cli", *argv]
        proc = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True, timeout=120)
        yield sha256(f"{proc.returncode}\n".encode() + proc.stdout), f"cli/{name}"


def environment() -> str:
    """The settings the digests depend on beyond the source: numpy, its BLAS and the BLAS thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={threads}, {os.cpu_count()} CPUs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full-scale", action="store_true", help="add the full-scale figure CSVs")
    args = parser.parse_args()
    print(environment(), file=sys.stderr)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in DESK_SEEDS:
            lines += figure_digests(Path(tmp), f"desk-seed{seed}", 200, 20, seed)
        if args.full_scale:
            lines += figure_digests(Path(tmp), "full-scale", 10000, 100, 20240)
        lines += cli_digests(Path(tmp))
    lines.append((verdict_digest(bell_channel()), "bell.json"))
    lines.append((verdict_digest(domino_channel()), "domino.json"))
    for name, channel in (("flagged_measurement_4x4", flagged_measurement(np.random.default_rng(19))),
                          ("chained_flags_2x3", chained_flags(np.random.default_rng(23))),
                          ("local_2x64_seed5", local_channel(np.random.default_rng(5), 64)),
                          ("local_unitary_2x16_seed5", local_unitary(np.random.default_rng(5), 16))):
        lines.append((verdict_digest(channel), f"{name}.json"))
    mixed = [*mixed_survivors(np.random.default_rng(43)), *mixed_survivors(np.random.default_rng(47))]
    verdicts = [verdict.to_dict() for verdict in gate_channels(mixed)]
    lines.append((sha256(json.dumps(verdicts).encode()), "mixed_survivors_2x2.json"))
    for seed in VERDICT_SEEDS:
        for i, (name, dims, nu) in enumerate(LARGE_CASES):
            channel = random_unitary_channel(dims, nu, sample_rng(seed, i))
            lines.append((verdict_digest(channel), f"seed{seed}/{name}.json"))
    for digest, label in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
