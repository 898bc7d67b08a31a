"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Sample counts are the full-scale experiments divided down to desk scale; every
qualitative claim is preserved.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
from scipy.stats import spearmanr

from loccgate import (
    KrausChannel,
    RotatedDominoParams,
    UsdParams,
    VERDICT_DEGENERATE_KRAUS_RANK_ONE,
    VERDICT_NOT_LOCC,
    bell_channel,
    domino_channel,
    domino_three_round_protocol,
    gate_channel,
    haar_unitary,
    random_unitary_channel,
    rotated_domino_channel,
    run_sweep,
    sample_usd_params,
    usd_channel,
    usd_oneway_protocol,
    verify_protocol,
)
from loccgate.sweeps import SweepConfig, sample_rng
from oracle import (
    augmented_spectrum,
    check_completeness,
    gate_grams,
    lifted_spectrum,
    operator_basis,
    recombined_basis,
    remix_kraus,
    usd_states,
)

QUARTER_PI = math.pi / 4


class Criterion:
    """Collects check failures and prints one PASS/FAIL line at the end."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.budget_s
        ok = not self.failures and in_budget
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.number:2d} ({elapsed:7.2f}s): {self.description}")
        assert not self.failures, f"criterion {self.number}: " + "; ".join(self.failures[:5])
        assert in_budget, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.1f}s > {self.budget_s}s"
        )


def test_criterion_01_bell_lambda_one():
    crit = Criterion(1, "Bell channel: NOT_LOCC with lambda_hat = 1", budget_s=1.0)
    verdict = gate_channel(bell_channel())
    crit.check(verdict.verdict == VERDICT_NOT_LOCC, f"verdict {verdict.verdict}")
    crit.check(
        abs(verdict.lambda_hat - 1.0) < 1e-9, f"lambda_hat {verdict.lambda_hat!r} not 1 within 1e-9"
    )
    crit.finish()


def test_criterion_02_domino_lambda_one_sixth():
    crit = Criterion(2, "domino channel: NOT_LOCC with lambda_hat = 1/6", budget_s=10.0)
    verdict = gate_channel(domino_channel())
    crit.check(verdict.verdict == VERDICT_NOT_LOCC, f"verdict {verdict.verdict}")
    crit.check(
        abs(verdict.lambda_hat - 1.0 / 6.0) < 1e-6,
        f"lambda_hat {verdict.lambda_hat!r} not 1/6 within 1e-6",
    )
    crit.check(
        all(r.nullspace_dim == 0 for r in verdict.reports),
        "some party has a nonempty nullspace",
    )
    crit.finish()


def test_criterion_03_rotated_domino_sweep():
    crit = Criterion(
        3,
        "rotated domino sweep: 200 samples all NOT_LOCC, lambda_hat tracks theta_min",
        budget_s=300.0,
    )
    cfg = SweepConfig(family="rotated_domino", samples=200, seed=2024)
    header, rows = run_sweep(cfg)
    rows = list(rows)
    i_theta_min = header.index("theta_min")
    i_lambda = header.index("lambda_hat")
    i_verdict = header.index("verdict")
    crit.check(len(rows) == 200, f"expected 200 rows, got {len(rows)}")
    crit.check(
        all(row[i_verdict] == VERDICT_NOT_LOCC for row in rows),
        "some sample was not certified NOT_LOCC",
    )
    crit.check(all(row[i_lambda] > 0 for row in rows), "some lambda_hat row is not positive")
    rho, _ = spearmanr([row[i_theta_min] for row in rows], [row[i_lambda] for row in rows])
    crit.check(rho > 0.5, f"Spearman correlation {rho:.3f} <= 0.5")
    on_ray = [
        gate_channel(
            rotated_domino_channel(RotatedDominoParams((t, QUARTER_PI, QUARTER_PI, QUARTER_PI)))
        ).lambda_hat
        for t in (0.01, 0.3)
    ]
    crit.check(on_ray[0] < on_ray[1], f"ray check failed: {on_ray}")
    crit.finish()


def test_criterion_04_domino_protocol_verification():
    crit = Criterion(
        4,
        "three-round protocol reproduces the unrotated-pair domino channel",
        budget_s=30.0,
    )
    rng = np.random.default_rng(404)
    for _ in range(10):
        t2, t3, t4 = rng.uniform(0.0, QUARTER_PI, size=3)
        tree = domino_three_round_protocol(t2, t3, t4)
        target = rotated_domino_channel(RotatedDominoParams((0.0, t2, t3, t4)))
        ok, dist = verify_protocol(tree, target)
        crit.check(ok and dist < 1e-9, f"angles {(t2, t3, t4)}: distance {dist:.3e}")
    crit.finish()


def _transition_case(crit, dims, seeds):
    total = math.prod(dims)
    for nu in range(2, total + 3):
        for seed in range(seeds):
            rng = np.random.default_rng((515, len(dims), nu, seed))
            verdict = gate_channel(random_unitary_channel(dims, nu, rng))
            ratios = [r.ratio for r in verdict.reports]
            tag = f"dims {dims} nu={nu} seed={seed}"
            if nu < total:
                crit.check(
                    verdict.verdict == VERDICT_NOT_LOCC, f"{tag}: verdict {verdict.verdict}"
                )
                crit.check(
                    verdict.lambda_hat >= 1e-4,
                    f"{tag}: lambda_hat {verdict.lambda_hat:.3e} < 1e-4",
                )
            elif nu > total:
                crit.check(
                    min(ratios) < 1e-12, f"{tag}: min ratio {min(ratios):.3e} not < 1e-12"
                )
            elif dims == (2, 3):
                # at nu = D the qubit side stays blocked, the qutrit side opens
                crit.check(ratios[0] >= 1e-6, f"{tag}: qubit ratio {ratios[0]:.3e} < 1e-6")
                crit.check(ratios[1] < 1e-12, f"{tag}: qutrit ratio {ratios[1]:.3e} not < 1e-12")


def test_criterion_05_random_unitary_transition():
    crit = Criterion(
        5,
        "random-unitary transition at N_u = D for [2,2] and [2,3], 20 seeds each",
        budget_s=600.0,
    )
    _transition_case(crit, (2, 2), seeds=20)
    _transition_case(crit, (2, 3), seeds=20)
    crit.finish()


def test_criterion_06_three_qubit_spot_check():
    crit = Criterion(
        6, "three qubits, N_u = 8: every party blocked with lambda_hat >= 1e-5", budget_s=600.0
    )
    for seed in range(10):
        rng = np.random.default_rng((606, seed))
        verdict = gate_channel(random_unitary_channel((2, 2, 2), 8, rng))
        crit.check(
            verdict.verdict == VERDICT_NOT_LOCC, f"seed {seed}: verdict {verdict.verdict}"
        )
        crit.check(
            verdict.lambda_hat >= 1e-5,
            f"seed {seed}: lambda_hat {verdict.lambda_hat:.3e} < 1e-5",
        )
    crit.finish()


def test_criterion_07_usd_family():
    crit = Criterion(
        7,
        "USD family: 200 instances complete, unambiguous, NOT_LOCC; limit trend",
        budget_s=300.0,
    )
    for index in range(200):
        params = sample_usd_params(sample_rng(707, index))
        channel = usd_channel(params)
        tag = f"instance {index}"
        residual = check_completeness(channel)
        crit.check(residual < 1e-9, f"{tag}: completeness residual {residual:.3e}")
        states = usd_states(params)
        for n in range(4):
            for j in range(4):
                if j != n:
                    overlap = float(np.max(np.abs(channel.kraus[n] @ states[j])))
                    crit.check(
                        overlap < 1e-10, f"{tag}: K_{n + 1}|Phi_{j + 1}| = {overlap:.3e}"
                    )
        verdict = gate_channel(channel)
        crit.check(verdict.verdict == VERDICT_NOT_LOCC, f"{tag}: verdict {verdict.verdict}")
    near = gate_channel(
        usd_channel(
            UsdParams(0.4, math.sqrt(1 - 0.16), 1e-3, math.sqrt(1 - 1e-6))
        )
    ).lambda_hat
    far = gate_channel(
        usd_channel(UsdParams(0.4, math.sqrt(1 - 0.16), 0.5, math.sqrt(0.75)))
    ).lambda_hat
    crit.check(near < far, f"limit trend failed: lambda_hat {near:.3e} !< {far:.3e}")
    crit.finish()


def test_criterion_08_usd_oneway_protocol():
    crit = Criterion(
        8, "one-way protocol matches the conclusive-limit USD channel", budget_s=10.0
    )
    a1 = 0.4
    b1 = math.sqrt(1 - a1 * a1)
    tree = usd_oneway_protocol(a1, b1)
    target = usd_channel(UsdParams(a1, b1, 0.0, 1.0), allow_alpha3_zero=True)
    ok, dist = verify_protocol(tree, target)
    crit.check(ok and dist < 1e-9, f"choi distance {dist:.3e}")
    crit.finish()


def test_criterion_09_invariance_suite():
    crit = Criterion(
        9,
        "remixes keep nullspace dims; basis recombinations keep the Q^dag Q spectrum",
        budget_s=600.0,
    )
    rng = np.random.default_rng(909)
    zoo = [
        bell_channel(),
        domino_channel(),
        rotated_domino_channel(RotatedDominoParams((0.3, 0.5, 0.2, 0.7))),
        random_unitary_channel((2, 2), 3, np.random.default_rng(91)),
        usd_channel(sample_usd_params(np.random.default_rng(92))),
    ]
    for channel in zoo:
        baseline = [r.nullspace_dim for r in gate_channel(channel).reports]
        for i in range(10):
            size = channel.n_kraus + (2 if i % 2 else 0)  # every other remix zero-pads
            remixed = remix_kraus(channel, haar_unitary(size, rng))
            dims = [r.nullspace_dim for r in gate_channel(remixed).reports]
            crit.check(
                dims == baseline,
                f"{channel.name}: remix {i} changed nullspace dims {baseline} -> {dims}",
            )
        _, party_grams = gate_grams(channel)
        for p in range(channel.n_parties):
            d_party = channel.input_dims[p]
            d_rest = channel.dim // d_party
            plain = (operator_basis(d_party), operator_basis(d_rest))
            # the gate's closed-form Gram, its identity eigenvalue lifted, against Q_aug built from explicit bases
            reference = lifted_spectrum(party_grams[p])
            scale = max(reference[-1], 1e-30)
            for _ in range(5):
                bases = (recombined_basis(plain[0], rng), recombined_basis(plain[1], rng))
                spectrum = augmented_spectrum(channel, p, bases)
                drift = float(np.max(np.abs(spectrum - reference)))
                crit.check(
                    drift < 1e-9 * scale,
                    f"{channel.name} party {p}: spectrum drift {drift:.3e}",
                )
    crit.finish()


def test_criterion_10_degenerate_guard():
    crit = Criterion(
        10,
        "Kraus-rank-1 channels classified by product form, never NOT_LOCC",
        budget_s=60.0,
    )
    rng = np.random.default_rng(1010)
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    cases = [
        ("identity", np.eye(4, dtype=complex), True),
        ("product-unitary", np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), True),
        ("swap", swap, False),
    ]
    for name, op, local in cases:
        channel = KrausChannel(name, (2, 2), 4, (op,))
        # the same channel as three operators: the guard must not depend on the Kraus list
        remixed = remix_kraus(channel, haar_unitary(3, rng))
        for label, ch in ((name, channel), (f"remixed {name}", remixed)):
            verdict = gate_channel(ch)
            crit.check(
                verdict.verdict == VERDICT_DEGENERATE_KRAUS_RANK_ONE and verdict.local is local,
                f"{label}: {verdict.verdict} local={verdict.local}",
            )
    crit.finish()
