import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loccgate import (
    KrausChannel,
    RotatedDominoParams,
    VERDICT_DEGENERATE_IDENTITY_SPAN,
    VERDICT_DEGENERATE_KRAUS_RANK_ONE,
    VERDICT_FIRST_MOVE_CANDIDATES,
    VERDICT_NOT_LOCC,
    bell_channel,
    domino_channel,
    domino_three_round_protocol,
    gate_channel,
    haar_unitary,
    protocol_to_channel,
    random_unitary_channel,
    rotated_domino_channel,
    run_sweep,
    sample_usd_params,
    select_independent_subset,
    usd_channel,
    usd_oneway_protocol,
)
from loccgate.channels import CompletenessError, DimensionError, kraus_ranks
from loccgate import gate
from loccgate.gate import (
    _gate_stack,
    _verdicts,
    gate_channels,
    valid_rel_tol,
)
from loccgate.linalg import _nullity, nonzero_vectors
from loccgate.zoo import QUARTER_PI, random_unitary_kraus, rotated_domino_kraus
from oracle import (
    HEAVY_IDS,
    HEAVY_SHAPES,
    LOCC_TREE_DIMS,
    LOCC_TREE_DRAWS,
    augmented_q,
    hermitian_eigenvalues,
    augmented_spectrum,
    build_q,
    char_poly,
    desk_figure_configs,
    exact_bell_kraus,
    exact_cayley_isometry,
    exact_nullities,
    exact_one_way_kraus,
    exact_party_grams,
    exact_projectors,
    exact_random_kraus,
    exact_rank,
    exact_rotated_domino_kraus,
    gate_grams,
    gate_products,
    gram_error_to_bound,
    identity_coefficients,
    lifted_spectrum,
    operator_basis,
    pair_products,
    party_products,
    per_pair_products,
    q_matrix,
    random_locc_tree,
    recombined_basis,
    remix_kraus,
    rounded_channel,
    same_bits,
    stacked_pair_products,
    traced_peak,
)


def identity_channel(dims=(2, 2)) -> KrausChannel:
    total = int(np.prod(dims))
    return KrausChannel("identity", tuple(dims), total, (np.eye(total, dtype=complex),))


def gate_internals(channel, party, products=None, bases=None, rel_tol=1e-13):
    """Explicit augmented Q and its nullspace data for a product ordering."""
    q_aug, subset = augmented_q(channel, party, bases, products)
    nullity, eig_min, eig_max = _nullity(np.linalg.eigvalsh(q_aug.conj().T @ q_aug), rel_tol, 0.0)
    return q_aug, subset, nullity, eig_min, eig_max


def gate_spectrum(channel, party):
    """Ascending eigenvalues of Q_aug^dag Q_aug for one party as the gate reads them: the lifted
    spectrum of the Gram it solves."""
    return lifted_spectrum(gate_grams(channel)[1][party])


# ---------------------------------------------------------------------------
# pair products


def test_pair_products_bell_orthogonality(bell):
    products = pair_products(bell)
    assert len(products) == 16
    zero_count = sum(1 for p in products if np.max(np.abs(p)) < 1e-12)
    assert zero_count == 12
    for i in (0, 5, 10, 15):  # diagonal pairs are the projectors themselves
        assert np.max(np.abs(products[i])) > 0.4


def test_pair_products_identity_channel():
    products = pair_products(identity_channel())
    assert len(products) == 1
    assert np.allclose(products[0], np.eye(4), atol=1e-14)


def rectangular_output_channel(rng) -> KrausChannel:
    """Three 2 x 4 Kraus operators cut from one random 6 x 4 isometry."""
    isometry = haar_unitary(6, rng)[:, :4]
    return KrausChannel("rectangular", (2, 2), 2, tuple(isometry.reshape(3, 2, 4)))


def test_pair_products_adjoint_symmetry(zoo_channels, dephasing):
    # bit for bit: P_ji == P_ij^dag, and so P_ii exactly Hermitian, alone and stacked
    rng = np.random.default_rng(29)
    stacks = [[c] for c in (*zoo_channels, dephasing, rectangular_output_channel(rng))]
    stacks += [
        [random_unitary_channel(dims, nu, rng) for _ in range(3)]
        for dims, nu in (((2, 2), 5), ((2, 3), 7), ((3, 3), 10), ((2, 2, 2), 9))
    ]
    for stack in stacks:
        n = stack[0].n_kraus
        alone = [pair_products(c) for c in stack]
        stacked = stacked_pair_products(np.stack([c.kraus for c in stack]))
        for products in (*alone, *stacked):
            for i in range(n):
                for j in range(n):
                    assert np.array_equal(products[i * n + j].conj().T, products[j * n + i])


def test_stacked_pair_products_equal_the_per_pair_reference_bit_for_bit(zoo_channels, dephasing):
    # one GEMM per Kraus operator forms each product with the bits of one GEMM per pair
    rng = np.random.default_rng(53)
    channels = (*zoo_channels, dephasing, rectangular_output_channel(rng))
    for channel in channels:
        assert same_bits(pair_products(channel), per_pair_products(channel.kraus[None])[0])
    stacks = [np.stack([c.kraus, 0.5j * c.kraus]) for c in channels]
    for d_out, d, n in itertools.product((1, 3, 4, 6, 9, 16), (2, 4, 6, 8, 9, 16), (1, 2, 5, 13)):
        stacks.append(rng.normal(size=(2, n, d_out, d)) + 1j * rng.normal(size=(2, n, d_out, d)))
    for kraus in stacks:
        assert same_bits(stacked_pair_products(kraus), per_pair_products(kraus))


# ---------------------------------------------------------------------------
# Q matrix and the identity coefficient vector


def test_build_q_identity_channel_is_zero_column():
    for party in (0, 1):
        q, subset = build_q(identity_channel(), party)
        assert q.shape == (12, 1)
        assert np.max(np.abs(q)) < 1e-14
        assert subset.indices == [0]


def test_build_q_bell_three_sign_rows(bell):
    q, subset = build_q(bell, 0)
    assert subset.indices == [0, 5, 10, 15]
    assert q.shape == (12, 4)
    nonzero = [row for row in q if np.linalg.norm(row) > 1e-12]
    assert len(nonzero) == 3
    expected = {
        (1, -1, 1, -1),
        (-1, 1, 1, -1),
        (1, 1, -1, -1),
    }
    for row in nonzero:
        assert np.max(np.abs(row.imag)) < 1e-12
        doubled = tuple(np.round(2 * row.real).astype(int))
        flipped = tuple(-x for x in doubled)
        assert doubled in expected or flipped in expected
        assert np.allclose(np.abs(row), 0.5, atol=1e-12)
    # rows are mutually orthogonal
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(np.vdot(nonzero[i], nonzero[j])) < 1e-12


def test_build_q_dephasing_zero_for_alice_nonzero_for_bob(dephasing):
    q_alice, subset = build_q(dephasing, 0)
    assert len(subset.indices) == 2
    assert np.max(np.abs(q_alice)) < 1e-12
    q_bob, _ = build_q(dephasing, 1)
    assert np.max(np.abs(q_bob)) > 0.1


# ---------------------------------------------------------------------------
# per-party gate


def test_gate_party_bell(bell):
    for party in (0, 1):
        report = gate_channel(bell).reports[party]
        assert report.nullspace_dim == 0
        assert not report.can_measure_first
        assert abs(report.ratio - 1.0) < 1e-9
        assert report.pair_count == 4
        assert report.q_rows == 13


def test_gate_party_dephasing(dephasing):
    alice = gate_channel(dephasing).reports[0]
    assert alice.nullspace_dim == 1
    assert alice.can_measure_first
    bob = gate_channel(dephasing).reports[1]
    assert bob.nullspace_dim == 0
    assert not bob.can_measure_first
    # the nullspace direction for Alice is (1,-1)/sqrt(2)
    q_aug, *_ = gate_internals(dephasing, 0)
    v = np.array([1, -1]) / np.sqrt(2)
    assert np.linalg.norm(q_aug @ v) < 1e-12


def test_gate_party_identity_channel():
    for party in (0, 1):
        report = gate_channel(identity_channel()).reports[party]
        assert report.nullspace_dim == 0
        assert report.q_rows == 13
        assert report.pair_count == 1


def test_gate_party_rejects_incomplete_channel():
    broken = KrausChannel("broken", (2, 2), 4, (0.5 * np.eye(4),))
    with pytest.raises(ValueError):
        gate_channel(broken).reports[0]


def test_gate_party_trivial_rest_factor():
    # a party whose complement is one-dimensional leaves no unaugmented rows
    channel = KrausChannel("trivial-rest", (2, 1), 2, (np.eye(2, dtype=complex),))
    report = gate_channel(channel).reports[0]
    assert report.q_rows == 1  # just the identity-coefficient row
    assert report.nullspace_dim == 0
    other = gate_channel(channel).reports[1]
    assert other.q_rows == 1 * 3 + 1


def test_ratio_within_unit_interval(zoo_channels):
    for channel in zoo_channels:
        for party in range(channel.n_parties):
            report = gate_channel(channel).reports[party]
            assert 0.0 <= report.ratio <= 1.0 + 1e-12
            assert report.nullspace_dim <= report.pair_count
            d_party = channel.input_dims[party]
            d_rest = channel.dim // d_party
            assert report.q_rows == d_party**2 * (d_rest**2 - 1) + 1


# ---------------------------------------------------------------------------
# channel-level verdicts


def test_a_negative_zero_eigenvalue_reads_as_a_positive_zero_ratio(monkeypatch, domino):
    # eigvalsh can return -0.0 for an exact null direction; max(-0.0, 0.0) is -0.0, which
    # would print as "-0.0" and make lambda_hat's sign depend on the parties' order
    rule = gate._nullity

    def negative_zero(evals, rel_tol, floor):
        dims, _, eig_max = rule(evals, rel_tol, floor)
        return dims, [-0.0] * len(eig_max), eig_max

    monkeypatch.setattr(gate, "_nullity", negative_zero)
    for verdict in (gate_channel(domino), *gate_channels([domino, domino])):
        assert [math.copysign(1.0, r.ratio) for r in verdict.reports] == [1.0, 1.0]
        assert math.copysign(1.0, verdict.lambda_hat) == 1.0


def test_columns_and_verdicts_agree_on_degenerate_rows_and_negative_zeros(monkeypatch):
    # one (3, 2, 8, 4) stack: a Kraus-rank-one row, an identity-span row (orthogonal output ranges,
    # so each K_i^dag K_j is 0 or I/2) and a generic isometry, with every eig_min read as -0.0.
    # np.maximum(0.0, -0.0) is -0.0, so the clamp must give +0.0 in the columns a sweep writes
    # and in the reports alike, as Python floats
    flags = np.eye(8, 4), np.eye(8, 4, -4)
    rng = np.random.default_rng(3)
    generic = np.linalg.qr(rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)))[0].reshape(2, 8, 4)
    kraus = np.stack([np.stack([flags[0], flags[0]]) / 2**0.5, np.stack(flags) / 2**0.5, generic]).astype(complex)
    rule = gate._nullity

    def negative_zero(evals, rel_tol, floor):
        dims, _, eig_max = rule(evals, rel_tol, floor)
        return dims, [-0.0] * len(eig_max), eig_max

    monkeypatch.setattr(gate, "_nullity", negative_zero)
    columns = _gate_stack(kraus, (2, 2), ["rank one", "identity span", "generic"], 1e-13)
    verdicts = _verdicts(columns, kraus, (2, 2))
    assert np.signbit(columns.eig_min).all() and not np.signbit(columns.ratio).any()
    assert not np.signbit(columns.lambda_hat).any()
    assert [v.verdict for v in verdicts][:2] == columns.verdict.tolist()[:2] == [
        VERDICT_DEGENERATE_KRAUS_RANK_ONE, VERDICT_DEGENERATE_IDENTITY_SPAN]
    assert [v.local for v in verdicts] == [False, None, None]  # the rank-one row is not square
    assert columns.rank.tolist() == [1, 2, 2] and columns.pair_count.tolist()[:2] == [1, 1]
    for b, verdict in enumerate(verdicts):
        ratios = [r.ratio for r in verdict.reports]
        assert list(map(repr, ratios)) == list(map(repr, columns.ratio[:, b].tolist())) == ["0.0", "0.0"]
        assert repr(verdict.lambda_hat) == repr(columns.lambda_hat[b].item()) == "0.0"
        floats = [verdict.lambda_hat, verdict.completeness_residual, *ratios, *(r.eig_max for r in verdict.reports)]
        assert {type(x) for x in floats} == {float}
        assert {type(r.nullspace_dim) for r in verdict.reports} == {int}


def test_gate_channel_bell(bell):
    verdict = gate_channel(bell)
    assert verdict.verdict == VERDICT_NOT_LOCC
    assert abs(verdict.lambda_hat - 1.0) < 1e-9


def test_gate_channel_domino(domino):
    verdict = gate_channel(domino)
    assert verdict.verdict == VERDICT_NOT_LOCC
    assert abs(verdict.lambda_hat - 1.0 / 6.0) < 1e-6


EXACT_CASES = [  # (exact real Kraus operators, the same channel in floating point, exact nullities)
    (exact_bell_kraus(), bell_channel(), [0, 0]),
    (exact_rotated_domino_kraus((1, 1, 1, 1)), domino_channel(), [0, 0]),
    (exact_rotated_domino_kraus((0, 1, 1, 1)),
     rotated_domino_channel(RotatedDominoParams((0.0, QUARTER_PI, QUARTER_PI, QUARTER_PI))), [0, 1]),
    ([np.kron(np.diag(e), np.eye(2, dtype=int)) for e in np.eye(2, dtype=int)],
     KrausChannel("local", (2, 2), 4, [np.kron(np.diag(e), np.eye(2)) for e in np.eye(2)]), [1, 0]),
]


@pytest.mark.parametrize("exact, channel, nullities", EXACT_CASES, ids=["bell", "domino", "rotated-domino-t1-0", "local-2x2"])
def test_the_exact_oracle_gives_the_gates_nullities_and_verdict(exact, channel, nullities):
    # Gaussian elimination over Fraction: Bell and domino's NOT_LOCC holds without floating point
    assert np.abs(np.array(exact, dtype=float) - channel.kraus).max() <= 1e-15  # the same operators
    assert exact_nullities(exact, channel.input_dims) == nullities
    verdict = gate_channel(channel)
    assert [r.nullspace_dim for r in verdict.reports] == nullities
    assert verdict.verdict == (VERDICT_FIRST_MOVE_CANDIDATES if any(nullities) else VERDICT_NOT_LOCC)


def test_the_exact_rank_eliminates_numpy_integers_in_python_ints():
    # in int64 the second row's 3**30 - 3**-30 would need 3**60 in a numerator: an overflow
    rows = [[3**30, 1], [1, 3**30]]
    assert exact_rank(np.array(rows, dtype=np.int64)) == 2
    assert exact_rank(np.array([[3**30, 1], [3**30 + 1, 1]], dtype=np.int64)) == 2
    assert exact_rank([[Fraction(np.int64(x)) for x in row] for row in rows]) == 2
    assert exact_rank([[np.int64(3**30), 1], [2 * np.int64(3**30), 2]]) == 1


def test_the_exact_oracle_multiplies_numpy_integers_in_python_ints():
    # in int64, 3**20 squared wraps to a wrong value and 2**32 squared to 0, both with no warning
    n = 3**40 + 1
    assert exact_projectors([[3**20, 1]])[0].tolist() == [[Fraction(3**40, n), Fraction(3**20, n)],
                                                          [Fraction(3**20, n), Fraction(1, n)]]
    local = [np.kron(np.diag(e), np.eye(2, dtype=np.int64)) for e in np.eye(2, dtype=np.int64)]
    assert exact_nullities([2**32 * k for k in local], (2, 2)) == exact_nullities(local, (2, 2)) == [1, 0]


# (kind, input dims, seed) of random rational channels: generic ones with 3 Kraus operators, whose
# pair products are too few to meet a party's local operators beyond the identity, and one-way LOCC
# ones, where party 0 measures first, some of them remixed.  The seeds were fixed before the first run.
RANDOM_RATIONAL_DRAWS = [
    *(("generic", (2, 2), seed) for seed in range(331, 335)),
    *(("generic", (2, 3), seed) for seed in range(335, 339)),
    *(("one-way", (2, 2), seed) for seed in (339, 340)),
    *(("one-way", (2, 3), seed) for seed in (341, 342)),
    *(("generic", (3, 3), seed) for seed in (343, 344)),
    *(("remixed", (2, 2), seed) for seed in (345, 346)),
    *(("remixed", (2, 3), seed) for seed in (347, 348)),
    *(("remixed", (3, 3), seed) for seed in (349, 350)),
]
RANDOM_RATIONAL_IDS = [f"{kind}-{'x'.join(map(str, dims))}-{seed}" for kind, dims, seed in RANDOM_RATIONAL_DRAWS]


def rational_draw(kind, dims, seed) -> list[np.ndarray]:
    """The exact Kraus operators of a ``RANDOM_RATIONAL_DRAWS`` entry.  A generic draw on D = d_0 d_1
    has 3 operators of ceil(D / 3) or one more rows; a remixed one is a one-way draw K_i rewritten
    as sum_i O_ji K_i by a rational orthogonal N x N matrix O."""
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return exact_random_kraus(dims, 3, -(-math.prod(dims) // 3) + seed % 2, rng)
    exact = exact_one_way_kraus(dims, 2 + seed % 2, rng)
    if kind == "remixed":
        mix = exact_cayley_isometry(len(exact), len(exact), rng)
        exact = [sum(m * k for m, k in zip(row, exact)) for row in mix]
    return exact


@pytest.mark.parametrize("kind, dims, seed", RANDOM_RATIONAL_DRAWS, ids=RANDOM_RATIONAL_IDS)
def test_random_rational_channels_match_the_exact_oracle(kind, dims, seed):
    exact = rational_draw(kind, dims, seed)
    channel = KrausChannel(kind, dims, len(exact[0]), [np.array(k, dtype=float) for k in exact])
    nullities = exact_nullities(exact, dims)
    verdict = gate_channel(channel)
    assert [r.nullspace_dim for r in verdict.reports] == nullities
    if kind == "generic":
        assert verdict.verdict == VERDICT_NOT_LOCC
    else:
        assert nullities[0] >= 1 and verdict.verdict == VERDICT_FIRST_MOVE_CANDIDATES


@pytest.mark.parametrize("kind, dims, seed", RANDOM_RATIONAL_DRAWS, ids=RANDOM_RATIONAL_IDS)
def test_kraus_ranks_match_the_exact_rank_of_padded_rational_channels(kind, dims, seed):
    # N operators K_i rewritten as N + 2 operators sum_i V_ji K_i by a rational (N + 2) x N
    # isometry V: the same channel, whose Kraus Gram gains two exact zero eigenvalues
    exact = rational_draw(kind, dims, seed)
    isometry = exact_cayley_isometry(len(exact) + 2, len(exact), np.random.default_rng(seed + 1000))
    padded = [sum(v * k for v, k in zip(row, exact)) for row in isometry]
    channel, wide = (KrausChannel(kind, dims, len(exact[0]), [np.array(k, dtype=float) for k in ops])
                     for ops in (exact, padded))
    assert kraus_ranks(wide.kraus[None]) == [exact_rank([k.ravel() for k in padded])] == [len(exact)]
    before, after = gate_channel(channel), gate_channel(wide)
    assert after.verdict == before.verdict
    assert [r.nullspace_dim for r in after.reports] == [r.nullspace_dim for r in before.reports]


@pytest.mark.parametrize("channel", [
    pytest.param(bell_channel(), id="bell"),
    pytest.param(domino_channel(), id="domino"),
    *(pytest.param(KrausChannel(kind, dims, len(exact[0]), [np.array(k, dtype=float) for k in exact]), id=name)
      for name, (kind, dims, seed) in zip(RANDOM_RATIONAL_IDS, RANDOM_RATIONAL_DRAWS)
      for exact in [rational_draw(kind, dims, seed)]),
])
def test_the_gate_gram_lies_within_its_a_priori_bound(channel):
    # the gate's <P_a, P_b> is one inner product of the selected float products per entry, so it
    # keeps the inner-product bound that the rounding floor and a certificate rest on: measured
    # at most 0.16 of it (one-way-2x2-339)
    ratio = gram_error_to_bound(gate_products(channel), gate_grams(channel)[0])
    assert ratio.max() <= 1.0


def test_rational_rank_one_channels_read_degenerate_with_their_exact_locality():
    # K_i = m_i U for a rational unit column m: Kraus rank 1 in exact arithmetic, and U's operator
    # Schmidt rank across the cut, exactly 1 for A (x) B and more for a generic orthogonal U
    rng = np.random.default_rng(351)
    m = exact_cayley_isometry(3, 1, rng)[:, 0]
    product = np.kron(exact_cayley_isometry(2, 2, rng), exact_cayley_isometry(2, 2, rng))
    for op, local in ((product, True), (exact_cayley_isometry(4, 4, rng), False)):
        exact = [m_i * op for m_i in m]
        assert exact_rank([k.ravel() for k in exact]) == 1
        assert (exact_rank(op.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)) == 1) is local
        channel = KrausChannel("rank-one", (2, 2), 4, [np.array(k, dtype=float) for k in exact])
        assert kraus_ranks(channel.kraus[None]) == [1]
        verdict = gate_channel(channel)
        assert (verdict.verdict, verdict.local) == (VERDICT_DEGENERATE_KRAUS_RANK_ONE, local)


@pytest.mark.parametrize("exact, dims", [
    pytest.param(exact_bell_kraus(), (2, 2), id="bell"),
    pytest.param(exact_rotated_domino_kraus((1, 1, 1, 1)), (3, 3), id="domino"),
    *(pytest.param(rational_draw(*draw), draw[1], id=name)
      for name, draw in zip(RANDOM_RATIONAL_IDS[:12], RANDOM_RATIONAL_DRAWS[:12])),
])
def test_the_identity_coefficients_are_null_for_every_exact_party_gram(exact, dims):
    # the gate lifts one zero eigenvalue of each party's Q^dag Q to 1 on the premise that x_I is a
    # null vector of Q^dag Q: in exact arithmetic it is, for every party
    x_i, grams = exact_party_grams(exact, dims)
    assert all((gram @ x_i == 0).all() for gram in grams)


def test_bells_exact_party_grams_are_projectors_so_its_lambda_is_one():
    # each party's Q^dag Q is I - J/4 (J all ones), a projector of rank 3 whose null line is x_I =
    # (1, 1, 1, 1): lifting that zero to 1 leaves the spectrum {1, 1, 1, 1}, so lambda = 1 exactly
    x_i, grams = exact_party_grams(exact_bell_kraus(), (2, 2))
    projector = np.array([[Fraction(int(a == b)) - Fraction(1, 4) for b in range(4)] for a in range(4)], dtype=object)
    assert (x_i == 1).all()
    for gram in grams:
        assert (gram == projector).all() and (gram @ gram == gram).all() and exact_rank(gram) == 3
    assert abs(gate_channel(bell_channel()).lambda_hat - 1.0) <= 1e-12


def test_dominos_exact_party_grams_give_lambda_one_sixth():
    # each party's Q^dag Q has the characteristic polynomial l (l-1)^4 (2l-1) (3l-2)^2 (6l-1) / 108:
    # its one zero is the identity's, which the gate lifts to 1, so the spectrum runs from 1/6 to 1
    factors = [(1, 0), *[(1, 1)] * 4, (2, 1), *[(3, 2)] * 2, (6, 1)]  # (a, b) for the factor a l - b
    want = [Fraction(1, 108)]
    for a, b in factors:
        want = [a * x - b * y for x, y in zip([*want, 0], [0, *want])]
    _, grams = exact_party_grams(exact_rotated_domino_kraus((1, 1, 1, 1)), (3, 3))
    assert [char_poly(gram) for gram in grams] == [want, want]
    lifted = [Fraction(b, a) or Fraction(1) for a, b in factors]  # the roots, with the zero lifted to 1
    assert min(lifted) / max(lifted) == Fraction(1, 6)
    assert abs(gate_channel(domino_channel()).lambda_hat - 1 / 6) <= 8 * math.ulp(1 / 6)  # 5 ulps under it here


def test_gate_channel_identity_degenerate():
    verdict = gate_channel(identity_channel())
    assert verdict.verdict == VERDICT_DEGENERATE_KRAUS_RANK_ONE
    assert verdict.local is True


def flagged_channel(name, ops_and_weights) -> KrausChannel:
    """Two-qubit channel applying op_k with probability w_k and recording k in a flag."""
    flags = len(ops_and_weights)
    kraus = []
    for k, (op, weight) in enumerate(ops_and_weights):
        stacked = np.zeros((4 * flags, 4), dtype=complex)
        stacked[4 * k : 4 * k + 4] = np.sqrt(weight) * op
        kraus.append(stacked)
    return KrausChannel(name, (2, 2), 4 * flags, kraus)


CNOT = np.eye(4)[[0, 1, 3, 2]]


@pytest.mark.parametrize(
    "channel",
    [
        # Alice appends a biased coin: a local operation
        flagged_channel("coin", [(np.eye(4), 0.3), (np.eye(4), 0.7)]),
        # a CNOT heralded half the time: not LOCC, yet its products are the same
        flagged_channel("heralded-cnot", [(CNOT, 0.5), (np.eye(4), 0.5)]),
    ],
    ids=lambda c: c.name,
)
def test_gate_channel_products_spanning_only_the_identity_prove_nothing(channel):
    verdict = gate_channel(channel)
    assert verdict.verdict == VERDICT_DEGENERATE_IDENTITY_SPAN
    assert [(r.pair_count, r.nullspace_dim) for r in verdict.reports] == [(1, 0), (1, 0)]
    assert verdict.lambda_hat == 1.0
    assert "local" not in verdict.to_dict() and "candidates" not in verdict.to_dict()


def test_gate_channel_dephasing_candidates(dephasing):
    verdict = gate_channel(dephasing)
    assert verdict.verdict == VERDICT_FIRST_MOVE_CANDIDATES
    assert verdict.candidates == (0,)


# The known-LOCC corpus: channels that an LOCC protocol implements, which the gate must never
# certify NOT_LOCC.  A party Gram cancels terms of size ||P_a||^2 ~ d_rest, so without the
# rounding floor (NULLSPACE_FLOOR_FACTOR) a true null eigenvalue can land above rel_tol * eig_max.


@pytest.mark.parametrize("seed", [5, 36, 185])
def test_a_known_locc_channel_never_reads_not_locc(seed):
    # K_i = A_i x I_128 for a random two-operator qubit channel A: Alice applies A and Bob
    # does nothing, so the channel is LOCC with no communication at all.  Without the floor
    # these seeds read NOT_LOCC, party 0's three null eigenvalues lying above rel_tol * eig_max
    rng = np.random.default_rng(seed)
    a = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0].reshape(2, 2, 2)
    channel = KrausChannel("local", (2, 128), 256, np.stack([np.kron(a_i, np.eye(128)) for a_i in a]))
    verdict = gate_channel(channel)
    assert verdict.verdict == VERDICT_FIRST_MOVE_CANDIDATES
    assert verdict.reports[0].nullspace_dim == 3


# The party dims (d_a, d_b) of the local-product corpus, D <= 256.
LOCAL_PRODUCT_DIMS = [(d_a, d_b) for d_a in (2, 3, 4) for d_b in (2, 3, 16, 64, 128) if d_a * d_b <= 256]


@st.composite
def local_product_channels(draw):
    """A x B on (d_a, d_b), D <= 256, for a random channel A of 1 to 3 Kraus operators and B one of
    at most 2 (one: a unitary, so A x I up to local unitaries), each side then rotated by Haar
    unitaries before and after: a channel with no communication at all."""
    d_a, d_b = draw(st.sampled_from(LOCAL_PRODUCT_DIMS))
    n_a, n_b = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def local_channel(n, d):
        iso = np.linalg.qr(rng.standard_normal((n * d, d)) + 1j * rng.standard_normal((n * d, d)))[0]
        return haar_unitary(d, rng) @ iso.reshape(n, d, d) @ haar_unitary(d, rng)

    a, b = local_channel(n_a, d_a), local_channel(n_b, d_b)
    kraus = np.stack([np.kron(a_i, b_j) for a_i in a for b_j in b])
    return KrausChannel("local-product", (d_a, d_b), d_a * d_b, kraus)


@settings(max_examples=20, deadline=None)
@given(local_product_channels())
def test_local_product_channels_never_read_not_locc(channel):
    assert gate_channel(channel).verdict != VERDICT_NOT_LOCC


@pytest.mark.parametrize("dims", LOCAL_PRODUCT_DIMS, ids=[f"{d_a}x{d_b}" for d_a, d_b in LOCAL_PRODUCT_DIMS])
def test_a_local_unitary_reads_kraus_rank_one_and_local_in_bounded_memory(dims):
    # each cut's Gram is at most D x D, the smaller side of the realignment: 16 MiB covers D = 256
    rng = np.random.default_rng(sum(dims))
    u = np.kron(haar_unitary(dims[0], rng), haar_unitary(dims[1], rng))
    channel = KrausChannel("local-unitary", dims, len(u), (u,))
    gate_channel(channel)  # warm up
    peak, verdict = traced_peak(gate_channel, channel)
    assert (verdict.verdict, verdict.local) == (VERDICT_DEGENERATE_KRAUS_RANK_ONE, True)
    assert peak < 16 * 2**20


def test_entangling_unitaries_read_kraus_rank_one_and_not_local():
    cnot = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
    swap = np.eye(4, dtype=complex)[:, [0, 2, 1, 3]]
    for u in (cnot, swap, haar_unitary(4, np.random.default_rng(31))):
        verdict = gate_channel(KrausChannel("entangling", (2, 2), 4, (u,)))
        assert (verdict.verdict, verdict.local) == (VERDICT_DEGENERATE_KRAUS_RANK_ONE, False)


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.floats(0.0, math.pi / 4) for _ in range(3)]),
       st.floats(1e-3, math.pi / 4 - 1e-3), st.floats(0.0, 2 * math.pi))
def test_the_built_in_protocols_never_read_not_locc(angles, usd_angle, phase):
    # each compiled tree is an LOCC protocol, so its channel is LOCC by construction
    domino = protocol_to_channel(domino_three_round_protocol(*angles))
    usd = protocol_to_channel(usd_oneway_protocol(math.sin(usd_angle) * np.exp(1j * phase), math.cos(usd_angle)))
    assert [gate_channel(c).verdict for c in (domino, usd)] == [VERDICT_FIRST_MOVE_CANDIDATES] * 2


def assert_locc_verdict(verdict, tree) -> None:
    """Not NOT_LOCC, and the tree's root party a candidate unless the label is degenerate."""
    assert verdict.verdict != VERDICT_NOT_LOCC
    assert verdict.verdict.startswith("DEGENERATE_") or tree.root.party in verdict.candidates


def locc_tree_leaves_a_party_out(tree) -> bool:
    """Gate a random LOCC tree's channel and its copies rounded to 15, 12 and 10 significant digits;
    none may read NOT_LOCC, and the root party must be a candidate unless the label is degenerate.
    Returns whether some party is not a candidate, so that the check is not trivial."""
    channel = protocol_to_channel(tree)
    verdict = gate_channel(channel)
    assert_locc_verdict(verdict, tree)
    for digits in (15, 12, 10):
        try:  # rounding may leave the identity off the span, which is refused, never certified
            assert gate_channel(rounded_channel(channel, digits)).verdict != VERDICT_NOT_LOCC
        except CompletenessError:
            pass
    return verdict.candidates is not None and len(verdict.candidates) < channel.n_parties


@pytest.mark.parametrize("dims", LOCC_TREE_DIMS, ids=["x".join(map(str, d)) for d in LOCC_TREE_DIMS])
def test_a_random_locc_tree_never_reads_not_locc(dims):
    # the root's outcome m sums K^dag K over its leaves to E_m x I, so E_m x I lies in the span of
    # the pair products and the root party has nullity >= 1
    trees = [random_locc_tree(dims, depth, outcomes, np.random.default_rng(seed))
             for draw_dims, depth, outcomes, seed in LOCC_TREE_DRAWS if draw_dims == dims]
    assert sum(map(locc_tree_leaves_a_party_out, trees)) >= 1


@pytest.mark.parametrize("grow", ["every-party+1", "party-0x2"])
@pytest.mark.parametrize("dims", LOCC_TREE_DIMS, ids=["x".join(map(str, d)) for d in LOCC_TREE_DIMS])
def test_random_locc_trees_with_flags_never_read_not_locc_alone_or_stacked(dims, grow):
    # leaves write flags, so d_out > D; the fixed draws, each gated alone (the one-vector scan) and
    # all of a shape stacked, zero-padded to one Kraus count (the stacked scan): ~0.7 s in all
    out_dims = tuple(d + 1 for d in dims) if grow == "every-party+1" else (2 * dims[0], *dims[1:])
    trees = [random_locc_tree(dims, depth, outcomes, np.random.default_rng(seed), out_dims)
             for draw_dims, depth, outcomes, seed in LOCC_TREE_DRAWS if draw_dims == dims]
    channels = [protocol_to_channel(tree) for tree in trees]
    assert all(c.output_dim == math.prod(out_dims) > c.dim for c in channels)
    n_kraus = max(c.n_kraus for c in channels)
    padded = [KrausChannel(c.name, dims, c.output_dim, np.concatenate(
        [c.kraus, np.zeros((n_kraus - c.n_kraus, *c.kraus.shape[1:]))])) for c in channels]
    alone = [gate_channel(c) for c in channels]
    for tree, lone, stacked in zip(trees, alone, gate_channels(padded), strict=True):
        assert_locc_verdict(lone, tree)
        assert_locc_verdict(stacked, tree)
    assert any(len(v.candidates) < len(dims) for v in alone if v.candidates is not None)


@settings(max_examples=150, deadline=None)  # ~2 s
@given(st.sampled_from(LOCC_TREE_DIMS), st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_random_locc_trees_never_read_not_locc(dims, depth, outcomes, seed):
    locc_tree_leaves_a_party_out(random_locc_tree(dims, depth, outcomes, np.random.default_rng(seed)))


def test_the_rounding_floor_keeps_its_margins_on_the_desk_sweeps(monkeypatch):
    # on the desk figure sweeps at seed 1 the floor moves no count: it stays under every party's
    # rel_tol * eig_max, and every party of nullity 0 stays at least 1e3 times above it
    calls = []
    rule = gate._nullity

    def spy(evals, rel_tol, floor):
        stats = rule(evals, rel_tol, floor)
        calls.append((rel_tol, floor, *map(np.array, stats)))
        return stats

    monkeypatch.setattr(gate, "_nullity", spy)
    for cfg in desk_figure_configs(1):
        list(run_sweep(cfg)[1])
    floor, rel_line, eig_min = (np.concatenate(a) for a in zip(*(
        (np.broadcast_to(floor, eig_max.shape), rel_tol * eig_max, np.where(nullity == 0, eig_min, np.inf))
        for rel_tol, floor, nullity, eig_min, eig_max in calls)))
    assert len(floor) == 2 * 640  # two parties per row
    assert (floor < rel_line).all()
    assert (eig_min >= 1e3 * floor).all()


def test_gate_channel_needs_two_parties():
    single = KrausChannel("single", (4,), 4, (np.eye(4),))
    with pytest.raises(DimensionError, match="at least 2 parties"):
        gate_channel(single)


def assert_same_verdict(got, want):
    """Equal verdict, candidates, flags, integers and completeness residual; other floats equal to 2e-15."""
    assert (got.verdict, got.candidates, got.local) == (want.verdict, want.candidates, want.local)
    assert got.completeness_residual == want.completeness_residual
    assert abs(got.lambda_hat - want.lambda_hat) <= 2e-15
    assert len(got.reports) == len(want.reports)
    for a, b in zip(got.reports, want.reports):
        ints = ("party", "pair_count", "q_rows", "nullspace_dim", "can_measure_first")
        assert [getattr(a, f) for f in ints] == [getattr(b, f) for f in ints]
        assert abs(a.ratio - b.ratio) <= 2e-15
        for f in ("eig_min", "eig_max"):
            assert abs(getattr(a, f) - getattr(b, f)) <= 2e-15 * max(1.0, b.eig_max)


def mixed_subset_sizes(rng) -> list[KrausChannel]:
    """(2, 2) channels of 4 Kraus operators whose independent subsets differ in size."""
    u = np.stack([haar_unitary(4, rng) for _ in range(3)])
    return [
        random_unitary_channel((2, 2), 4, rng),
        KrausChannel("repeated-unitary", (2, 2), 4, 0.5 * u[[0, 0, 1, 2]]),
        random_unitary_channel((2, 2), 4, rng),
        KrausChannel("rank-one", (2, 2), 4, 0.5 * u[[1, 1, 1, 1]]),
    ]


def test_gate_channels_matches_gate_channel_per_channel(zoo_channels, dephasing):
    rng = np.random.default_rng(31)
    product_unitary = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    channels = [
        *zoo_channels,
        dephasing,
        identity_channel(),
        KrausChannel("product-unitary", (2, 2), 4, (product_unitary,)),
        flagged_channel("coin", [(np.eye(4), 0.3), (np.eye(4), 0.7)]),
        flagged_channel("heralded-cnot", [(CNOT, 0.5), (np.eye(4), 0.5)]),
        *(rotated_domino_channel(RotatedDominoParams(t)) for t in (
            (0.0, 0.3, 0.5, 0.7), (0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.5, 0.2))),
        *(usd_channel(sample_usd_params(rng)) for _ in range(3)),
        *(random_unitary_channel(dims, nu, rng) for dims, nu in (
            ((2, 2), 1), ((2, 2), 1), ((2, 2), 3), ((2, 2), 3), ((2, 2), 5), ((2, 2), 5),
            ((2, 3), 6), ((2, 3), 6), ((2, 2, 2), 9), ((2, 2, 2), 9))),
        *mixed_subset_sizes(rng),
    ]
    groups: dict = {}
    for channel in channels:
        groups.setdefault((channel.input_dims, channel.kraus.shape), []).append(channel)
    assert max(len(g) for g in groups.values()) >= 3
    mixed = groups[((2, 2), (4, 4, 4))]
    assert len({gate_channel(c).reports[0].pair_count for c in mixed}) >= 3
    for group in groups.values():
        got = gate_channels(group)
        assert len(got) == len(group)
        for verdict, channel in zip(got, group):
            assert_same_verdict(verdict, gate_channel(channel))


def mixed_survivor_channels() -> list[KrausChannel]:
    """Four (2, 2) channels of three 12 x 4 Kraus operators that keep 9, 5, 3 and 3 of their 9 pair products."""
    rng = np.random.default_rng(43)
    u = random_unitary_channel((2, 2), 3, rng).kraus
    padded_unitary = np.zeros((3, 12, 4), dtype=complex)
    padded_unitary[:, :4] = u
    two_flags = np.zeros((3, 12, 4), dtype=complex)  # K_1^dag K_2 survives, the other cross terms vanish
    two_flags[0, :4] = np.sqrt(1.5) * u[0]  # weights 1/2, 1/4 and 1/4
    two_flags[1:, 4:8] = np.sqrt(0.75) * u[1:]
    q = haar_unitary(4, rng)
    proj = [np.outer(q[:, i], q[:, i].conj()) for i in range(4)]
    return [
        KrausChannel("padded-unitary", (2, 2), 12, padded_unitary),
        KrausChannel("two-flags", (2, 2), 12, two_flags),
        flagged_channel("measure", [(proj[0], 1.0), (proj[1], 1.0), (proj[2] + proj[3], 1.0)]),
        flagged_channel("coin", [(np.eye(4), 0.2), (np.eye(4), 0.3), (np.eye(4), 0.5)]),
    ]


def test_gate_channels_pads_slices_that_keep_different_numbers_of_products(monkeypatch):
    # one (3, 12, 4) Kraus stack whose slices keep 9, 5, 3 and 3 of their 9 pair products
    channels = mixed_survivor_channels()
    kraus = np.stack([c.kraus for c in channels])
    kept = nonzero_vectors(stacked_pair_products(kraus).reshape(4, 9, -1), 1e-9)[1]
    assert kept.sum(axis=1).tolist() == [9, 5, 3, 3]
    scanned, formed = [], []

    def record(calls, func):
        return lambda arg, *rest: calls.append(arg) or func(arg, *rest)

    # the gate reaches both stages through its module attributes
    monkeypatch.setattr(gate, "formed_pair_products", record(formed, gate.formed_pair_products))
    monkeypatch.setattr(gate, "select_independent_subsets", record(scanned, gate.select_independent_subsets))
    got = gate_channels(channels)
    assert len(formed) == 1 and np.array_equal(formed[0], kraus)
    (packed,) = scanned
    assert packed.shape == (4, 9, 16)
    for products, mask, slice_ in zip(stacked_pair_products(kraus), kept, packed):
        assert np.array_equal(slice_[: mask.sum()], products[mask].reshape(-1, 16))
        assert not slice_[mask.sum() :].any()
    assert got[3].verdict == VERDICT_DEGENERATE_IDENTITY_SPAN
    for verdict, channel in zip(got, channels):
        assert_same_verdict(verdict, gate_channel(channel))


def reference_stacks(kraus: np.ndarray) -> list:
    """``packed_stacks`` by its rule, from the per-pair products of the whole list.

    Each channel's survivors of the zero filter, in input order, join the current stack
    unless the stack, padded to its widest channel, would then pass STACK_BYTES: then
    they open the next one.  Stacks do not look at the formation chunks.
    """
    products = per_pair_products(kraus)
    keep = nonzero_vectors(products.reshape(*products.shape[:2], -1), 1e-9)[1]
    stacks = [[]]
    for kept in (slice_[mask] for slice_, mask in zip(products, keep)):
        rows = [*stacks[-1], kept]
        if stacks[-1] and len(rows) * max(map(len, rows)) * kept[0].nbytes > gate.STACK_BYTES:
            stacks.append([kept])
        else:
            stacks[-1] = rows
    out, lo = [], 0
    for rows in stacks:
        packed = np.zeros((len(rows), max(map(len, rows)), *products.shape[2:]), dtype=complex)
        for slice_, kept in zip(packed, rows):
            slice_[: len(kept)] = kept
        out.append((lo, packed))
        lo += len(rows)
    return out


def formed_count(kraus: np.ndarray) -> int:
    """Pair products ``packed_stacks`` forms per channel: the pairs (i, j) whose K_i and K_j are
    nonzero in a common output row of some channel, or all N^2 if every pair is or D is 1."""
    rows = (kraus != 0).any(axis=-1).astype(int)  # (B, N, d_out)
    shared = np.einsum("bik,bjk->ij", rows, rows) > 0
    return shared.size if shared.all() or kraus.shape[-1] == 1 else int(shared.sum())


def chunks_spanned(kraus: np.ndarray, lo: int, packed: np.ndarray) -> int:
    """How many of ``packed_stacks``' formation chunks the stack of rows lo.. spans."""
    step = gate.product_chunk(formed_count(kraus), kraus.shape[-1])
    return (lo + len(packed) - 1) // step - lo // step + 1


def assert_packs_like_the_reference(kraus: np.ndarray) -> list:
    got, want = list(gate.packed_stacks(kraus)), reference_stacks(kraus)
    assert [lo for lo, _ in got] == [lo for lo, _ in want]
    for (_, packed), (_, expected) in zip(got, want):
        assert same_bits(packed, expected)
    return got


def test_packed_stacks_equal_packing_the_per_pair_reference(monkeypatch):
    assert gate.product_chunk(100, 9) == 2 and gate.product_chunk(9, 4) >= 5
    # every product survives: chunks of 2 channels, stacks of 5, so each stack spans 3 chunks
    rng = np.random.default_rng(59)
    survive = np.stack([random_unitary_channel((2, 2, 2), 10, rng).kraus for _ in range(10)])
    assert (gate.product_chunk(100, 8), gate.STACK_BYTES // (100 * 64 * 16)) == (2, 5)
    got = assert_packs_like_the_reference(survive)
    assert [chunks_spanned(survive, lo, packed) for lo, packed in got] == [3, 3]
    assert all(packed.shape[1] == 100 for _, packed in got)
    # slices that keep 9, 5, 3 and 3 of their 9 products: one stack, and at a budget of
    # one-channel chunks, a lone stack, a padded stack that spans two chunks and a lone stack
    mixed = np.stack([c.kraus for c in mixed_survivor_channels()])
    assert [packed.shape[:2] for _, packed in assert_packs_like_the_reference(mixed)] == [(4, 9)]
    monkeypatch.setattr(gate, "STACK_BYTES", 3000)
    got = assert_packs_like_the_reference(mixed)
    assert [(lo, packed.shape[:2]) for lo, packed in got] == [(0, (1, 9)), (1, (2, 5)), (3, (1, 3))]
    assert chunks_spanned(mixed, *got[1]) == 2
    monkeypatch.undo()
    # a lone row is its chunk's gather, not a copy of it
    for kraus in (survive[:1], mixed[2:3], random_unitary_channel((4, 4), 18, rng).kraus[None]):
        [(lo, packed)] = assert_packs_like_the_reference(kraus)
        assert lo == 0 and not packed.flags.owndata


def test_gate_channels_raises_for_the_first_bad_channel_before_any_work(monkeypatch, rotated_domino):
    def no_work(*args):
        raise AssertionError("gating started before every channel was checked")

    monkeypatch.setattr(gate, "formed_pair_products", no_work)
    incomplete = KrausChannel("incomplete", (3, 3), 9, 1.1 * rotated_domino.kraus)
    single = KrausChannel("single", (4,), 4, (np.eye(4),))
    with pytest.raises(CompletenessError, match="incomplete"):
        gate_channels([rotated_domino, incomplete, single])
    with pytest.raises(DimensionError, match="at least 2 parties"):
        gate_channels([rotated_domino, single, incomplete])
    with pytest.raises(ValueError, match="rel_tol"):
        gate_channels([rotated_domino, rotated_domino], rel_tol=0.0)
    assert gate_channels([]) == []


def test_gate_stack_raises_for_the_first_bad_row_before_any_work(monkeypatch, rotated_domino):
    def no_work(*args):
        raise AssertionError("gating started before every row was checked")

    monkeypatch.setattr(gate, "formed_pair_products", no_work)
    good, names = rotated_domino.kraus, ["a", "b", "c", "d"]
    non_finite = good.copy()
    non_finite[3, 1, 2] = np.nan
    # a non-finite entry makes the completeness residual nan, which is not within the tolerance
    with pytest.raises(CompletenessError, match="^channel 'c' has completeness residual nan, not within 1e-06$"):
        _gate_stack(np.stack([good, good, non_finite, non_finite]), (3, 3), names, 1e-13)
    with pytest.raises(CompletenessError, match="^channel 'b' has completeness residual 2.100e-01, not within"):
        _gate_stack(np.stack([good, 1.1 * good, good, 1.2 * good]), (3, 3), names, 1e-13)
    with pytest.raises(DimensionError, match="at least 2 parties, got 1"):
        _gate_stack(np.stack([good, 1.1 * good]), (9,), names, 1e-13)
    with pytest.raises(ValueError, match="rel_tol"):
        _gate_stack(np.stack([good, good]), (3, 3), names, 0.0)
    wide = np.full((2, 1, 1, 2048), 2048 ** -0.5, dtype=complex)  # N d_out < D: the rank forbids completeness
    with pytest.raises(CompletenessError, match="^channel 'a' has completeness residual inf"):
        _gate_stack(wide, (2048, 1), names, 1e-13)


def test_gate_stack_of_one_row_takes_the_stacked_scan(monkeypatch, bell):
    calls = []
    for name in ("select_independent_subset", "select_independent_subsets"):
        scan = getattr(gate, name)
        monkeypatch.setattr(gate, name, lambda vecs, *rest, name=name, scan=scan: calls.append(name) or scan(vecs, *rest))
    rank_one = np.eye(4, dtype=complex)[None, None]
    [verdict] = _verdicts(_gate_stack(rank_one, (2, 2), ["identity"], 1e-13), rank_one, (2, 2))
    assert (verdict.verdict, verdict.local) == (VERDICT_DEGENERATE_KRAUS_RANK_ONE, True)
    [stacked] = _verdicts(_gate_stack(bell.kraus[None], (2, 2), ["bell"], 1e-13), bell.kraus[None], (2, 2))
    assert calls == ["select_independent_subsets", "select_independent_subsets"]
    assert_same_verdict(stacked, gate_channel(bell))
    assert calls[-1] == "select_independent_subset"


def test_gate_channels_names_the_first_channel_whose_identity_is_off_the_span():
    # completeness residual 1e-7 in a direction outside the pair products' span
    k0 = np.sqrt(0.5) * np.diag([1, 1, 1, np.sqrt(1 + 1e-7)]).astype(complex)
    k1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)) @ k0
    near = KrausChannel("near-complete", (2, 2), 4, (k0, k1))
    later = KrausChannel("later", (2, 2), 4, (k1, k0))
    rng = np.random.default_rng(41)
    good = [random_unitary_channel((2, 2), 2, rng) for _ in range(2)]
    with pytest.raises(CompletenessError, match="channel 'near-complete': identity not in the span"):
        gate_channels([good[0], near, good[1], later])
    with pytest.raises(CompletenessError, match="channel 'later'"):
        gate_channel(later)
    # groups of equal |S| are solved apart, yet the first bad channel in input
    # order raises: here |S| = 1 for "lone", after a good |S| = 2 channel
    halves = KrausChannel("halves", (2, 2), 4, (np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])))
    lone = KrausChannel("lone", (2, 2), 4, (k0 * np.sqrt(2), np.zeros((4, 4))))
    with pytest.raises(CompletenessError, match="channel 'lone'"):
        gate_channels([halves, lone, near])


def same_shape_lists(rng):
    """One list of same-shape channels per family: lone stacks at 4 KiB, one stack at 4 MiB."""
    yield [
        rotated_domino_channel(RotatedDominoParams(tuple(rng.uniform(0.0, np.pi / 4, 4))))
        for _ in range(12)
    ]
    yield [usd_channel(sample_usd_params(rng)) for _ in range(16)]
    for dims, nu in (((2, 2), 3), ((2, 2), 5), ((2, 3), 6), ((2, 2, 2), 5)):
        yield [random_unitary_channel(dims, nu, rng) for _ in range(12)]
    yield [channel for _ in range(4) for channel in mixed_subset_sizes(rng)]


def test_gate_channels_rows_do_not_depend_on_the_stack_cuts(monkeypatch):
    # from lone stacks of one channel to one stack of the whole list, through
    # budgets at which a stack spans several formation chunks
    for channels in same_shape_lists(np.random.default_rng(47)):
        kraus = np.stack([c.kraus for c in channels])
        outputs, spans = set(), []
        for stack_bytes in (1 << 12, 1 << 14, 3 << 13, 1 << 16, 5 << 14, 3 << 16, 1 << 18, 1 << 22):
            monkeypatch.setattr(gate, "STACK_BYTES", stack_bytes)
            outputs.add(json.dumps([v.to_dict() for v in gate_channels(channels)]))
            spans += [chunks_spanned(kraus, lo, packed) for lo, packed in gate.packed_stacks(kraus)]
        assert len(outputs) == 1, channels[0].name
        assert max(spans) >= 2, channels[0].name


def test_gate_channels_keeps_no_scan_buffer_it_does_not_need():
    # 200 usd channels fill half of one 512 KiB stack; the gate keeps no per-channel copy
    # of the scan's basis, and frees the basis before it gathers the selected products
    # (measured 1,204 KiB)
    rng = np.random.default_rng(42)
    channels = [usd_channel(sample_usd_params(rng)) for _ in range(200)]
    gate_channels(channels[:2])  # warm-up: first-call allocations are not the gate's
    peak, _ = traced_peak(gate_channels, channels)
    assert peak < 1400 * 1024


def packing_peak(kraus: np.ndarray) -> tuple[int, list]:
    """Peak traced bytes of packing ``kraus`` stack by stack, each stack dropped before the next."""
    list(gate.packed_stacks(kraus[:2]))  # warm-up: first-call allocations are not the packing's
    # map, unlike a loop variable, holds no stack while the next one is packed
    return traced_peak(lambda: list(map(lambda stack: stack[1].shape, gate.packed_stacks(kraus))))


def test_packing_an_all_survive_run_longer_than_a_chunk_holds_no_second_copy_of_the_stack():
    # 2x2 channels of 3 unitaries keep all 9 products: chunks of 113 channels, stacks of 227.
    # Packing a stack holds its chunks' gathers and the stack copied out of them, about two
    # stacks.  The bound is one stack plus one chunk's three formation buffers (its products,
    # the averaging's temporary and its gather, each at most STACK_BYTES / 2): 1,280 KiB
    # against 1,057 KiB measured, so one more copy of the stack would pass it.
    rng = np.random.default_rng(61)
    kraus = random_unitary_kraus((2, 2), 3, [rng] * 400)
    chunk = gate.STACK_BYTES // 2
    assert gate.product_chunk(9, 4) == 113
    peak, shapes = packing_peak(kraus[:227])
    assert shapes == [(227, 9, 4, 4)]
    assert peak < gate.STACK_BYTES + 3 * chunk
    # a cut inside the third chunk also holds that chunk's gather, which the next stack
    # starts from, while the first stack is copied out: measured 1,314 KiB, and keeping
    # the chunk's products past its gather would pass this bound
    peak, shapes = packing_peak(kraus)
    assert shapes == [(227, 9, 4, 4), (173, 9, 4, 4)]
    assert peak < gate.STACK_BYTES + 4 * chunk


def formed_per_call(monkeypatch) -> list:
    """Patch the gate's formation stage to record (pairs listed, channels, products per channel) per call."""
    calls, form = [], gate.formed_pair_products

    def recorded(kraus, pairs):
        products = form(kraus, pairs)
        calls.append((pairs is not None, len(products), products[0].size // kraus.shape[-1] ** 2))
        return products

    monkeypatch.setattr(gate, "formed_pair_products", recorded)
    return calls


def test_packed_stacks_form_only_the_pairs_whose_operators_share_an_output_row(
    monkeypatch, bell, rotated_domino, usd_instance
):
    # rotated domino, usd and bell form only the pairs that share an output row; every pair
    # of random unitaries shares every row, so those keep the block columns
    calls = formed_per_call(monkeypatch)
    rng = np.random.default_rng(67)
    unitaries = [random_unitary_channel(dims, nu, rng) for dims, nu in (((2, 2), 3), ((2, 3), 6))]
    for channel in (rotated_domino, usd_instance, bell, *unitaries):
        gate_channel(channel)
    assert calls == [(True, 1, 17), (True, 1, 5), (True, 1, 8), (False, 1, 9), (False, 1, 36)]
    # chunks are sized by the products formed: rotated-domino rows come 11 to a chunk, not 2
    calls.clear()
    list(gate.packed_stacks(rotated_domino_kraus(rng.uniform(0.0, np.pi / 4, (12, 4)))))
    assert calls == [(True, 11, 17), (True, 1, 17)]
    # at D = 1 a pair's GEMM would be a dot, whose bits differ from the block columns'
    calls.clear()
    list(gate.packed_stacks(np.array([[[0.6], [0.0]], [[0.0], [0.8]]], dtype=complex)[None]))
    assert calls == [(False, 1, 4)]


def union_decides() -> np.ndarray:
    """Two channels of three 3 x 2 operators: K_0 and K_1 share a row in the first only."""
    kraus = np.zeros((2, 3, 3, 2), dtype=complex)
    kraus[0, [0, 1, 2], [0, 0, 1]] = [[0.6, 0.2j], [0.3, -0.4], [0.5j, 0.1]]
    kraus[1, [0, 1, 2], [0, 1, 2]] = [[0.7, 0.1], [-0.2j, 0.9], [0.4, 0.3j]]
    return kraus


@st.composite
def sparse_kraus_stacks(draw) -> np.ndarray:
    """(B, N, d_out, D) stacks of random operators, each nonzero in at most two random output rows.

    Each channel draws its own rows, so a pair may share a row in some channels only, where
    the stack's union decides that it is formed; an operator with no row is zero.
    """
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    d_out, d = draw(st.integers(1, 6)), draw(st.integers(2, 5))  # D = 1 keeps the block columns
    rows = st.lists(st.integers(0, d_out - 1), max_size=2)
    support = np.zeros((b, n, d_out, 1), dtype=bool)
    for c, k in itertools.product(range(b), range(n)):
        support[c, k, draw(rows)] = True
    support[~support.any(axis=(1, 2, 3)), 0, 0] = True  # a complete channel is not all zero
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.where(support, rng.normal(size=(b, n, d_out, d)) + 1j * rng.normal(size=(b, n, d_out, d)), 0)


@settings(max_examples=60, deadline=None)
@given(sparse_kraus_stacks(), st.sampled_from([1 << 9, 3 << 10, 1 << 19]))
@example(union_decides(), 1 << 19)
def test_packed_stacks_equal_the_per_pair_reference_on_random_row_supports(kraus, stack_bytes):
    # every product not formed is exactly zero, so the per-pair reference over all N^2 pairs,
    # zero-filtered, packs the same stacks with the same bits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gate, "STACK_BYTES", stack_bytes)
        assert_packs_like_the_reference(kraus)


def test_a_lone_64_outcome_measurement_forms_64_products_not_4096():
    # K_k = |k><phi_k| for a Haar basis on 8x8: each operator has an output row of its own, so
    # formation takes 64 products (4 MiB) where 64^2 block columns alone would take 256 MiB
    phi = haar_unitary(64, np.random.default_rng(71))
    kraus = np.zeros((64, 64, 64), dtype=complex)
    kraus[np.arange(64), np.arange(64)] = phi.conj().T
    channel = KrausChannel("measure-64", (8, 8), 64, kraus)
    gate_channel(channel)  # warm-up: first-call allocations are not the gate's
    peak, verdict = traced_peak(gate_channel, channel)
    assert verdict.reports[0].pair_count == 64
    assert peak < 64 << 20


# The memory law (``gate``'s module docstring) holds up to a fixed allowance: numpy's ufunc
# buffers, up to 8192 elements per operand, and arrays of a few KiB.
LAW_ALLOWANCE = 256 << 10


def lone_gate_law(channel) -> int:
    """Bytes a lone ``gate_channel`` may peak at: the largest of formation, the scan and the tail, plus
    LAW_ALLOWANCE.

    Formation holds the products it forms, their averaging temporary and their survivors'
    gather; the scan holds the M packed products of length L = D^2 plus ``onb``, of
    min(M, L) L complex entries, and a step's three vectors of length L (the previous
    residual, a projection and the residual); the tail holds the k <= min(M, L) selected
    products, their conjugate and their k x k Gram.
    """
    kraus = channel.kraus[None]
    pairs = gate.row_sharing_pairs(kraus)
    formed = channel.n_kraus**2 if pairs is None else len(pairs[0])
    [(_, packed)] = gate.packed_stacks(kraus)
    m, length = packed.shape[1], channel.dim**2
    k = min(m, length)
    return 16 * max(3 * formed * length, (m + k + 3) * length, 2 * k * length + k * k) + LAW_ALLOWANCE


def assert_lone_gate_follows_the_law(channel):
    gate_channel(channel)  # warm-up: first-call allocations are not the gate's
    peak, _ = traced_peak(gate_channel, channel)
    assert peak <= lone_gate_law(channel), (channel.input_dims, channel.n_kraus)


@pytest.mark.parametrize("dims, nu", HEAVY_SHAPES, ids=HEAVY_IDS)
def test_a_lone_channel_peaks_at_its_scan(dims, nu):
    # formation bounds the law on every shape but 2x2x2/8; 4x4/18 and 2^4/20 peak at 3,208 and
    # 3,216 KiB, against 4,144 and 5,056 KiB of law.  While the Grams came from the scan's
    # triangular factor, they peaked at 3,482 and 3,722 KiB.  With a conjugate copy of the basis in
    # the scan, 4x4/18 peaked 268 KiB over this law; while the gate kept the packed stack, the basis
    # and copies of the factor and the selected products alive past the scan, 3x3/11 peaked
    # 329 KiB and 4x4/18 and 2^4/20 ~1.3 MiB over the scan with that copy
    assert_lone_gate_follows_the_law(random_unitary_channel(dims, nu, np.random.default_rng(1)))


def test_a_local_channel_of_long_products_peaks_at_its_scan():
    # A_i x I_64 for a random two-operator qubit channel A: 4 products of length 128^2, 1 MiB in
    # all, where the scan's step vectors (256 KiB each) count.  Measured 2,820 KiB; with a
    # conjugate copy of the basis in the scan, 3,844 KiB, and with each stage's inputs also
    # kept alive to the end of the gate, 4,355 KiB
    a = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 2, 2)).view(complex)[..., 0])[0]
    kraus = np.stack([np.kron(a_i, np.eye(64)) for a_i in a.reshape(2, 2, 2)])
    assert_lone_gate_follows_the_law(KrausChannel("local", (2, 64), 128, kraus))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (4, 4), (2, 2, 2, 2)]),
       st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_random_lone_channels_peak_at_their_scan_or_their_formation(dims, nu, seed):
    # formation bounds the peak where the M products outnumber 3/2 times their length L
    assert_lone_gate_follows_the_law(random_unitary_channel(dims, nu, np.random.default_rng(seed)))


def test_a_lone_channel_frees_the_stack_and_the_basis_before_the_eigensolves(monkeypatch):
    # 2^4/20 packs 400 products of length 256 (1,600 KiB) and keeps |S| = 256: the basis and the
    # gathered products are 1 MiB each.  At each party eigensolve only the Gram and the party's
    # Gram may be alive beside arrays of a few KiB: measured 2,122 KiB against a bound of 2,560.
    # A packed stack, a basis or a gather kept alive past its last reader can stay under every
    # peak bound, but fails here
    channel = random_unitary_channel((2, 2, 2, 2), 20, np.random.default_rng(1))
    gate_channel(channel)  # warm-up: first-call allocations are not the gate's
    alive, solver = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args: alive.append(tracemalloc.get_traced_memory()[0]) or solver(*args))
    _, verdict = traced_peak(gate_channel, channel)
    assert verdict.reports[0].pair_count == 256
    stack, basis = 400 * 256 * 16, 256 * 256 * 16
    square = 256 * 256 * 16  # each Gram
    assert len(alive) == 4 + 1  # one per party, one Kraus-rank guard
    assert max(alive) < 2 * square + min(stack, basis) // 2


def test_a_list_over_several_stacks_peaks_at_its_first_stack():
    # 113 2x3 channels of 8 unitaries pack 9 stacks of 14 channels, in chunks of 7.  Beyond
    # its first stack alone, the list adds its longer Kraus copy and more verdicts (~0.6 KiB
    # each), and packing holds the next chunk's gather (at most STACK_BYTES / 2) while a stack
    # is gated; nothing of a stack may outlive it.  Measured 291 KiB over the first stack's
    # peak and Kraus copy, against 859 KiB while each stack's Grams outlived it
    rng = np.random.default_rng(5)
    channels = [random_unitary_channel((2, 3), 8, rng) for _ in range(113)]
    kraus = np.stack([c.kraus for c in channels])
    starts = [lo for lo, _ in gate.packed_stacks(kraus)]
    assert len(starts) == 9 and starts[1] == 14
    peaks = {}
    for n in (starts[1], len(channels)):
        gate_channels(channels[:n])  # warm-up: first-call allocations are not the gate's
        peaks[n], _ = traced_peak(gate_channels, channels[:n])
    extra = len(channels) - starts[1]
    allowance = extra * kraus[0].nbytes + extra * (1 << 10) + gate.STACK_BYTES // 2
    assert peaks[len(channels)] <= peaks[starts[1]] + allowance


def test_the_kraus_rank_guard_conjugates_a_long_list_a_slice_at_a_time(monkeypatch):
    # 1,000 usd channels (1.5 MiB of Kraus operators) pack 3 stacks.  The guard conjugates at
    # most STACK_BYTES / 2 of Kraus operators at once and adds their Kraus Grams (64 KiB):
    # measured 319 KiB a slice.  Conjugating the whole list at once took 1,954 KiB and set
    # the call's peak, 4,057 KiB, against 3,804 KiB measured
    rng = np.random.default_rng(42)
    channels = [usd_channel(sample_usd_params(rng)) for _ in range(1000)]
    kraus = np.stack([c.kraus for c in channels])
    starts = [lo for lo, _ in gate.packed_stacks(kraus)]
    assert starts == [0, 409, 818]
    peaks = {}
    for n in (starts[1], len(channels)):
        gate_channels(channels[:n])  # warm-up: first-call allocations are not the gate's
        peaks[n], _ = traced_peak(gate_channels, channels[:n])
    extra = len(channels) - starts[1]
    allowance = extra * kraus[0].nbytes + extra * (1 << 10) + gate.STACK_BYTES // 2
    assert peaks[len(channels)] <= peaks[starts[1]] + allowance
    guard, added = gate.kraus_ranks, []

    def traced_guard(stack):  # bytes the guard allocates beyond what is alive when it starts
        alive = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ranks = guard(stack)
        added.append(tracemalloc.get_traced_memory()[1] - alive)
        return ranks

    monkeypatch.setattr(gate, "kraus_ranks", traced_guard)
    traced_peak(gate_channels, channels)
    step = gate.STACK_BYTES // 2 // kraus[0].nbytes
    assert step == 163 and len(added) == 7 and max(added) <= gate.STACK_BYTES // 2 + (128 << 10)
    # each slice takes one batched matmul and eigensolve: the ranks of the whole list at once
    assert guard(kraus) == [rank for lo in range(0, len(kraus), step) for rank in guard(kraus[lo : lo + step])]


def test_gate_channels_batches_its_eigensolves_and_solves(monkeypatch):
    rng = np.random.default_rng(42)
    channels = [usd_channel(sample_usd_params(rng)) for _ in range(40)]
    calls = {"eigvalsh": 0, "solve": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    verdicts = gate_channels(channels)
    n_groups = len({v.reports[0].pair_count for v in verdicts})
    # one eigensolve per party and subset size, one for the Kraus ranks; no solve: the identity's
    # eigenvalue is lifted, not solved for
    assert calls["eigvalsh"] <= channels[0].n_parties * n_groups + 1
    assert calls["solve"] == 0
    gate_channel(channels[0])
    assert calls["solve"] == 0


def test_gate_channels_rejects_channels_of_different_shapes(bell, domino, dephasing):
    for mixed in ([bell, domino], [bell, dephasing]):
        with pytest.raises(DimensionError, match="one shape"):
            gate_channels(mixed)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0, 2.0])
def test_gate_rejects_rel_tol_outside_unit_interval(rotated_domino, tol):
    # nan or a negative threshold counts no eigenvalue as zero, which fakes NOT_LOCC
    assert not valid_rel_tol(tol)
    with pytest.raises(ValueError, match="rel_tol"):
        gate_channel(rotated_domino, tol)


def test_gate_accepts_rel_tol_inside_unit_interval(bell):
    for tol in (5e-324, 1e-13, 0.5, np.nextafter(1.0, 0.0)):
        assert valid_rel_tol(tol)
        assert [r.party for r in gate_channel(bell, tol).reports] == [0, 1]


def test_verdict_serializes(bell):
    doc = gate_channel(bell).to_dict()
    assert doc["verdict"] == VERDICT_NOT_LOCC
    assert len(doc["reports"]) == 2
    assert set(doc["reports"][0]) == {
        "party",
        "pair_count",
        "q_rows",
        "eig_min",
        "eig_max",
        "ratio",
        "nullspace_dim",
        "can_measure_first",
    }


# ---------------------------------------------------------------------------
# invariance properties


def test_remix_invariance_of_nullspace_dims(zoo_channels):
    rng = np.random.default_rng(20)
    for channel in zoo_channels:
        baseline = [r.nullspace_dim for r in gate_channel(channel).reports]
        for i in range(10):
            size = channel.n_kraus + (2 if i % 2 else 0)  # half the remixes pad
            remixed = remix_kraus(channel, haar_unitary(size, rng))
            dims = [r.nullspace_dim for r in gate_channel(remixed).reports]
            assert dims == baseline


def relabelled(channel: KrausChannel, perm) -> KrausChannel:
    """The channel with its input's tensor factors permuted: party k is the original party perm[k]."""
    kraus = channel.kraus.reshape(channel.n_kraus, channel.output_dim, *channel.input_dims)
    kraus = kraus.transpose(0, 1, *(2 + p for p in perm)).reshape(channel.kraus.shape)
    dims = tuple(channel.input_dims[p] for p in perm)
    return KrausChannel(channel.name, dims, channel.output_dim, kraus)


def assert_relabelling_permutes_the_reports(channel):
    base = gate_channel(channel)
    for perm in itertools.permutations(range(channel.n_parties)):
        got = gate_channel(relabelled(channel, perm))
        assert (got.verdict, got.local) == (base.verdict, base.local)
        moved = None if base.candidates is None else tuple(k for k, p in enumerate(perm) if p in base.candidates)
        assert got.candidates == moved
        assert abs(got.lambda_hat - base.lambda_hat) <= 1e-12
        for k, (report, p) in enumerate(zip(got.reports, perm)):
            want = base.reports[p]
            ints = ("nullspace_dim", "pair_count", "q_rows", "can_measure_first")
            assert report.party == k
            assert [getattr(report, f) for f in ints] == [getattr(want, f) for f in ints]
            assert abs(report.ratio - want.ratio) <= 1e-12


def test_party_relabelling_permutes_the_reports(bell, domino, usd_instance):
    for channel in (bell, domino, usd_instance):
        assert_relabelling_permutes_the_reports(channel)


@st.composite
def small_channels(draw) -> KrausChannel:
    """Random channels on 2-3 parties of local dims 2-3: N Kraus operators cut from one Haar isometry."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    d, n = math.prod(dims), draw(st.integers(1, 4))
    d_out = draw(st.sampled_from(sorted({d, -(-d // n)})))  # square, or the fewest rows that complete
    isometry = haar_unitary(n * d_out, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))[:, :d]
    return KrausChannel("random", dims, d_out, isometry.reshape(n, d_out, d))


@settings(max_examples=40, deadline=None)
@given(small_channels())
def test_party_relabelling_permutes_the_reports_of_random_channels(channel):
    assert_relabelling_permutes_the_reports(channel)


@settings(max_examples=40, deadline=None)
@given(small_channels(), st.integers(0, 2**32 - 1))
def test_local_unitaries_leave_the_reports_unchanged(channel, seed):
    # K_i -> V K_i (U_1 x ... x U_P) conjugates every pair product by the same local unitary
    rng = np.random.default_rng(seed)
    local = functools.reduce(np.kron, [haar_unitary(d, rng) for d in channel.input_dims])
    output = haar_unitary(channel.output_dim, rng)
    moved = KrausChannel(channel.name, channel.input_dims, channel.output_dim, output @ channel.kraus @ local)
    base, got = gate_channel(channel), gate_channel(moved)
    assert (got.verdict, got.candidates, got.local) == (base.verdict, base.candidates, base.local)
    for a, b in zip(base.reports, got.reports):
        assert (a.pair_count, a.nullspace_dim) == (b.pair_count, b.nullspace_dim)
        # the party Gram subtracts entries of size up to D from entries of that size,
        # so its eigenvalues move by a few eps D eig_max (3.6 at most over 3,000 draws)
        for f in ("eig_min", "eig_max"):
            assert abs(getattr(a, f) - getattr(b, f)) <= 8 * np.finfo(float).eps * channel.dim * a.eig_max


@st.composite
def same_shape_channel_lists(draw) -> list[KrausChannel]:
    """Lists of 2-6 random channels of one shape, on 2-3 parties of local dims 2-3, that keep
    different numbers of their N^2 pair products.

    Each channel splits its N Kraus operators into groups.  Group g applies, with weight w_g,
    a channel cut from one Haar isometry, and writes its output to a block of rows of its own;
    so products across groups vanish, and a channel keeps the sum of its groups' squared sizes.
    """
    first = draw(small_channels())
    dims, n, d = first.input_dims, first.n_kraus, first.dim
    rows = np.zeros((n, n * d - first.kraus.shape[1], d))  # pad its outputs to the list's n * d rows
    channels = [KrausChannel("random", dims, n * d, np.concatenate([first.kraus, rows], axis=1))]
    for _ in range(draw(st.integers(1, 5))):
        groups = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
        weights /= weights[list(set(groups))].sum()
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kraus = np.zeros((n, n * d, d), dtype=complex)
        for g in set(groups):
            members = [i for i, label in enumerate(groups) if label == g]
            isometry = haar_unitary(len(members) * d, rng)[:, :d].reshape(len(members), d, d)
            kraus[members, g * d : (g + 1) * d] = np.sqrt(weights[g]) * isometry
        channels.append(KrausChannel("grouped", dims, n * d, kraus))
    return channels


@settings(max_examples=25, deadline=None)
@given(same_shape_channel_lists(), st.sampled_from([1 << 10, 3 << 11, 1 << 13, 5 << 12, 1 << 15]))
def test_gate_channels_matches_gate_channel_on_random_same_shape_lists(channels, stack_bytes):
    # small budgets cut the list into stacks that span formation chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gate, "STACK_BYTES", stack_bytes)
        got = gate_channels(channels)
    assert len(got) == len(channels)
    for verdict, channel in zip(got, channels):
        assert_same_verdict(verdict, gate_channel(channel))


def test_subset_order_invariance(bell, usd_instance, rotated_domino):
    rng = np.random.default_rng(21)
    for channel in (bell, usd_instance, rotated_domino):
        for party in range(2):
            products = party_products(channel, party)
            _, subset0, nullity0, *_ = gate_internals(channel, party, products)
            for _ in range(3):
                order = rng.permutation(len(products))
                shuffled = [products[i] for i in order]
                _, subset1, nullity1, *_ = gate_internals(channel, party, shuffled)
                assert len(subset1.indices) == len(subset0.indices)
                assert nullity1 == nullity0


def test_basis_recombination_invariance(bell, usd_instance):
    rng = np.random.default_rng(22)
    for channel in (bell, usd_instance):
        for party in range(2):
            d_party = channel.input_dims[party]
            d_rest = channel.dim // d_party
            base = (operator_basis(d_party), operator_basis(d_rest))
            report = gate_channel(channel).reports[party]
            reference = gate_spectrum(channel, party)
            scale = max(report.eig_max, 1e-30)
            for _ in range(5):
                bases = (
                    recombined_basis(base[0], rng),
                    recombined_basis(base[1], rng),
                )
                _, _, nullity1, eig_min1, eig_max1 = gate_internals(
                    channel, party, bases=bases
                )
                assert nullity1 == report.nullspace_dim
                assert abs(eig_min1 - report.eig_min) < 1e-9 * scale
                assert abs(eig_max1 - report.eig_max) < 1e-9 * scale
                spectrum = augmented_spectrum(channel, party, bases)
                assert np.max(np.abs(spectrum - reference)) < 1e-9 * scale


@pytest.mark.parametrize(
    "dims, nu",
    [((2, 2, 2), 5), ((2, 3), 4)],
    ids=["random-unitary-2x2x2", "random-unitary-2x3"],
)
def test_gate_matches_explicit_q_for_every_party(dims, nu):
    # three parties put a party in the middle, whose partial trace is over
    # factors on both sides; unequal dims make d_party != d_rest
    channel = random_unitary_channel(dims, nu, np.random.default_rng(23))
    for party in range(len(dims)):
        report = gate_channel(channel).reports[party]
        _, subset, nullity, eig_min, eig_max = gate_internals(channel, party)
        scale = max(eig_max, 1e-30)
        assert report.pair_count == len(subset.indices)
        assert report.nullspace_dim == nullity
        assert abs(report.eig_min - eig_min) < 1e-9 * scale
        assert abs(report.eig_max - eig_max) < 1e-9 * scale
        spectrum = augmented_spectrum(channel, party)
        assert np.max(np.abs(gate_spectrum(channel, party) - spectrum)) < 1e-9 * scale


def test_gate_gram_matches_direct_inner_products(bell, dephasing, domino, usd_instance):
    # the gate's Gram is <P_a, P_b>, and each party's lifted spectrum is that of its Gram plus
    # c c^dag, the unit identity coefficients c pinned where S is the diagonal pairs K_i^dag K_i,
    # which sum to I
    cases = [
        (bell, np.full(4, 0.5)),
        (dephasing, np.full(2, 1 / np.sqrt(2))),
        (usd_instance, np.full(5, 1 / np.sqrt(5))),
        (domino, None),
        (random_unitary_channel((2, 2, 2), 5, np.random.default_rng(23)), None),
    ]
    for channel, pinned in cases:
        products = pair_products(channel)
        gram, party_grams = gate_grams(channel)
        selected = products[select_independent_subset(products.reshape(len(products), -1)).indices]
        flat = selected.reshape(len(selected), -1)
        c = identity_coefficients(selected, range(len(selected)))
        if pinned is not None:
            assert np.array_equal(selected, pair_products(channel)[:: channel.n_kraus + 1])
            assert np.allclose(np.outer(c, c.conj()), np.outer(pinned, pinned), atol=1e-10)
        direct = flat.conj() @ flat.T
        assert np.max(np.abs(gram - direct)) < 1e-12 * np.max(np.abs(direct))
        for party_gram in party_grams:
            augmented = hermitian_eigenvalues(party_gram + np.outer(c, c.conj()))
            assert np.max(np.abs(lifted_spectrum(party_gram) - augmented)) < 1e-12 * augmented[-1]


def test_the_gate_gram_is_the_gram_of_its_gather(zoo_channels, dephasing):
    # <P_a, P_b> comes from the selected products themselves, one GEMM conj(P) P^T, bit for bit
    extra = random_unitary_channel((2, 2, 2), 5, np.random.default_rng(23))
    for channel in (*zoo_channels, dephasing, extra):
        products = gate_products(channel)
        assert same_bits(gate_grams(channel)[0], products.conj() @ products.T)


def test_party_gram_nullity_matches_checked_eigensolve(zoo_channels, dephasing):
    # the gate's Grams, fed unchecked to eigvalsh and the threshold rule, against
    # the checked and symmetrized hermitian_eigenvalues on the same matrices.  Party 0 of
    # alice-dephasing has a Gram of exact zeros, whose nullity is its size by the zero-Gram rule
    extra = random_unitary_channel((2, 2, 2), 5, np.random.default_rng(23))
    zero_grams = 0
    for channel in (*zoo_channels, dephasing, extra):
        for pgram in gate_grams(channel)[1]:
            evals = hermitian_eigenvalues(pgram)
            dim, eig_min, eig_max = _nullity(np.linalg.eigvalsh(pgram), 1e-13, 0.0)
            zero_grams += evals[-1] <= 0.0
            assert dim == (len(evals) if evals[-1] <= 0.0 else np.count_nonzero(evals < 1e-13 * evals[-1]))
            assert abs(eig_min - evals[0]) <= 1e-14 * evals[-1]
            assert abs(eig_max - evals[-1]) <= 1e-14 * evals[-1]
    assert zero_grams == 1


def test_conjugate_swap_maps_nullspace_to_nullspace(bell, domino, dephasing):
    # real product-rotation channel gives a non-diagonal independent subset
    c, s = np.cos(0.4), np.sin(0.4)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    mixed = KrausChannel(
        "real-mix",
        (2, 2),
        4,
        (np.eye(4) / np.sqrt(2), np.kron(rot, rot) / np.sqrt(2)),
    )
    for channel in (bell, domino, dephasing, mixed):
        n = channel.n_kraus
        for party in range(2):
            products = party_products(channel, party)
            subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
            pair_of = [divmod(i, n) for i in subset.indices]
            swapped_index = {}
            for col, (i, j) in enumerate(pair_of):
                target = j * n + i
                assert target in subset.indices  # S closed under the pair swap here
                swapped_index[col] = subset.indices.index(target)
            d_party = channel.input_dims[party]
            q = q_matrix(products, subset.indices, d_party, channel.dim // d_party)
            gram = q.conj().T @ q
            evals, vecs = np.linalg.eigh(gram)
            null_vectors = [vecs[:, k] for k in range(len(evals)) if evals[k] < 1e-12 * max(evals[-1], 1e-30)]
            scale = np.linalg.norm(q) + 1e-30
            for v in null_vectors:
                swapped = np.zeros_like(v)
                for col in range(len(v)):
                    swapped[swapped_index[col]] = np.conj(v[col])
                assert np.linalg.norm(q @ swapped) < 1e-9 * scale


def test_global_phase_leaves_reports_unchanged(bell, usd_instance):
    for channel in (bell, usd_instance):
        # phase 1j multiplies exactly in floats: every field must be bit-identical
        rephased = KrausChannel(
            channel.name, channel.input_dims, channel.output_dim,
            tuple(1j * k for k in channel.kraus),
        )
        for party in range(2):
            a = gate_channel(channel).reports[party]
            b = gate_channel(rephased).reports[party]
            assert a == b
        # a generic phase keeps integers exact and floats to rounding
        generic = KrausChannel(
            channel.name, channel.input_dims, channel.output_dim,
            tuple(np.exp(0.7j) * k for k in channel.kraus),
        )
        for party in range(2):
            a = gate_channel(channel).reports[party]
            c = gate_channel(generic).reports[party]
            assert c.nullspace_dim == a.nullspace_dim
            assert c.pair_count == a.pair_count
            assert abs(c.ratio - a.ratio) < 1e-10
