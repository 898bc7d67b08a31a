import numpy as np
import pytest

from loccgate import (
    KrausChannel,
    VERDICT_DEGENERATE_IDENTITY_SPAN,
    VERDICT_DEGENERATE_KRAUS_RANK_ONE,
    VERDICT_FIRST_MOVE_CANDIDATES,
    VERDICT_NOT_LOCC,
    gate_channel,
    gate_party,
    haar_unitary,
    identity_vector,
    pair_products,
    random_unitary_channel,
    remix_kraus,
    select_independent_subset,
)
from loccgate.gate import IdentityOutsideSpanError, channel_gram, party_gram, valid_rel_tol
from loccgate.linalg import nullspace_dimension
from oracle import (
    augmented_q,
    hermitian_eigenvalues,
    augmented_spectrum,
    build_q,
    identity_coefficients,
    operator_basis,
    party_products,
    q_matrix,
    recombined_basis,
)


def identity_channel(dims=(2, 2)) -> KrausChannel:
    total = int(np.prod(dims))
    return KrausChannel("identity", tuple(dims), total, (np.eye(total, dtype=complex),))


def gate_internals(channel, party, products=None, bases=None, rel_tol=1e-13):
    """Explicit augmented Q and its nullspace data for a product ordering."""
    q_aug, subset = augmented_q(channel, party, bases, products)
    nullity, eig_min, eig_max = nullspace_dimension(q_aug.conj().T @ q_aug, rel_tol)
    return q_aug, subset, nullity, eig_min, eig_max


def gate_spectrum(channel, party):
    """Ascending eigenvalues of the Gram the gate solves for one party."""
    selected, gram = channel_gram(channel)
    return hermitian_eigenvalues(party_gram(selected, gram, channel.input_dims, party))


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


def test_pair_products_adjoint_symmetry(usd_instance):
    n = usd_instance.n_kraus
    products = pair_products(usd_instance)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(products[i * n + j].conj().T, products[j * n + i])


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


def test_identity_vector_bell(bell):
    products = pair_products(bell)
    subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
    c = identity_vector(subset)
    assert np.allclose(c, [0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_identity_vector_dephasing(dephasing):
    products = pair_products(dephasing)
    subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
    c = identity_vector(subset)
    assert np.allclose(c, np.array([1, 1]) / np.sqrt(2), atol=1e-12)


def test_identity_vector_usd_uniform(usd_instance):
    products = pair_products(usd_instance)
    subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
    assert subset.indices == [0, 6, 12, 18, 24]  # five diagonal pairs
    c = identity_vector(subset)
    assert np.allclose(c, np.full(5, 1 / np.sqrt(5)), atol=1e-10)


def test_identity_vector_rejects_identity_outside_span():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    products = [e0, 2 * e0]
    subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
    with pytest.raises(IdentityOutsideSpanError, match="not in the span"):
        identity_vector(subset)


def test_identity_vector_matches_normal_equations():
    rng = np.random.default_rng(9)
    products = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    products.append(np.eye(3) + 0.5 * products[0] - 2j * products[2])
    subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
    assert subset.indices == [0, 1, 2, 3, 4]
    # independent oracle: solve the normal equations directly, then normalize
    b = np.stack([p.reshape(-1) for p in products], axis=1)
    target = np.eye(3, dtype=complex).reshape(-1)
    oracle = np.linalg.solve(b.conj().T @ b, b.conj().T @ target)
    assert np.allclose(identity_vector(subset), oracle / np.linalg.norm(oracle), atol=1e-9)


# ---------------------------------------------------------------------------
# per-party gate


def test_gate_party_bell(bell):
    for party in (0, 1):
        report = gate_party(bell, party)
        assert report.nullspace_dim == 0
        assert not report.can_measure_first
        assert abs(report.ratio - 1.0) < 1e-9
        assert report.pair_count == 4
        assert report.q_rows == 13


def test_gate_party_dephasing(dephasing):
    alice = gate_party(dephasing, 0)
    assert alice.nullspace_dim == 1
    assert alice.can_measure_first
    bob = gate_party(dephasing, 1)
    assert bob.nullspace_dim == 0
    assert not bob.can_measure_first
    # the nullspace direction for Alice is (1,-1)/sqrt(2)
    q_aug, *_ = gate_internals(dephasing, 0)
    v = np.array([1, -1]) / np.sqrt(2)
    assert np.linalg.norm(q_aug @ v) < 1e-12


def test_gate_party_identity_channel():
    for party in (0, 1):
        report = gate_party(identity_channel(), party)
        assert report.nullspace_dim == 0
        assert report.q_rows == 13
        assert report.pair_count == 1


def test_gate_party_rejects_incomplete_channel():
    broken = KrausChannel("broken", (2, 2), 4, (0.5 * np.eye(4),))
    with pytest.raises(ValueError):
        gate_party(broken, 0)


def test_gate_party_trivial_rest_factor():
    # a party whose complement is one-dimensional leaves no unaugmented rows
    channel = KrausChannel("trivial-rest", (2, 1), 2, (np.eye(2, dtype=complex),))
    report = gate_party(channel, 0)
    assert report.q_rows == 1  # just the identity-coefficient row
    assert report.nullspace_dim == 0
    other = gate_party(channel, 1)
    assert other.q_rows == 1 * 3 + 1


def test_ratio_within_unit_interval(zoo_channels):
    for channel in zoo_channels:
        for party in range(channel.n_parties):
            report = gate_party(channel, party)
            assert 0.0 <= report.ratio <= 1.0 + 1e-12
            assert report.nullspace_dim <= report.pair_count
            d_party = channel.input_dims[party]
            d_rest = channel.dim // d_party
            assert report.q_rows == d_party**2 * (d_rest**2 - 1) + 1


# ---------------------------------------------------------------------------
# channel-level verdicts


def test_gate_channel_bell(bell):
    verdict = gate_channel(bell)
    assert verdict.verdict == VERDICT_NOT_LOCC
    assert abs(verdict.lambda_hat - 1.0) < 1e-9


def test_gate_channel_domino(domino):
    verdict = gate_channel(domino)
    assert verdict.verdict == VERDICT_NOT_LOCC
    assert abs(verdict.lambda_hat - 1.0 / 6.0) < 1e-6


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


def test_gate_channel_needs_two_parties():
    single = KrausChannel("single", (4,), 4, (np.eye(4),))
    with pytest.raises(ValueError):
        gate_channel(single)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0, 2.0])
def test_gate_rejects_rel_tol_outside_unit_interval(rotated_domino, tol):
    # nan or a negative threshold counts no eigenvalue as zero, which fakes NOT_LOCC
    assert not valid_rel_tol(tol)
    with pytest.raises(ValueError, match="rel_tol"):
        gate_channel(rotated_domino, tol)
    with pytest.raises(ValueError, match="rel_tol"):
        gate_party(rotated_domino, 0, tol)


def test_gate_accepts_rel_tol_inside_unit_interval(bell):
    for tol in (5e-324, 1e-13, 0.5, np.nextafter(1.0, 0.0)):
        assert valid_rel_tol(tol)
        assert gate_channel(bell, tol).reports == tuple(gate_party(bell, p, tol) for p in (0, 1))


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
        baseline = [gate_party(channel, p).nullspace_dim for p in range(channel.n_parties)]
        for i in range(10):
            size = channel.n_kraus + (2 if i % 2 else 0)  # half the remixes pad
            remixed = remix_kraus(channel, haar_unitary(size, rng))
            dims = [gate_party(remixed, p).nullspace_dim for p in range(channel.n_parties)]
            assert dims == baseline


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
            report = gate_party(channel, party)
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
        report = gate_party(channel, party)
        _, subset, nullity, eig_min, eig_max = gate_internals(channel, party)
        scale = max(eig_max, 1e-30)
        assert report.pair_count == len(subset.indices)
        assert report.nullspace_dim == nullity
        assert abs(report.eig_min - eig_min) < 1e-9 * scale
        assert abs(report.eig_max - eig_max) < 1e-9 * scale
        spectrum = augmented_spectrum(channel, party)
        assert np.max(np.abs(gate_spectrum(channel, party) - spectrum)) < 1e-9 * scale


def test_channel_gram_matches_direct_inner_products(bell, domino, usd_instance):
    extra = random_unitary_channel((2, 2, 2), 5, np.random.default_rng(23))
    for channel in (bell, domino, usd_instance, extra):
        selected, gram = channel_gram(channel)
        flat = selected.reshape(len(selected), -1)
        c = identity_coefficients(selected, range(len(selected)))
        direct = flat.conj() @ flat.T + np.outer(c, c.conj())
        assert np.max(np.abs(gram - direct)) < 1e-12 * np.max(np.abs(direct))


def test_party_gram_nullity_matches_checked_eigensolve(zoo_channels, dephasing):
    # the gate's Grams, fed unchecked to nullspace_dimension, against the
    # checked and symmetrized hermitian_eigenvalues on the same matrices
    extra = random_unitary_channel((2, 2, 2), 5, np.random.default_rng(23))
    for channel in (*zoo_channels, dephasing, extra):
        selected, gram = channel_gram(channel)
        for party in range(channel.n_parties):
            pgram = party_gram(selected, gram, channel.input_dims, party)
            evals = hermitian_eigenvalues(pgram)
            dim, eig_min, eig_max = nullspace_dimension(pgram, 1e-13)
            assert dim == np.count_nonzero(evals < 1e-13 * evals[-1])
            assert abs(eig_min - evals[0]) <= 1e-14 * evals[-1]
            assert abs(eig_max - evals[-1]) <= 1e-14 * evals[-1]


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
            a = gate_party(channel, party)
            b = gate_party(rephased, party)
            assert a == b
        # a generic phase keeps integers exact and floats to rounding
        generic = KrausChannel(
            channel.name, channel.input_dims, channel.output_dim,
            tuple(np.exp(0.7j) * k for k in channel.kraus),
        )
        for party in range(2):
            a = gate_party(channel, party)
            c = gate_party(generic, party)
            assert c.nullspace_dim == a.nullspace_dim
            assert c.pair_count == a.pair_count
            assert abs(c.ratio - a.ratio) < 1e-10
