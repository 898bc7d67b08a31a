import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import pair_products, random_unitary_channel
from loccgate.linalg import (
    hermitian_eigenvalues,
    nullspace_dimension,
    permute_party_to_front,
    select_independent_subset,
)
from oracle import mgs_subset_indices, operator_basis

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# permute_party_to_front


def test_permute_party0_is_identity():
    rng = np.random.default_rng(1)
    m = random_complex(rng, 6, 6)
    assert np.array_equal(permute_party_to_front(m, [2, 3], 0), m)


def test_permute_swaps_two_factors():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 2, 2)
    b = random_complex(rng, 3, 3)
    out = permute_party_to_front(np.kron(a, b), [2, 3], 1)
    assert np.allclose(out, np.kron(b, a), atol=1e-14)


@pytest.mark.parametrize("party", [0, 1, 2])
def test_permute_inverse_recovers_input(party):
    dims = [2, 3, 2]
    rng = np.random.default_rng(3)
    m = random_complex(rng, 12, 12)
    moved = permute_party_to_front(m, dims, party)
    # undo with the inverse index permutation
    n = len(dims)
    perm = [party] + [p for p in range(n) if p != party]
    inv = list(np.argsort(perm))
    new_dims = [dims[p] for p in perm]
    tens = moved.reshape(new_dims + new_dims)
    back = tens.transpose(inv + [n + p for p in inv]).reshape(12, 12)
    assert np.array_equal(back, m)


def test_permute_preserves_trace_hermiticity_eigenvalues():
    rng = np.random.default_rng(4)
    dims = [2, 3, 2]
    x = random_complex(rng, 12, 12)
    h = x + x.conj().T
    for party in range(3):
        out = permute_party_to_front(h, dims, party)
        assert abs(np.trace(out) - np.trace(h)) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.allclose(
            hermitian_eigenvalues(out), hermitian_eigenvalues(h), atol=1e-10
        )


def test_permute_rejects_bad_dims():
    with pytest.raises(ValueError):
        permute_party_to_front(np.eye(5), [2, 3], 0)
    with pytest.raises(ValueError):
        permute_party_to_front(np.eye(6), [2, 3], 2)


# ---------------------------------------------------------------------------
# operator_basis


def test_operator_basis_qubit_is_pauli_set():
    basis = operator_basis(2)
    expected = [np.eye(2) / np.sqrt(2), SX / np.sqrt(2), SY / np.sqrt(2), SZ / np.sqrt(2)]
    assert len(basis.elements) == 4
    for want in expected:
        assert any(np.allclose(got, want, atol=1e-14) for got in basis.elements)


def test_operator_basis_gram_is_identity_d3():
    basis = operator_basis(3)
    assert len(basis.elements) == 9
    gram = np.array(
        [[np.trace(a.conj().T @ b) for b in basis.elements] for a in basis.elements]
    )
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_operator_basis_identity_first_rest_traceless(d):
    basis = operator_basis(d)
    assert np.allclose(basis.elements[0], np.eye(d) / np.sqrt(d), atol=1e-14)
    for el in basis.elements[1:]:
        assert abs(np.trace(el)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_operator_basis_reconstructs_random_matrix(d):
    rng = np.random.default_rng(d)
    m = random_complex(rng, d, d)
    coeffs = [np.trace(el.conj().T @ m) for el in operator_basis(d).elements]
    rebuilt = sum(c * el for c, el in zip(coeffs, operator_basis(d).elements))
    assert np.max(np.abs(rebuilt - m)) < 1e-10


# ---------------------------------------------------------------------------
# hermitian_eigenvalues


def test_eigenvalues_sorted_ascending():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_eigenvalues_sigma_x():
    assert np.allclose(hermitian_eigenvalues(SX), [-1, 1])


def test_eigenvalues_match_quadratic_roots():
    # independent 2x2 oracle: (a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2)
    rng = np.random.default_rng(6)
    for _ in range(25):
        a, c = rng.standard_normal(2)
        b = complex(*rng.standard_normal(2))
        h = np.array([[a, b], [np.conj(b), c]])
        mid = (a + c) / 2
        off = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
        assert np.allclose(hermitian_eigenvalues(h), [mid - off, mid + off], atol=1e-12)


def test_eigenvalue_sum_is_trace_and_gram_psd():
    rng = np.random.default_rng(7)
    x = random_complex(rng, 8, 8)
    h = x + x.conj().T
    evals = hermitian_eigenvalues(h)
    assert abs(np.sum(evals) - np.trace(h).real) < 1e-8 * max(1.0, abs(np.trace(h)))
    q = random_complex(rng, 6, 4)
    gram_evals = hermitian_eigenvalues(q.conj().T @ q)
    assert np.min(gram_evals) > -1e-10


def test_eigenvalues_reject_bad_input():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# select_independent_subset


def test_subset_keeps_orthogonal_vectors():
    vecs = [np.array([1, 0, 0]), np.array([0, 2, 0]), np.array([0, 0, 3])]
    assert select_independent_subset(vecs, 1e-9).indices == [0, 1, 2]


def test_subset_rejects_duplicate_direction():
    v = np.array([1.0, 1.0, 0.0])
    w = np.array([0.0, 0.0, 5.0])
    subset = select_independent_subset([v, 2 * v, w], 1e-9)
    assert subset.indices == [0, 2]
    assert np.allclose(subset.r, [[np.sqrt(2), 0.0], [0.0, 5.0]], atol=1e-12)
    assert_factor([v, 2 * v, w], subset)


def test_subset_all_zero_input_is_empty():
    subset = select_independent_subset([np.zeros(4), np.zeros(4)], 1e-9)
    assert subset.indices == []
    assert subset.basis.shape == (0, 4) and subset.r.shape == (0, 0)


def assert_factor(vecs, subset, tol=1e-9):
    """S = r^T basis, orthonormal basis, triangular r, rejected vectors in the span."""
    vecs = [np.asarray(v, dtype=complex) for v in vecs]
    basis, r = subset.basis, subset.r
    selected = np.stack([vecs[i] for i in subset.indices])
    assert np.linalg.norm(r.T @ basis - selected) <= 1e-12 * np.linalg.norm(selected)
    assert np.allclose(basis.conj() @ basis.T, np.eye(len(basis)), atol=1e-12)
    assert np.all(np.tril(r, -1) == 0)
    assert np.all(r.diagonal().real > 0) and np.all(r.diagonal().imag == 0)
    for j in set(range(len(vecs))) - set(subset.indices):
        outside = vecs[j] - basis.T @ (basis.conj() @ vecs[j])
        assert np.linalg.norm(outside) <= tol * np.linalg.norm(vecs[j])


def test_subset_factor_reproduces_selected_and_spans_rejected():
    rng = np.random.default_rng(8)
    base = [random_complex(rng, 6) for _ in range(3)]
    vecs = base + [base[0] + 2j * base[2], 0.5 * base[1]]
    subset = select_independent_subset(vecs, 1e-9)
    assert subset.indices == [0, 1, 2]
    assert_factor(vecs, subset)


def test_subset_factor_on_pair_products(zoo_channels):
    for channel in zoo_channels:
        vecs = pair_products(channel).reshape(channel.n_kraus**2, -1)
        assert_factor(vecs, select_independent_subset(vecs, 1e-9))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 2 ** 31 - 1),
)
def test_subset_size_matches_rank(length, n_independent, n_dependent, seed):
    # plant the rank by construction: an orthonormal block plus combinations of it
    n_independent = min(n_independent, length)
    rng = np.random.default_rng(seed)
    block, _ = np.linalg.qr(random_complex(rng, length, n_independent))
    base = [block[:, i] for i in range(n_independent)]
    extras = []
    for _ in range(n_dependent):
        weights = rng.standard_normal(n_independent)
        extras.append(sum(w * b for w, b in zip(weights, base)))
    vecs = base + extras
    subset = select_independent_subset(vecs, 1e-9)
    stacked = np.stack(vecs, axis=1)
    nullity, _, _ = nullspace_dimension(stacked.conj().T @ stacked, 1e-12)
    assert len(subset.indices) == stacked.shape[1] - nullity


def test_subset_matches_mgs_reference(zoo_channels):
    rng = np.random.default_rng(13)
    # 2x2x2/12 fills the 64-dim span partway through its 144 products, so the
    # early stop at a full span is compared too
    extra = [
        random_unitary_channel(dims, nu, rng)
        for dims, nu in (((2, 2, 2), 8), ((3, 3), 11), ((2, 2, 2), 12))
    ]
    for channel in [*zoo_channels, *extra]:
        vecs = pair_products(channel).reshape(channel.n_kraus**2, -1)
        assert select_independent_subset(vecs, 1e-9).indices == mgs_subset_indices(vecs, 1e-9)


def test_subset_array_and_list_inputs_agree():
    channel = random_unitary_channel((2, 2), 5, np.random.default_rng(3))
    vecs = pair_products(channel).reshape(25, -1)  # 25 products span the 16 dims early
    from_array = select_independent_subset(vecs, 1e-9)
    from_list = select_independent_subset(list(vecs), 1e-9)
    assert from_array.indices == from_list.indices
    assert np.array_equal(from_array.basis, from_list.basis)
    assert np.array_equal(from_array.r, from_list.r)


def test_subset_rejects_bad_args():
    with pytest.raises(ValueError):
        select_independent_subset([], 1e-9)
    with pytest.raises(ValueError):
        select_independent_subset([np.ones(2)], 0.0)
    with pytest.raises(ValueError):
        select_independent_subset([np.ones(2), np.ones(3)], 1e-9)


# ---------------------------------------------------------------------------
# nullspace_dimension


def test_nullspace_zero_matrix():
    m = np.zeros((3, 2))
    dim, eig_min, eig_max = nullspace_dimension(m.T @ m, 1e-13)
    assert dim == 2
    assert eig_max == 0.0


def test_nullspace_identity():
    dim, eig_min, eig_max = nullspace_dimension(np.eye(3), 1e-13)
    assert dim == 0
    assert abs(eig_min - 1.0) < 1e-12 and abs(eig_max - 1.0) < 1e-12


def test_nullspace_rank_one_outer_product():
    rng = np.random.default_rng(10)
    u = random_complex(rng, 4)
    v = random_complex(rng, 3)
    m = np.outer(u, v.conj())
    dim, _, _ = nullspace_dimension(m.conj().T @ m, 1e-9)
    assert dim == 2


def test_nullspace_matches_hermitian_eigenvalue_count():
    # reference: the checked and symmetrized eigensolve on the same Gram
    rng = np.random.default_rng(12)
    for rows, cols, rank in ((6, 4, 2), (9, 9, 5), (3, 5, 3), (16, 16, 16), (40, 30, 12)):
        m = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        gram = m.conj().T @ m
        evals = hermitian_eigenvalues(gram)
        dim, eig_min, eig_max = nullspace_dimension(gram, 1e-9)
        assert dim == np.count_nonzero(evals < 1e-9 * evals[-1]) == cols - rank
        assert abs(eig_min - evals[0]) <= 1e-12 * evals[-1]
        assert abs(eig_max - evals[-1]) <= 1e-12 * evals[-1]


def test_nullspace_rejects_empty():
    with pytest.raises(ValueError):
        nullspace_dimension(np.zeros((0, 0)), 1e-9)
