import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import KrausChannel, gate, haar_unitary, random_unitary_channel, run_sweep
from loccgate.linalg import (
    nonzero_vectors,
    nullspace_dimension,
    select_independent_subset,
    select_independent_subsets,
)
from oracle import (
    HEAVY_IDS,
    HEAVY_SHAPES,
    desk_figure_configs,
    hermitian_eigenvalues,
    mgs_subset_indices,
    operator_basis,
    pair_products,
    permute_party_to_front,
    reference_select_independent_subset,
    reference_select_independent_subsets,
    same_bits,
)

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
    taken, basis, r = subset  # the stacked scan's record for one slice
    assert taken.tolist() == [True, False, True] and subset.indices == [0, 2]
    assert basis is subset.basis and r is subset.r
    assert np.allclose(subset.r, [[np.sqrt(2), 0.0], [0.0, 5.0]], atol=1e-12)
    assert_factor([v, 2 * v, w], subset)


def test_subset_all_zero_input_is_empty():
    subset = select_independent_subset([np.zeros(4), np.zeros(4)], 1e-9)
    assert subset.indices == []
    assert subset.basis.shape == (0, 4) and subset.r.shape == (0, 0)


def assert_factor(vecs, subset, tol=1e-9):
    """S = r^T basis, orthonormal basis, triangular r, rejected vectors in the span.

    A rejected vector below ``tol`` times the largest norm counts as zero and
    is never scanned, so it is held to that zero threshold, not to the span.
    """
    vecs = [np.asarray(v, dtype=complex) for v in vecs]
    basis, r = subset.basis, subset.r
    selected = np.stack([vecs[i] for i in subset.indices])
    assert np.linalg.norm(r.T @ basis - selected) <= 1e-12 * np.linalg.norm(selected)
    assert np.allclose(basis.conj() @ basis.T, np.eye(len(basis)), atol=1e-12)
    assert np.all(np.tril(r, -1) == 0)
    assert np.all(r.diagonal().real > 0) and np.all(r.diagonal().imag == 0)
    zero_threshold = tol * max(np.linalg.norm(v) for v in vecs)
    assert all(np.linalg.norm(vecs[i]) > zero_threshold for i in subset.indices)
    for j in set(range(len(vecs))) - set(subset.indices):
        if np.linalg.norm(vecs[j]) <= zero_threshold:
            continue
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


def scan_input(channel) -> np.ndarray:
    """The packed pair products the gate scans for a lone channel, one per row."""
    [(_, packed)] = gate.packed_stacks(channel.kraus[None])
    return packed[0].reshape(len(packed[0]), -1)


def scans_like_the_conjugate_basis_reference(vecs, same) -> bool:
    """Whether the scan of ``vecs`` takes the reference's indices, with basis and factor equal by ``same``."""
    got, want = select_independent_subset(vecs, 1e-9), reference_select_independent_subset(vecs, 1e-9)
    return got.indices == want.indices and same(got.basis, want.basis) and same(got.r, want.r)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("dims, nu", HEAVY_SHAPES, ids=HEAVY_IDS)
def test_subset_keeps_the_conjugate_basis_bits_on_dense_products(dims, nu, seed):
    # projecting through conj(onb) instead of a stored conjugate copy rounds alike, bit for bit
    vecs = scan_input(random_unitary_channel(dims, nu, np.random.default_rng(seed)))
    assert scans_like_the_conjugate_basis_reference(vecs, same_bits)


def flagged_measurement(rng) -> KrausChannel:
    """16-outcome rank-one measurement on 4x4 in a Haar basis that writes outcome k to a flag."""
    phi = haar_unitary(16, rng)
    kraus = np.zeros((16, 16 * 16, 16), dtype=complex)
    for k in range(16):
        kraus[k, 16 * k : 16 * k + 16] = np.outer(phi[:, k], phi[:, k].conj())
    return KrausChannel("flagged-measurement", (4, 4), 16 * 16, kraus)


def test_subset_matches_the_conjugate_basis_reference_on_sparse_and_dependent_vectors(
    bell, domino, usd_instance, rotated_domino
):
    # where a projection sums exact zeros, conj(onb conj(r)) and conj(onb) r may give zeros
    # of opposite signs: the same values, and the same indices, but not always the same bits
    rng = np.random.default_rng(29)
    cases = [scan_input(c) for c in (bell, domino, usd_instance, rotated_domino, flagged_measurement(rng))]
    for _ in range(10):
        vecs = random_complex(rng, 6, 5)
        vecs[3] = vecs[0] - 2j * vecs[2]  # a dependent row mid-scan
        cases.append(vecs)
    assert all(scans_like_the_conjugate_basis_reference(vecs, np.array_equal) for vecs in cases)


def test_subset_array_and_list_inputs_agree():
    channel = random_unitary_channel((2, 2), 5, np.random.default_rng(3))
    vecs = pair_products(channel).reshape(25, -1)  # 25 products span the 16 dims early
    from_array = select_independent_subset(vecs, 1e-9)
    from_list = select_independent_subset(list(vecs), 1e-9)
    assert from_array.indices == from_list.indices
    assert np.array_equal(from_array.basis, from_list.basis)
    assert np.array_equal(from_array.r, from_list.r)


def random_slice(rng, n_vecs, length):
    """Vectors of a random rank, some exactly zero, some below the zero
    threshold, some multiples of an earlier vector."""
    rank = int(rng.integers(1, length + 1))
    vecs = random_complex(rng, n_vecs, rank) @ random_complex(rng, rank, length)
    for j in range(1, n_vecs):
        if rng.random() < 0.2:
            vecs[j] = complex(*rng.standard_normal(2)) * vecs[rng.integers(0, j)]
    vecs[rng.random(n_vecs) < 0.2] = 0.0
    tiny = rng.random(n_vecs) < 0.2
    vecs[tiny] = 1e-12 * random_complex(rng, int(tiny.sum()), length)
    return vecs


def assert_record_slice(taken, basis, r, vecs):
    """One slice of the stacked scan's padded record against the one-vector
    scan of its vectors: same taken mask, a factor that reproduces the selected
    vectors, and exact zeros past its k rows, which the gate's identity stage
    relies on."""
    assert np.array_equal(taken, select_independent_subset(vecs, 1e-9).taken)
    indices = np.flatnonzero(taken)
    k = len(indices)
    assert not basis[k:].any() and not r[k:].any() and not r[:, k:].any()
    selected = vecs[indices]
    assert np.linalg.norm(r[:k, :k].T @ basis[:k] - selected) <= 1e-12 * np.linalg.norm(selected)
    assert np.allclose(basis[:k].conj() @ basis[:k].T, np.eye(k), atol=1e-12)
    assert np.all(np.tril(r, -1) == 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
def test_stacked_scan_matches_the_scan_of_each_slice(n_slices, length, extra, seed):
    # slices differ in zero-filter counts, rank deficits and early-stop points
    rng = np.random.default_rng(seed)
    n_vecs = length + extra
    stack = np.stack([random_slice(rng, n_vecs, length) for _ in range(n_slices)])
    taken, basis, r = select_independent_subsets(stack, 1e-9)
    cap = min(n_vecs, length)
    assert taken.shape == (n_slices, n_vecs) and taken.dtype == bool
    assert basis.shape == (n_slices, cap, length) and r.shape == (n_slices, cap, cap)
    for b, vecs in enumerate(stack):
        assert_record_slice(taken[b], basis[b], r[b], vecs)
        assert np.flatnonzero(taken[b]).tolist() == mgs_subset_indices(vecs, 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 7), st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
def test_stacked_scan_on_packed_slices_matches_the_scan_of_each_unpadded_slice(
    n_slices, length, extra, seed
):
    # each slice keeps its nonzero vectors in order, zero-padded to the widest slice
    rng = np.random.default_rng(seed)
    raw = [random_slice(rng, length + extra, length) for _ in range(n_slices)]
    kept = [vecs[nonzero_vectors(vecs, 1e-9)[1]] for vecs in raw]
    packed = np.zeros((n_slices, max(1, *map(len, kept)), length), dtype=complex)
    for slice_, vecs in zip(packed, kept):
        slice_[: len(vecs)] = vecs
    taken, basis, r = select_independent_subsets(packed, 1e-9)
    for b, (vecs, original) in enumerate(zip(kept, raw)):
        assert_record_slice(taken[b], basis[b], r[b], packed[b])
        assert not taken[b, len(vecs) :].any()
        mask = nonzero_vectors(original, 1e-9)[1]
        assert np.flatnonzero(mask)[taken[b, : len(vecs)]].tolist() == select_independent_subset(original).indices


def case_slice(kind, rng, n_vecs, length):
    """One slice of a scan case: "independent" Gaussian vectors, accepted until the span fills;
    "gap", the same with its second vector zero; a "random" slice; its nonzero vectors first,
    "padded" with zeros; or all "zero"."""
    if kind in ("independent", "gap"):
        vecs = random_complex(rng, n_vecs, length)
        if kind == "gap":
            vecs[1:2] = 0.0
        return vecs
    vecs = random_slice(rng, n_vecs, length) if kind != "zero" else np.zeros((n_vecs, length), dtype=complex)
    if kind == "padded":
        kept = vecs[nonzero_vectors(vecs, 1e-9)[1]]
        vecs = np.zeros_like(vecs)
        vecs[: len(kept)] = kept
    return vecs


def case_stack(kinds, n_vecs, length, dead, seed):
    """A stack of ``case_slice``s whose vectors ``dead`` > 0 are twice their slice's first, so no slice accepts them."""
    rng = np.random.default_rng(seed)
    stack = np.stack([case_slice(kind, rng, n_vecs, length) for kind in kinds])
    if 0 < dead < n_vecs:
        stack[:, dead] = 2 * stack[:, 0]
    return stack


def scan_cases(stack, taken) -> set:
    """The cases of the stacked scan that a stack and its record hit."""
    n_slices, n_vecs, length = stack.shape
    accepts = taken.sum(axis=0)
    ran = np.flatnonzero(taken.any(axis=0))
    cases = {"one slice"} if n_slices == 1 else set()
    if (accepts == n_slices).any():
        cases.add("every slice accepts")
    if ran.size and not accepts[: ran[-1]].all():
        cases.add("no slice accepts")
    if ((accepts > 0) & (accepts < n_slices)).any():
        cases.add("some slices accept")
    counts = np.count_nonzero(stack.any(axis=-1), axis=1)
    if any(0 < c < n_vecs and not s[c:].any() for c, s in zip(counts, stack)):
        cases.add("zero-padded slice")
    if not stack.any():
        cases.add("no step runs")
    filled = taken.cumsum(axis=1) == length
    if n_vecs > length and len({int(np.argmax(f)) for f in filled if f.any()}) > 1:
        cases.add("spans fill at different steps")
    return cases


def assert_scans_like_the_reference(stack):
    got, want = select_independent_subsets(stack, 1e-9), reference_select_independent_subsets(stack, 1e-9)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got[0]


@pytest.mark.parametrize(
    "case, kinds, n_vecs, length, dead, seed",
    [
        ("every slice accepts", ("independent",) * 3, 3, 4, 0, 1),
        ("no slice accepts", ("independent", "independent"), 4, 5, 2, 2),
        ("some slices accept", ("independent", "gap"), 4, 5, 0, 3),
        ("zero-padded slice", ("padded", "independent"), 6, 8, 0, 4),
        ("no step runs", ("zero", "zero"), 3, 2, 0, 5),
        ("spans fill at different steps", ("gap", "independent", "random"), 7, 3, 0, 6),
        ("one slice", ("random",), 6, 4, 3, 7),
    ],
)
def test_stacked_scan_keeps_the_reference_bits_in_each_case(case, kinds, n_vecs, length, dead, seed):
    stack = case_stack(kinds, n_vecs, length, dead, seed)
    assert case in scan_cases(stack, assert_scans_like_the_reference(stack))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(["independent", "gap", "random", "padded", "zero"]), min_size=1, max_size=4),
    st.integers(1, 8),
    st.integers(1, 5),
    st.integers(0, 7),
    st.integers(0, 2**31 - 1),
)
def test_stacked_scan_keeps_the_reference_bits(kinds, n_vecs, length, dead, seed):
    assert_scans_like_the_reference(case_stack(kinds, n_vecs, length, dead, seed))


def test_stacked_scan_keeps_the_reference_bits_on_the_desk_sweep(monkeypatch):
    stacks = []
    scan = gate.select_independent_subsets
    monkeypatch.setattr(gate, "select_independent_subsets", lambda stack, *rest: stacks.append(stack) or scan(stack, *rest))
    for cfg in desk_figure_configs():
        run_sweep(cfg)
    assert len(stacks) >= 20
    for stack in stacks:
        assert_scans_like_the_reference(stack)


def test_stacked_scan_rejects_bad_args():
    with pytest.raises(ValueError, match="stack"):
        select_independent_subsets(np.ones((2, 3)), 1e-9)
    with pytest.raises(ValueError, match="stack"):
        select_independent_subsets(np.ones((2, 0, 3)), 1e-9)
    with pytest.raises(ValueError, match="tolerance"):
        select_independent_subsets(np.ones((2, 2, 3)), np.nan)


def test_subset_rejects_bad_args():
    with pytest.raises(ValueError):
        select_independent_subset([], 1e-9)
    with pytest.raises(ValueError):
        select_independent_subset([np.ones(2)], 0.0)
    with pytest.raises(ValueError):
        select_independent_subset([np.ones(2), np.ones(3)], 1e-9)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0, 2.0])
def test_subset_rejects_tolerance_outside_unit_interval(tol):
    # a nan tolerance used to keep no vector and return an empty subset
    with pytest.raises(ValueError, match="tolerance"):
        select_independent_subset(np.eye(3), tol)


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


def test_nullspace_of_a_stack_equals_the_per_slice_calls():
    rng = np.random.default_rng(13)
    grams = []
    for rank in (1, 3, 5, 5, 2):
        m = random_complex(rng, 7, rank) @ random_complex(rng, rank, 5)
        grams.append(m.conj().T @ m)
    grams.insert(2, np.zeros((5, 5)))  # a zero Gram has full nullity, neighbours unaffected
    stack = np.stack(grams).reshape(2, 3, 5, 5)
    dims, mins, maxs = nullspace_dimension(stack, 1e-9)
    per_slice = [nullspace_dimension(g, 1e-9) for g in grams]
    assert [d for row in dims for d in row] == [p[0] for p in per_slice] == [4, 2, 5, 0, 0, 3]
    assert np.array(mins).reshape(-1).tolist() == pytest.approx([p[1] for p in per_slice], abs=1e-12)
    assert np.array(maxs).reshape(-1).tolist() == pytest.approx([p[2] for p in per_slice], rel=1e-12)
    assert maxs[0][2] == 0.0
    assert [type(v) for v in per_slice[0]] == [int, float, float]  # one Gram: Python scalars


def test_nullspace_counts_eigenvalues_below_the_larger_of_its_two_thresholds():
    gram = np.diag([1e-10, 1e-6, 1e-3, 1.0]).astype(complex)
    assert nullspace_dimension(gram, 1e-8)[0] == 1  # floor 0: rel_tol alone
    assert nullspace_dimension(gram, 1e-8, 1e-12)[0] == 1  # a floor under rel_tol * eig_max moves nothing
    assert nullspace_dimension(gram, 1e-8, 1e-4)[0] == 2
    stack = np.stack([gram, 10 * gram])  # one floor per slice
    assert nullspace_dimension(stack, 1e-8, np.array([1e-2, 1e-9]))[0] == [3, 1]
    assert nullspace_dimension(np.zeros((3, 3)), 1e-8, 1.0)[0] == 3


def test_nullspace_rejects_empty():
    with pytest.raises(ValueError):
        nullspace_dimension(np.zeros((0, 0)), 1e-9)
    with pytest.raises(ValueError):
        nullspace_dimension(np.zeros((3, 0, 0)), 1e-9)
