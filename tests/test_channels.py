import math

import numpy as np
import pytest

from loccgate import (
    KrausChannel,
    UsdParams,
    apply_channel,
    channels_equal,
    check_completeness,
    choi_matrix,
    gate_channel,
    haar_unitary,
    kraus_rank,
    lone_kraus_operator,
    operator_schmidt_rank,
    remix_kraus,
    sample_rng,
    sample_usd_params,
    validate_density_matrix,
)
from loccgate.channels import CompletenessError, completeness_residuals, kraus_ranks
from loccgate.zoo import random_unitary_kraus, rotated_domino_kraus, usd_kraus
from oracle import einsum_completeness, hermitian_eigenvalues, traced_peak
from oracle import lone_kraus_operator as choi_lone_kraus_operator
from oracle import operator_schmidt_rank as permuted_schmidt_rank


def identity_channel(dims=(2, 2)) -> KrausChannel:
    total = int(np.prod(dims))
    return KrausChannel("identity", tuple(dims), total, (np.eye(total, dtype=complex),))


def random_density(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def test_channel_construction_validates_shapes():
    with pytest.raises(ValueError):
        KrausChannel("bad", (2, 2), 4, (np.eye(3),))
    with pytest.raises(ValueError):
        KrausChannel("bad", (), 4, (np.eye(4),))
    with pytest.raises(ValueError):
        KrausChannel("bad", (2, 2), 4, ())
    with pytest.raises(ValueError):
        KrausChannel("bad", (2, 2), 4, (np.full((4, 4), np.nan),))
    # the error names the first operator with a non-finite entry
    ops = [np.eye(4, dtype=complex) / 2 for _ in range(4)]
    ops[2][1, 3] = np.nan
    with pytest.raises(ValueError, match="^Kraus operator 2 has non-finite entries$"):
        KrausChannel("bad", (2, 2), 4, tuple(ops))
    ops[1][0, 0] = np.inf
    with pytest.raises(ValueError, match="^Kraus operator 1 has non-finite entries$"):
        KrausChannel("bad", (2, 2), 4, tuple(ops))
    with pytest.raises(ValueError, match="^channel needs at least one Kraus operator$"):
        KrausChannel("bad", (2, 2), 4, np.zeros((0, 4, 4)))
    with pytest.raises(ValueError, match=r"^Kraus operator 1 has shape \(3, 3\), expected \(4, 4\)$"):
        KrausChannel("bad", (2, 2), 4, [np.eye(4), np.eye(3)])


def test_channel_holds_a_read_only_copy_of_its_operators():
    # complex input, which np.asarray would share rather than copy
    ops = np.eye(4, dtype=complex)[None].repeat(2, axis=0) / np.sqrt(2)
    channel = KrausChannel("identity", (2, 2), 4, ops)
    ops[0] *= 3.0
    assert check_completeness(channel) < 1e-15
    assert isinstance(channel.kraus, np.ndarray)
    assert channel.kraus.shape == (2, 4, 4) and channel.kraus.dtype == complex
    assert not np.shares_memory(channel.kraus, ops)
    with pytest.raises(ValueError):
        channel.kraus[0, 0, 0] = 5.0
    # a list of real operators is stacked into the same complex layout
    listed = KrausChannel("identity", (2, 2), 4, [np.eye(4)])
    assert listed.kraus.shape == (1, 4, 4) and listed.kraus.dtype == complex
    assert not listed.kraus.flags.writeable


def test_completeness_identity_and_bell(bell):
    assert check_completeness(identity_channel()) == 0.0
    assert check_completeness(bell) < 1e-12


def test_completeness_every_zoo_channel(zoo_channels):
    for channel in zoo_channels:
        assert check_completeness(channel) < 1e-9


def wide_channel(width=2048) -> KrausChannel:
    """One 1 x width Kraus operator: sum K^dag K has rank 1 and cannot be the identity."""
    return KrausChannel("wide", (width, 1), 1, (np.full((1, width), width ** -0.5),))


def test_completeness_fails_without_a_d_by_d_matrix_when_the_rank_forbids_it():
    def check_and_gate():
        residual = check_completeness(wide_channel())
        with pytest.raises(CompletenessError, match="'wide' has completeness residual inf"):
            gate_channel(wide_channel())
        return residual

    peak, residual = traced_peak(check_and_gate)
    assert residual == math.inf
    assert peak < 2048 ** 2 * 16 // 8  # an eighth of one complex 2048 x 2048 matrix


def test_batched_completeness_residuals_equal_the_per_channel_ones(monkeypatch, zoo_channels, dephasing):
    for channel in [*zoo_channels, dephasing, identity_channel()]:
        stack = np.stack([channel.kraus, 1.1 * channel.kraus, channel.kraus[::-1]])
        per_channel = [check_completeness(KrausChannel("row", channel.input_dims, channel.output_dim, k)) for k in stack]
        assert completeness_residuals(stack).tolist() == per_channel
        for k, residual in zip(stack, per_channel):  # the loop over Kraus operators, as a reference
            assert abs(residual - np.max(np.abs(sum(ki.conj().T @ ki for ki in k) - np.eye(channel.dim)))) < 1e-15

    def no_gram(*args, **kwargs):
        raise AssertionError("a D x D matrix was formed")

    monkeypatch.setattr(np, "einsum", no_gram)
    wide = np.stack([wide_channel().kraus] * 3)  # N d_out = 1 < D = 2048
    assert completeness_residuals(wide).tolist() == [math.inf] * 3
    assert check_completeness(wide_channel()) == math.inf


def desk_stacks(seed=1):
    """The Kraus stacks of the desk figure sweeps' rows at one seed."""
    rngs = [sample_rng(seed, s) for s in range(200)]
    yield rotated_domino_kraus(np.pi / 4 - np.array([rng.uniform(0.0, np.pi / 4, 4) for rng in rngs]))
    yield usd_kraus([sample_usd_params(rng) for rng in rngs])
    for dims, nu_values in (((2, 2), range(2, 7)), ((2, 3), range(2, 9))):
        for nu in nu_values:
            yield random_unitary_kraus(dims, nu, rngs[:20])


def test_completeness_gemm_residuals_match_the_einsum_sum(zoo_channels, dephasing):
    # one GEMM per channel sums in another order than einsum: the residuals agree to rounding
    complex_usd = usd_kraus([UsdParams(0.3 + 0.2j, np.sqrt(0.87), 0.5j, np.sqrt(0.75))])[0]
    stacks = [np.stack([k, 1.1 * k, k[::-1]]) for k in (*(c.kraus for c in zoo_channels), dephasing.kraus, complex_usd)]
    for kraus in (*stacks, *desk_stacks()):
        reference, scale = einsum_completeness(kraus)
        bound = 8 * np.finfo(float).eps * np.maximum(1.0, scale)
        assert (np.abs(completeness_residuals(kraus) - reference) <= bound).all()


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 4)
    assert np.allclose(apply_channel(identity_channel(), rho), rho, atol=1e-14)


def test_apply_bell_channel_on_00(bell):
    # |00> = (|phi+> + |phi->)/sqrt(2), so the output keeps only those two terms
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    phi_plus = bell.kraus[0]
    phi_minus = bell.kraus[1]
    expected = 0.5 * (phi_plus + phi_minus)
    assert np.allclose(apply_channel(bell, rho), expected, atol=1e-12)


def test_apply_preserves_trace_on_zoo(zoo_channels):
    rng = np.random.default_rng(1)
    for channel in zoo_channels:
        rho = random_density(rng, channel.dim)
        out = apply_channel(channel, rho)
        assert abs(np.trace(out) - 1.0) < 1e-10


def test_apply_rejects_wrong_dimension(bell):
    with pytest.raises(ValueError):
        apply_channel(bell, np.eye(3))


def test_apply_output_is_a_state_on_zoo(zoo_channels):
    rng = np.random.default_rng(12)
    for channel in zoo_channels:
        if channel.output_dim != channel.dim:
            continue  # flag-space outputs are still states, same checks apply
        rho = random_density(rng, channel.dim)
        validate_density_matrix(apply_channel(channel, rho))


def test_validate_density_matrix_rejections():
    validate_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.ones((2, 3)))


def test_choi_identity_rank_one_trace_d():
    j = choi_matrix(identity_channel())
    evals = hermitian_eigenvalues(j)
    assert abs(np.trace(j).real - 4.0) < 1e-12
    assert np.count_nonzero(evals > 1e-9 * evals[-1]) == 1


def test_choi_hermitian_psd_trace_d_on_zoo(zoo_channels):
    for channel in zoo_channels:
        j = choi_matrix(channel)
        assert np.max(np.abs(j - j.conj().T)) < 1e-12
        evals = hermitian_eigenvalues(j)
        assert evals[0] > -1e-10
        assert abs(np.trace(j).real - channel.dim) < 1e-8


def test_choi_bell_rank_four(bell):
    evals = hermitian_eigenvalues(choi_matrix(bell))
    assert np.count_nonzero(evals > 1e-9 * evals[-1]) == 4


def test_apply_matches_choi_contraction_oracle(zoo_channels):
    # independent action oracle: reshape J and contract with rho on the input leg
    rng = np.random.default_rng(2)
    for channel in zoo_channels:
        rho = random_density(rng, channel.dim)
        j4 = choi_matrix(channel).reshape(
            channel.output_dim, channel.dim, channel.output_dim, channel.dim, order="F"
        )
        oracle = np.einsum("ijkl,jl->ik", j4, rho)
        assert np.max(np.abs(apply_channel(channel, rho) - oracle)) < 1e-9


def test_remix_identity_matrix_is_noop(bell):
    out = remix_kraus(bell, np.eye(4))
    for a, b in zip(out.kraus, bell.kraus):
        assert np.array_equal(a, b)


def test_remix_preserves_choi_and_completeness(zoo_channels):
    rng = np.random.default_rng(3)
    for channel in zoo_channels:
        for _ in range(20):
            u = haar_unitary(channel.n_kraus, rng)
            remixed = remix_kraus(channel, u)
            _, dist = channels_equal(channel, remixed, 1e-10)
            assert dist < 1e-10
            assert kraus_rank(remixed) == kraus_rank(channel)


def test_remix_with_padding(bell):
    rng = np.random.default_rng(4)
    u = haar_unitary(6, rng)
    remixed = remix_kraus(bell, u)
    assert remixed.n_kraus == 6
    assert check_completeness(remixed) < 1e-10
    _, dist = channels_equal(bell, remixed, 1e-10)
    assert dist < 1e-10


def test_remix_rejects_non_isometry(bell):
    with pytest.raises(ValueError):
        remix_kraus(bell, np.ones((4, 4)))
    with pytest.raises(ValueError):
        remix_kraus(bell, np.eye(2))


def test_channels_equal_self_and_mismatch(bell, domino):
    ok, dist = channels_equal(bell, bell)
    assert ok and dist == 0.0
    with pytest.raises(ValueError):
        channels_equal(bell, domino)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_channels_equal_rejects_non_finite_or_negative_tol(bell, tol):
    # an infinite tolerance used to call any two channels equal
    with pytest.raises(ValueError, match="tolerance"):
        channels_equal(bell, bell, tol)
    assert channels_equal(bell, bell, 0.0) == (True, 0.0)


def test_kraus_rank_values(bell, zoo_channels):
    assert kraus_rank(identity_channel()) == 1
    assert kraus_rank(bell) == 4


def test_kraus_ranks_of_a_stack_equal_the_per_channel_ranks(bell):
    rng = np.random.default_rng(14)
    u = haar_unitary(4, rng)
    channels = [
        bell,
        KrausChannel("rank-one", (2, 2), 4, [u / 2] * 4),
        KrausChannel("rank-two", (2, 2), 4, [u / 2, u / 2, bell.kraus[1] / np.sqrt(2), 0 * u]),
    ]
    ranks = kraus_ranks(np.stack([c.kraus for c in channels]))
    assert ranks == [kraus_rank(c) for c in channels] == [4, 1, 2]
    assert type(kraus_rank(bell)) is int


def test_kraus_rank_matches_choi_rank_on_padded_remixes(bell, zoo_channels):
    # duplicated Kraus operators make the list longer than the rank
    doubled = KrausChannel(
        "doubled-bell", bell.input_dims, bell.output_dim,
        tuple(k / np.sqrt(2) for k in [*bell.kraus] * 2),
    )
    rng = np.random.default_rng(12)
    for channel in [*zoo_channels, doubled]:
        remixed = remix_kraus(channel, haar_unitary(channel.n_kraus + 2, rng))
        evals = hermitian_eigenvalues(choi_matrix(remixed))
        choi_rank = int(np.count_nonzero(evals > 1e-9 * evals[-1]))
        assert kraus_rank(remixed) == choi_rank
    assert kraus_rank(doubled) == 4


def test_lone_kraus_operator_recovers_unitary():
    rng = np.random.default_rng(5)
    u = haar_unitary(4, rng)
    channel = KrausChannel("u", (2, 2), 4, (u,))
    lone = lone_kraus_operator(channel)
    # defined up to a global phase
    phase = np.vdot(lone.reshape(-1), u.reshape(-1))
    phase /= abs(phase)
    assert np.allclose(phase * lone, u, atol=1e-10)


def test_lone_kraus_operator_matches_choi_eigenvector():
    rng = np.random.default_rng(15)
    channels = []
    for dims in ((2, 2), (2, 3, 2), (4, 4)):
        d = int(np.prod(dims))
        unitary = KrausChannel("u", dims, d, (haar_unitary(d, rng),))
        channels.append(remix_kraus(unitary, haar_unitary(3, rng)))  # zero-padded to 3
    isometry = haar_unitary(6, rng)[:, :4]
    channels.append(KrausChannel("iso", (2, 2), 6, (isometry,)))
    for channel in channels:
        assert kraus_rank(channel) == 1
        lone = lone_kraus_operator(channel)
        reference = choi_lone_kraus_operator(channel)
        assert lone.shape == reference.shape == (channel.output_dim, channel.dim)
        phase = np.vdot(lone.reshape(-1), reference.reshape(-1))
        phase /= abs(phase)
        assert np.max(np.abs(phase * lone - reference)) < 1e-12


def _operator_of_schmidt_rank(rng, dims, party, rank):
    """Random sum of ``rank`` products A_k (on the party) times B_k (on the rest)."""
    before = int(np.prod(dims[:party]))
    after = int(np.prod(dims[party + 1 :]))
    d = dims[party]
    a = rng.standard_normal((rank, d, d)) + 1j * rng.standard_normal((rank, d, d))
    shape = (rank, before, after, before, after)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    total = before * d * after
    return np.einsum("kab,kxyuv->xayubv", a, b).reshape(total, total)


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
def test_operator_schmidt_rank_matches_permute_then_realign(dims):
    rng = np.random.default_rng(16)
    total = int(np.prod(dims))
    for party, d in enumerate(dims):
        full = min(d * d, (total // d) ** 2)
        for rank in (1, 2, full):
            m = _operator_of_schmidt_rank(rng, dims, party, rank)
            assert permuted_schmidt_rank(m, dims, party) == rank
            for cut in range(len(dims)):  # every cut, not only the one built in
                assert operator_schmidt_rank(m, dims, cut) == permuted_schmidt_rank(m, dims, cut)


def test_operator_schmidt_rank_product():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert operator_schmidt_rank(np.kron(a, b), [2, 3], 0) == 1
    assert operator_schmidt_rank(np.kron(a, b), [2, 3], 1) == 1


def test_operator_schmidt_rank_swap_and_cnot():
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    assert operator_schmidt_rank(swap, [2, 2], 0) == 4
    cnot = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
    assert operator_schmidt_rank(cnot, [2, 2], 0) == 2


def test_operator_schmidt_rank_rejects_non_square():
    with pytest.raises(ValueError):
        operator_schmidt_rank(np.ones((2, 4)), [2, 2], 0)
