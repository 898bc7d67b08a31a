import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import (
    RotatedDominoParams,
    UsdParams,
    bell_channel,
    domino_channel,
    gate_channel,
    haar_unitary,
    random_unitary_channel,
    rotated_domino_channel,
    sample_rng,
    sample_usd_params,
    usd_channel,
    usd_oneway_protocol,
    validate_usd_params,
)
from loccgate import zoo
from oracle import check_completeness, rotated_domino_states, usd_states

QUARTER_PI = np.pi / 4


# ---------------------------------------------------------------------------
# Bell


def test_bell_completeness_and_orthogonality():
    channel = bell_channel()
    assert channel.input_dims == (2, 2)
    assert channel.output_dim == 4
    assert check_completeness(channel) < 1e-12
    for i, ki in enumerate(channel.kraus):
        for j, kj in enumerate(channel.kraus):
            if i != j:
                assert np.max(np.abs(ki.conj().T @ kj)) < 1e-12


# ---------------------------------------------------------------------------
# rotated domino


angles4 = st.tuples(*[st.floats(0.0, QUARTER_PI, allow_nan=False) for _ in range(4)])


@settings(max_examples=30, deadline=None)
@given(angles4)
def test_rotated_domino_states_orthonormal(theta):
    # the channel projects onto the nine written-out states, which are orthonormal
    states = rotated_domino_states(theta)
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12
    kraus = rotated_domino_channel(RotatedDominoParams(theta)).kraus
    assert np.max(np.abs(kraus - [np.outer(v, v.conj()) for v in states])) < 1e-15


def test_rotated_domino_theta1_zero_special_case():
    states = zoo._rotated_domino_states([(0.0, 0.2, 0.3, 0.4)])[0]
    e0, e1 = np.zeros(3), np.zeros(3)
    e0[0], e1[1] = 1.0, 1.0
    assert np.allclose(states[1], np.kron(e0, e0), atol=1e-14)
    assert np.allclose(states[2], -np.kron(e0, e1), atol=1e-14)
    channel = rotated_domino_channel(RotatedDominoParams((0.0, 0.2, 0.3, 0.4)))
    assert np.allclose(channel.kraus[2], np.diag([0, 1, 0, 0, 0, 0, 0, 0, 0.0]), atol=1e-14)


def test_rotated_domino_rejects_out_of_range():
    with pytest.raises(ValueError):
        RotatedDominoParams((0.1, 0.2, 0.3, 1.0))
    with pytest.raises(ValueError):
        RotatedDominoParams((-0.1, 0.2, 0.3, 0.4))


def test_rotated_domino_lambda_continuity():
    # small angle perturbations move lambda_hat only slightly
    rng = np.random.default_rng(30)
    for _ in range(5):
        theta = np.array([rng.uniform(0.05, QUARTER_PI - 0.01) for _ in range(4)])
        base = gate_channel(rotated_domino_channel(RotatedDominoParams(tuple(theta))))
        bumped = theta + rng.uniform(-1e-3, 1e-3, size=4)
        bumped = np.clip(bumped, 0.0, QUARTER_PI)
        moved = gate_channel(rotated_domino_channel(RotatedDominoParams(tuple(bumped))))
        assert abs(base.lambda_hat - moved.lambda_hat) < 0.05


# ---------------------------------------------------------------------------
# Haar unitaries and random unitary channels


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 6):
        u = haar_unitary(d, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10


def test_haar_unitary_deterministic_for_fixed_seed():
    u1 = haar_unitary(4, np.random.default_rng(42))
    u2 = haar_unitary(4, np.random.default_rng(42))
    assert np.array_equal(u1, u2)


def test_haar_column_uniformity():
    # E|U[0,0]|^2 = 1/d for Haar measure
    rng = np.random.default_rng(32)
    samples = [abs(haar_unitary(4, rng)[0, 0]) ** 2 for _ in range(10000)]
    assert abs(np.mean(samples) - 0.25) < 0.01


def _haar_reference(d, rng):
    # one Ginibre draw and one unbatched QR per unitary
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3), (4, 4), (2, 2, 2, 2), (5, 6)])
def test_random_unitary_channel_matches_successive_haar_draws(dims):
    total = math.prod(dims)
    for nu in (1, 2, 5, 8, 20):
        channel = random_unitary_channel(dims, nu, np.random.default_rng(nu))
        rng, ref_rng = np.random.default_rng(nu), np.random.default_rng(nu)
        scale = 1.0 / np.sqrt(nu)
        assert channel.n_kraus == nu
        for k in channel.kraus:
            u = haar_unitary(total, rng)
            assert np.array_equal(k, scale * u)
            assert np.array_equal(u, _haar_reference(total, ref_rng))


def test_zoo_kets_match_np_kron(monkeypatch):
    rotations = [RotatedDominoParams((0.0, 0.2, 0.3, 0.4)), RotatedDominoParams((0.3, 0.5, 0.2, 0.7))]
    usd = [valid_params(), sample_usd_params(np.random.default_rng(5))]

    def build():
        arrays = [*bell_channel().kraus, *domino_channel().kraus]
        for p in rotations:
            arrays += [*zoo._rotated_domino_states([p.theta])[0], *rotated_domino_channel(p).kraus]
        for p in usd:
            arrays += [*usd_channel(p).kraus]
        return arrays

    built = build()
    monkeypatch.setattr(zoo, "_kron", np.kron)
    reference = build()
    assert len(built) == len(reference) == 59
    assert all(np.array_equal(a, b) for a, b in zip(built, reference))


def test_random_unitary_channel_complete():
    rng = np.random.default_rng(33)
    for n_u in (1, 2, 5):
        channel = random_unitary_channel((2, 2), n_u, rng)
        assert check_completeness(channel) < 1e-10
        assert channel.n_kraus == n_u


# ---------------------------------------------------------------------------
# unambiguous discrimination family


def valid_params(**overrides):
    values = dict(
        alpha1=0.4,
        beta1=np.sqrt(1 - 0.16),
        alpha3=0.5,
        beta3=np.sqrt(0.75),
        eta1=0.25,
        eta3=0.25,
    )
    values.update(overrides)
    return UsdParams(**values)


def test_usd_validation_named_errors():
    with pytest.raises(ValueError, match="not normalized"):
        validate_usd_params(valid_params(alpha1=0.9))
    with pytest.raises(ValueError, match="alpha1 must be nonzero"):
        validate_usd_params(valid_params(alpha1=0.0, beta1=1.0))
    with pytest.raises(ValueError, match="alpha3 must be nonzero"):
        validate_usd_params(valid_params(alpha3=0.0, beta3=1.0))
    with pytest.raises(ValueError, match=r"\|alpha1\| < \|beta1\|"):
        validate_usd_params(
            valid_params(alpha1=np.sqrt(0.75), beta1=0.5)
        )
    with pytest.raises(ValueError, match="priors"):
        validate_usd_params(valid_params(eta1=0.4, eta3=0.3))
    with pytest.raises(ValueError, match="uniqueness"):
        validate_usd_params(
            valid_params(
                alpha1=0.7,
                beta1=np.sqrt(1 - 0.49),
                alpha3=0.6,
                beta3=0.8,
                eta1=0.01,
                eta3=0.9,
            )
        )
    # alpha3 = 0 allowed only on request
    validate_usd_params(valid_params(alpha3=0.0, beta3=1.0), allow_alpha3_zero=True)


def test_usd_states_explicit_entries():
    params = valid_params()
    phi = usd_states(params)
    for v in phi:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.allclose(phi[2], [0, 0, 1, 0], atol=1e-14)
    assert np.allclose(phi[3], [0, 0, 0, 1], atol=1e-14)
    # overlap of the two tilted states, by direct expansion
    a1, b1, a3, b3 = params.alpha1, params.beta1, params.alpha3, params.beta3
    denom = abs(b3) ** 2 + abs(a3 * b1) ** 2
    expected = (abs(b3 * b1) ** 2 - abs(b3 * a1) ** 2 + abs(a3 * b1) ** 2) / denom
    assert abs(np.vdot(phi[0], phi[1]) - expected) < 1e-12


def test_usd_channel_complete_and_unambiguous():
    rng = np.random.default_rng(34)
    for _ in range(20):
        params = sample_usd_params(rng)
        channel = usd_channel(params)
        assert channel.input_dims == (2, 2)
        assert channel.output_dim == 5
        assert check_completeness(channel) < 1e-9
        # measured vectors annihilate every foreign state: K_n |Phi_j> = 0 for j != n
        phi = usd_states(params)
        for n in range(4):
            for j in range(4):
                if j != n:
                    assert np.max(np.abs(channel.kraus[n] @ phi[j])) < 1e-10


def test_usd_pair_products_vanish_off_diagonal():
    channel = usd_channel(valid_params())
    for i, ki in enumerate(channel.kraus):
        for j, kj in enumerate(channel.kraus):
            if i != j:
                assert np.max(np.abs(ki.conj().T @ kj)) < 1e-14


def test_usd_sampler_reproducible_and_valid():
    p1 = sample_usd_params(np.random.default_rng(35))
    p2 = sample_usd_params(np.random.default_rng(35))
    assert p1 == p2
    validate_usd_params(p1)


def test_usd_sampler_draws_again_after_a_rejected_triple(monkeypatch):
    # at priors 0.1 and 0.7 the uniqueness inequality rejects many draws (1.63 draws a
    # sample over sample_rng(3, 0..199)), the first of sample_rng(3, 4) among them
    checked = []

    def spy(params, **kwargs):
        checked.append(params)
        validate_usd_params(params, **kwargs)

    monkeypatch.setattr(zoo, "validate_usd_params", spy)
    draws = []
    for index in range(200):
        params = sample_usd_params(sample_rng(3, index), eta1=0.1, eta3=0.7)
        assert checked[-1] is params  # returned only once it validates
        draws.append(len(checked))
        checked.clear()
    monkeypatch.undo()
    assert draws[4] == 2 and sum(draws) == 326
    rng = sample_rng(3, 4)
    rng.uniform(size=3)  # the rejected triple: |alpha1|, |alpha3| and the phase of alpha3
    assert sample_usd_params(rng, eta1=0.1, eta3=0.7) == sample_usd_params(sample_rng(3, 4), eta1=0.1, eta3=0.7)


def test_usd_ratio_shrinks_toward_alpha3_zero():
    small = gate_channel(
        usd_channel(valid_params(alpha3=1e-3, beta3=np.sqrt(1 - 1e-6)))
    )
    big = gate_channel(usd_channel(valid_params()))
    for r_small, r_big in zip(small.reports, big.reports):
        assert r_small.ratio < r_big.ratio


def test_a_huge_or_nan_amplitude_is_not_normalized_rather_than_an_overflow():
    # squaring 1e200 overflows a Python float, and a nan compares false with every bound
    with pytest.raises(ValueError, match="amplitude pair 1 is not normalized"):
        validate_usd_params(UsdParams(1e200, 0.5, 0.3, 0.9))
    with pytest.raises(ValueError, match="amplitude pair 3 is not normalized"):
        validate_usd_params(UsdParams(0.4, np.sqrt(0.84), 0.0, np.nan), allow_alpha3_zero=True)
    with pytest.raises(ValueError, match="amplitude pair 1 is not normalized"):
        usd_channel(UsdParams(0.3, 1e200, 0.3, 0.9))
    with pytest.raises(ValueError, match="amplitude pair 1 is not normalized"):
        usd_oneway_protocol(1e200, 0.5)


@pytest.mark.parametrize("alpha1", [1e-300, 5e-324])
def test_usd_channel_rejects_alpha1_too_small_without_warning(recwarn, alpha1):
    # squaring 1/alpha1 overflows; a subnormal alpha1 already overflows the division
    with pytest.raises(ValueError, match="too small"):
        usd_channel(valid_params(alpha1=alpha1, beta1=1.0))
    assert len(recwarn) == 0


def bits(a):
    """The raw bits of a float array: unlike ==, they tell 0.0 from -0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_stacked_builds_equal_one_row_constructor_calls_bit_for_bit():
    rng = np.random.default_rng(50)
    theta = rng.uniform(0.0, QUARTER_PI, (12, 4))
    theta[0], theta[1, 2] = 0.0, QUARTER_PI
    one_row = [rotated_domino_channel(RotatedDominoParams(tuple(t))).kraus for t in theta]
    assert np.array_equal(bits(zoo.rotated_domino_kraus(theta)), bits(np.stack(one_row)))

    params = [
        *(sample_usd_params(rng) for _ in range(12)),
        valid_params(alpha1=0.4 * np.exp(0.3j), beta1=np.sqrt(0.84) * np.exp(1.1j), alpha3=0.5j),
        valid_params(alpha3=0.0, beta3=1.0),
    ]
    one_row = [usd_channel(p, allow_alpha3_zero=True).kraus for p in params]
    assert np.array_equal(bits(zoo.usd_kraus(params)), bits(np.stack(one_row)))

    for dims, nu in (((2, 2), 1), ((2, 3), 8), ((2, 2, 2), 9)):
        one_row = [random_unitary_channel(dims, nu, np.random.default_rng(s)).kraus for s in range(10)]
        stacked = zoo.random_unitary_kraus(dims, nu, [np.random.default_rng(s) for s in range(10)])
        assert np.array_equal(bits(stacked), bits(np.stack(one_row)))

