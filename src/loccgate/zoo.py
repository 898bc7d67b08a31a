"""Generators for the example channel families.

Deterministic families (Bell, domino, rotated domino, unambiguous-discrimination)
are pure functions of their parameters; random families take an explicit
numpy Generator, so reproducibility is the caller's seed choice.  Each swept
family's channel is the one-row case of a stacked form that builds the
(B, N, d_out, D) Kraus operators of B parameter rows at once
(``rotated_domino_kraus``, ``usd_kraus``, ``random_unitary_kraus``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import KrausChannel

QUARTER_PI = math.pi / 4.0

# Largest deviation of |a|^2 + |b|^2 from 1 accepted for an amplitude pair.
AMPLITUDE_NORM_TOL = 1e-12

# ``sample_usd_params``: the inset of sampled magnitudes from the family's one-way-LOCC
# limits, and the draws it makes before giving up.
USD_SAMPLE_MARGIN = 0.05
USD_SAMPLE_TRIES = 10000


def _ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _proj(v: np.ndarray) -> np.ndarray:
    """|v><v|, of a ket or of each ket along the last axis of a stack."""
    return v[..., :, None] * v.conj()[..., None, :]


def _rotated_pair(a: np.ndarray, b: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The domino pair (cos t a + sin t b, sin t a - cos t b), orthonormal for orthonormal a, b.

    For an array of angles, each ket gains a leading axis over the angles.
    """
    c, s = np.cos(t), np.sin(t)
    outer = np.multiply.outer
    return outer(c, a) + outer(s, b), outer(s, a) - outer(c, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of two kets (or of stacks of them), without its per-call reshaping of general operands
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(*out.shape[:-2], -1)


def bell_channel() -> KrausChannel:
    """Two-qubit channel whose Kraus operators project onto the four Bell states."""
    e0, e1 = _ket(0, 2), _ket(1, 2)
    s = 1.0 / np.sqrt(2)
    states = [
        s * (_kron(e0, e0) + _kron(e1, e1)),
        s * (_kron(e0, e0) - _kron(e1, e1)),
        s * (_kron(e0, e1) + _kron(e1, e0)),
        s * (_kron(e0, e1) - _kron(e1, e0)),
    ]
    return KrausChannel("bell", (2, 2), 4, [_proj(v) for v in states])


@dataclass(frozen=True)
class RotatedDominoParams:
    """Four rotation angles, each in [0, pi/4].

    A zero angle leaves one domino pair unrotated, which is the known
    LOCC-implementable limit of the family.
    """

    theta: tuple[float, float, float, float]

    def __post_init__(self):
        angles = tuple(float(t) for t in self.theta)
        object.__setattr__(self, "theta", angles)
        if len(angles) != 4:
            raise ValueError("exactly four angles are required")
        for i, t in enumerate(angles):
            if not 0.0 <= t <= QUARTER_PI:
                raise ValueError(f"angle out of range: theta{i + 1} = {t} not in [0, pi/4]")


def _rotated_domino_states(theta) -> np.ndarray:
    """The nine orthonormal two-qutrit product states of the rotated domino family for each row
    of a (B, 4) angle array, shape (B, 9, 9)."""
    t1, t2, t3, t4 = np.asarray(theta, dtype=float).T
    e0, e1, e2 = (_ket(i, 3) for i in range(3))
    return np.stack([
        np.broadcast_to(_kron(e1, e1), (len(t1), 9)),
        *(_kron(e0, v) for v in _rotated_pair(e0, e1, t1)),
        *(_kron(e2, v) for v in _rotated_pair(e1, e2, t2)),
        *(_kron(v, e0) for v in _rotated_pair(e1, e2, t3)),
        *(_kron(v, e2) for v in _rotated_pair(e0, e1, t4)),
    ], axis=1)


def rotated_domino_kraus(theta) -> np.ndarray:
    """``rotated_domino_channel``'s Kraus operators for each row of a (B, 4) array
    of angles in [0, pi/4], shape (B, 9, 9, 9), built in one array pass."""
    return _proj(_rotated_domino_states(theta))


def rotated_domino_channel(params: RotatedDominoParams) -> KrausChannel:
    """Two-qutrit channel projecting onto the nine rotated domino states."""
    return KrausChannel("rotated-domino", (3, 3), 9, rotated_domino_kraus([params.theta])[0])


def domino_channel() -> KrausChannel:
    """The fully rotated (theta = pi/4 everywhere) domino channel."""
    return replace(rotated_domino_channel(RotatedDominoParams((QUARTER_PI,) * 4)), name="domino")


def random_unitary_kraus(dims, n_u: int, rngs) -> np.ndarray:
    """``random_unitary_channel``'s Kraus operators for each generator of ``rngs``, shape (B, n_u, D, D).

    QR-factor complex Ginibre matrices, then rescale each Q column by the
    phase of the matching R diagonal entry so the distribution is uniform.
    One draw per generator takes each matrix's real part, then its imaginary
    part, matrix by matrix, and one QR call factors the whole stack.
    """
    d = math.prod(dims)
    if d < 1:
        raise ValueError("dimension must be positive")
    if n_u < 1:
        raise ValueError("need at least one unitary")
    g = np.stack([rng.standard_normal((n_u, 2, d, d)) for rng in rngs])
    q, r = np.linalg.qr((g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :] * (1.0 / np.sqrt(n_u))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary: a phase-fixed QR of one Ginibre draw."""
    return random_unitary_kraus((d,), 1, [rng])[0, 0]


def random_unitary_channel(dims, n_u: int, rng: np.random.Generator) -> KrausChannel:
    """Uniform mixture of ``n_u`` independent Haar unitaries on prod(dims).

    The Kraus operators are ``n_u`` successive ``haar_unitary`` draws from
    ``rng``, scaled by 1/sqrt(n_u), made with one draw and one QR call.
    """
    dims = tuple(int(d) for d in dims)
    kraus = random_unitary_kraus(dims, n_u, [rng])[0]
    return KrausChannel("random-unitary", dims, math.prod(dims), kraus)


@dataclass(frozen=True)
class UsdParams:
    """Amplitudes and priors for the two-qubit unambiguous-discrimination family.

    alpha1/beta1 and alpha3/beta3 are normalized amplitude pairs; eta1 (= eta2)
    and eta3 are prior probabilities of the discriminated states.
    """

    alpha1: complex
    beta1: complex
    alpha3: complex
    beta3: complex
    eta1: float = 0.25
    eta3: float = 0.25

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha3", "beta3", "eta1", "eta3"):
            kind = float if name.startswith("eta") else complex
            object.__setattr__(self, name, kind(getattr(self, name)))


def valid_usd_priors(eta1, eta3) -> bool:
    """The usd priors must satisfy eta1 > 0, eta3 > 0 and 2*eta1 + eta3 < 1."""
    return eta1 > 0 and eta3 > 0 and 2 * eta1 + eta3 < 1  # false for nan


def validate_usd_params(p: UsdParams, *, allow_alpha3_zero: bool = False) -> None:
    """Reject parameter sets outside the valid region, one named error each."""
    for label, a, b in (("1", p.alpha1, p.beta1), ("3", p.alpha3, p.beta3)):
        # a modulus past 1 + tol is caught before its square can overflow; a nan fails too
        if not (max(abs(a), abs(b)) <= 1.0 + AMPLITUDE_NORM_TOL
                and abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= AMPLITUDE_NORM_TOL):
            raise ValueError(f"amplitude pair {label} is not normalized")
        if b == 0:
            raise ValueError(f"beta{label} must be nonzero")
    if p.alpha1 == 0:
        raise ValueError("alpha1 must be nonzero")
    if p.alpha3 == 0 and not allow_alpha3_zero:
        raise ValueError("alpha3 must be nonzero (alpha3 = 0 is the known one-way limit)")
    if not abs(p.alpha1) < abs(p.beta1):
        raise ValueError("requires |alpha1| < |beta1| strictly")
    if not valid_usd_priors(p.eta1, p.eta3):
        raise ValueError("priors must satisfy eta1 > 0, eta3 > 0 and 2*eta1 + eta3 < 1")
    lhs = (1.0 - abs(p.alpha1 * p.beta3 / p.beta1) ** 2) ** 2
    rhs = (
        (p.eta3 / (4.0 * p.eta1))
        * abs(p.alpha3 / p.beta1) ** 2
        * (abs(p.beta3) ** 2 + abs(p.alpha3 * p.beta1) ** 2)
    )
    if lhs < rhs:
        raise ValueError(
            "uniqueness inequality violated: the optimal discrimination "
            "measurement is not unique for these parameters"
        )


def usd_kraus(params) -> np.ndarray:
    """``usd_channel``'s Kraus operators for each parameter set of ``params``, shape (B, 5, 5, 4).

    Each set must already be valid (``validate_usd_params``).  Each row's scalars are computed
    in Python, as numpy's complex division rounds differently; the arrays are assembled at once.
    """
    rows = []
    for p in params:
        a1, b1, a3, b3 = p.alpha1, p.beta1, p.alpha3, p.beta3
        try:  # a tiny alpha1 overflows q, or its square in p1
            with np.errstate(all="raise", under="ignore"):
                q = np.sqrt(abs(b3) ** 2 + abs(a3 * b1) ** 2) / (
                    2.0 * np.conj(a1) * np.conj(b1) * np.conj(b3)
                )
                p1 = 1.0 / (2.0 * abs(q * b1) ** 2)
        except FloatingPointError as exc:
            raise ValueError(f"|alpha1| = {abs(a1):g} is too small: {exc}") from exc
        p3 = abs(b3) ** 2 * (1.0 - abs(a1 / b1) ** 2) / (1.0 - abs(a1 * b3 / b1) ** 2)
        radicand = 1.0 - abs(a1 / b1) ** 2 - abs(a3 / b3) ** 2 * p3
        if radicand < 0.0:
            raise ValueError(
                "negative radicand for the inconclusive-outcome amplitude; "
                "parameters lie outside the valid region"
            )
        phase = -np.angle(a3 / b3) if a3 != 0 else 0.0
        nu5 = -np.exp(1j * phase) * np.sqrt(max(1.0 - p3, 0.0))
        rows.append((a1, b1, q, a3 / b3, np.sqrt(radicand), nu5, p1, p3))
    a1, b1, q, ratio, mu5, nu5, p1, p3 = (np.array(column)[:, None] for column in zip(*rows))
    e0, e1 = _ket(0, 2), _ket(1, 2)
    psi = np.stack([
        q * _kron(e0, a1 * e0 + b1 * e1),
        q * _kron(e0, a1 * e0 - b1 * e1),
        _kron(ratio * e0 + e1, e0),
        np.broadcast_to(_kron(e1, e1), (len(rows), 4)),
        _kron(mu5 * e0 + nu5 * e1, e0),
    ], axis=1)
    weights = np.sqrt(np.stack([p1, p1, p3, np.ones_like(p1), np.ones_like(p1)], axis=1))
    return weights[..., None] * (np.eye(5, dtype=complex)[:, :, None] * psi.conj()[:, :, None, :])


def usd_channel(p: UsdParams, *, allow_alpha3_zero: bool = False) -> KrausChannel:
    """Five-outcome channel of the optimal unambiguous-discrimination measurement.

    Kraus operators K_n = sqrt(p_n) |n><Psi_n| flag which state was identified
    (outcomes 1..4) or the inconclusive result (outcome 5).  The measured
    vectors Psi_n are entered exactly as defined by the measurement; Psi_3 is
    deliberately unnormalized and its weight p_3 compensates.
    """
    validate_usd_params(p, allow_alpha3_zero=allow_alpha3_zero)
    return KrausChannel("usd", (2, 2), 5, usd_kraus([p])[0])


def sample_usd_params(rng: np.random.Generator, eta1: float = 0.25, eta3: float = 0.25) -> UsdParams:
    """Draw a valid parameter set, rejection-sampling the uniqueness inequality.

    Magnitudes are uniform with a small inset (USD_SAMPLE_MARGIN) away from
    the known one-way-LOCC limits |alpha1| -> 0, |alpha1| -> |beta1| and
    alpha3 -> 0, so sampled instances stay numerically certifiable.  alpha1,
    beta1 and beta3 are real positive; alpha3 carries a uniform phase.
    """
    for _ in range(USD_SAMPLE_TRIES):
        a1 = rng.uniform(USD_SAMPLE_MARGIN, 1.0 / np.sqrt(2) - USD_SAMPLE_MARGIN)
        a3_abs = rng.uniform(USD_SAMPLE_MARGIN, 1.0 - USD_SAMPLE_MARGIN)
        a3_phase = rng.uniform(0.0, 2.0 * np.pi)
        params = UsdParams(
            alpha1=a1,
            beta1=np.sqrt(1.0 - a1 * a1),
            alpha3=a3_abs * np.exp(1j * a3_phase),
            beta3=np.sqrt(1.0 - a3_abs * a3_abs),
            eta1=eta1,
            eta3=eta3,
        )
        try:
            validate_usd_params(params)
        except ValueError:
            continue
        return params
    raise ValueError(f"could not sample valid parameters in {USD_SAMPLE_TRIES} tries")
