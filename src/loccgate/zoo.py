"""Generators for the example channel families.

Deterministic families (Bell, domino, rotated domino, unambiguous-discrimination)
are pure functions of their parameters; random families take an explicit
numpy Generator, so reproducibility is the caller's seed choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import KrausChannel

QUARTER_PI = math.pi / 4.0

# Largest deviation of |a|^2 + |b|^2 from 1 accepted for an amplitude pair.
AMPLITUDE_NORM_TOL = 1e-12


def _ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of two kets, without its per-call reshaping of general operands
    return np.multiply.outer(a, b).reshape(-1)


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

    @property
    def is_locc_limit(self) -> bool:
        return any(t == 0.0 for t in self.theta)


def rotated_domino_states(params: RotatedDominoParams) -> list[np.ndarray]:
    """The nine orthonormal two-qutrit product states of the rotated domino family."""
    t1, t2, t3, t4 = params.theta
    e0, e1, e2 = (_ket(i, 3) for i in range(3))

    def rot_plus(a, b, t):
        return math.cos(t) * a + math.sin(t) * b

    def rot_minus(a, b, t):
        return math.sin(t) * a - math.cos(t) * b

    return [
        _kron(e1, e1),
        _kron(e0, rot_plus(e0, e1, t1)),
        _kron(e0, rot_minus(e0, e1, t1)),
        _kron(e2, rot_plus(e1, e2, t2)),
        _kron(e2, rot_minus(e1, e2, t2)),
        _kron(rot_plus(e1, e2, t3), e0),
        _kron(rot_minus(e1, e2, t3), e0),
        _kron(rot_plus(e0, e1, t4), e2),
        _kron(rot_minus(e0, e1, t4), e2),
    ]


def rotated_domino_channel(params: RotatedDominoParams) -> KrausChannel:
    """Two-qutrit channel projecting onto the nine rotated domino states."""
    states = rotated_domino_states(params)
    return KrausChannel("rotated-domino", (3, 3), 9, [_proj(v) for v in states])


def domino_channel() -> KrausChannel:
    """The fully rotated (theta = pi/4 everywhere) domino channel."""
    return replace(rotated_domino_channel(RotatedDominoParams((QUARTER_PI,) * 4)), name="domino")


def _haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent Haar-distributed d x d unitaries, stacked.

    QR-factor complex Ginibre matrices, then rescale each Q column by the
    phase of the matching R diagonal entry so the distribution is uniform.
    One draw takes each matrix's real part, then its imaginary part, matrix
    by matrix, and one QR call factors the whole stack.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    g = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary: a phase-fixed QR of one Ginibre draw."""
    return _haar_unitaries(d, 1, rng)[0]


def random_unitary_channel(dims, n_u: int, rng: np.random.Generator) -> KrausChannel:
    """Uniform mixture of ``n_u`` independent Haar unitaries on prod(dims).

    The Kraus operators are ``n_u`` successive ``haar_unitary`` draws from
    ``rng``, scaled by 1/sqrt(n_u), made with one draw and one QR call.
    """
    dims = tuple(int(d) for d in dims)
    if n_u < 1:
        raise ValueError("need at least one unitary")
    total = math.prod(dims)
    kraus = _haar_unitaries(total, n_u, rng) * (1.0 / np.sqrt(n_u))
    return KrausChannel("random-unitary", dims, total, kraus)


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
        object.__setattr__(self, "alpha1", complex(self.alpha1))
        object.__setattr__(self, "beta1", complex(self.beta1))
        object.__setattr__(self, "alpha3", complex(self.alpha3))
        object.__setattr__(self, "beta3", complex(self.beta3))
        object.__setattr__(self, "eta1", float(self.eta1))
        object.__setattr__(self, "eta3", float(self.eta3))

    @property
    def is_locc_limit(self) -> bool:
        return self.alpha3 == 0


def validate_usd_params(p: UsdParams, *, allow_alpha3_zero: bool = False) -> None:
    """Reject parameter sets outside the valid region, one named error each."""
    for label, a, b in (("1", p.alpha1, p.beta1), ("3", p.alpha3, p.beta3)):
        if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > AMPLITUDE_NORM_TOL:
            raise ValueError(f"amplitude pair {label} is not normalized")
        if b == 0:
            raise ValueError(f"beta{label} must be nonzero")
    if p.alpha1 == 0:
        raise ValueError("alpha1 must be nonzero")
    if p.alpha3 == 0 and not allow_alpha3_zero:
        raise ValueError("alpha3 must be nonzero (alpha3 = 0 is the known one-way limit)")
    if not abs(p.alpha1) < abs(p.beta1):
        raise ValueError("requires |alpha1| < |beta1| strictly")
    if not (p.eta1 > 0 and p.eta3 > 0 and 2 * p.eta1 + p.eta3 < 1):
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


def usd_states(p: UsdParams, *, allow_alpha3_zero: bool = False) -> list[np.ndarray]:
    """The four linearly independent states being discriminated, each normalized."""
    validate_usd_params(p, allow_alpha3_zero=allow_alpha3_zero)
    e0, e1 = _ket(0, 2), _ket(1, 2)
    a1, b1, a3, b3 = p.alpha1, p.beta1, p.alpha3, p.beta3
    norm = np.sqrt(abs(b3) ** 2 + abs(a3 * b1) ** 2)
    phi1 = (
        np.conj(b3) * np.conj(b1) * _kron(e0, e0)
        + np.conj(b3) * np.conj(a1) * _kron(e0, e1)
        - np.conj(a3) * np.conj(b1) * _kron(e1, e0)
    ) / norm
    phi2 = (
        np.conj(b3) * np.conj(b1) * _kron(e0, e0)
        - np.conj(b3) * np.conj(a1) * _kron(e0, e1)
        - np.conj(a3) * np.conj(b1) * _kron(e1, e0)
    ) / norm
    phi3 = _kron(e1, e0)
    phi4 = _kron(e1, e1)
    return [phi1, phi2, phi3, phi4]


def usd_channel(p: UsdParams, *, allow_alpha3_zero: bool = False) -> KrausChannel:
    """Five-outcome channel of the optimal unambiguous-discrimination measurement.

    Kraus operators K_n = sqrt(p_n) |n><Psi_n| flag which state was identified
    (outcomes 1..4) or the inconclusive result (outcome 5).  The measured
    vectors Psi_n are entered exactly as defined by the measurement; Psi_3 is
    deliberately unnormalized and its weight p_3 compensates.
    """
    validate_usd_params(p, allow_alpha3_zero=allow_alpha3_zero)
    a1, b1, a3, b3 = p.alpha1, p.beta1, p.alpha3, p.beta3
    e0, e1 = _ket(0, 2), _ket(1, 2)

    q = np.sqrt(abs(b3) ** 2 + abs(a3 * b1) ** 2) / (2.0 * np.conj(a1) * np.conj(b1) * np.conj(b3))
    p1 = 1.0 / (2.0 * abs(q * b1) ** 2)
    p3 = abs(b3) ** 2 * (1.0 - abs(a1 / b1) ** 2) / (1.0 - abs(a1 * b3 / b1) ** 2)
    radicand = 1.0 - abs(a1 / b1) ** 2 - abs(a3 / b3) ** 2 * p3
    if radicand < 0.0:
        raise ValueError(
            "negative radicand for the inconclusive-outcome amplitude; "
            "parameters lie outside the valid region"
        )
    mu5 = np.sqrt(radicand)
    phase = -np.angle(a3 / b3) if a3 != 0 else 0.0
    nu5 = -np.exp(1j * phase) * np.sqrt(max(1.0 - p3, 0.0))

    psi = [
        q * _kron(e0, a1 * e0 + b1 * e1),
        q * _kron(e0, a1 * e0 - b1 * e1),
        _kron((a3 / b3) * e0 + e1, e0),
        _kron(e1, e1),
        _kron(mu5 * e0 + nu5 * e1, e0),
    ]
    weights = [p1, p1, p3, 1.0, 1.0]
    kraus = [
        np.sqrt(w) * np.outer(_ket(n, 5), v.conj()) for n, (w, v) in enumerate(zip(weights, psi))
    ]
    return KrausChannel("usd", (2, 2), 5, kraus)


def sample_usd_params(
    rng: np.random.Generator,
    eta1: float = 0.25,
    eta3: float = 0.25,
    *,
    margin: float = 0.05,
    max_tries: int = 10000,
) -> UsdParams:
    """Draw a valid parameter set, rejection-sampling the uniqueness inequality.

    Magnitudes are uniform with a small inset (``margin``) away from the
    known one-way-LOCC limits |alpha1| -> 0, |alpha1| -> |beta1| and
    alpha3 -> 0, so sampled instances stay numerically certifiable.  alpha1,
    beta1 and beta3 are real positive; alpha3 carries a uniform phase.
    """
    for _ in range(max_tries):
        a1 = rng.uniform(margin, 1.0 / np.sqrt(2) - margin)
        a3_abs = rng.uniform(margin, 1.0 - margin)
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
    raise ValueError(f"could not sample valid parameters in {max_tries} tries")
