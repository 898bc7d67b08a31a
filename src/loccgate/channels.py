"""Quantum channels in Kraus form: completeness, action, Choi fingerprints.

Kraus rank and the lone operator of a Kraus-rank-1 channel come from the
N x N Kraus Gram tr(K_i^dag K_j), not from the (D d_out)^2 Choi matrix.

Channels are immutable after construction and all operations are pure, so
concurrent use is safe.  Kraus operators may be rectangular (output dimension
different from the input dimension); density matrices and operators are plain
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import nullspace_dimension

# Eigenvalues below KRAUS_RANK_RTOL times the largest do not count towards a
# Kraus or operator Schmidt rank.
KRAUS_RANK_RTOL = 1e-9

# Largest Choi-matrix entry distance at which two channels count as equal.
CHOI_DISTANCE_TOL = 1e-9

# Rounding allowance when checking that an input is a state, an isometry or a
# complete measurement.
VALIDATION_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A channel ``rho -> sum_i K_i rho K_i^dag`` over a fixed input partition.

    ``input_dims`` lists the per-party dimensions of the input space (their
    product is the total input dimension D); every Kraus operator maps that
    space into a common output space of dimension ``output_dim``.
    """

    name: str
    input_dims: tuple[int, ...]
    output_dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.input_dims)
        object.__setattr__(self, "input_dims", dims)
        object.__setattr__(self, "output_dim", int(self.output_dim))
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("input_dims must be a nonempty list of positive integers")
        if self.output_dim < 1:
            raise ValueError("output_dim must be positive")
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        total = math.prod(dims)
        for idx, k in enumerate(ops):
            if k.ndim != 2 or k.shape != (self.output_dim, total):
                raise ValueError(
                    f"Kraus operator {idx} has shape {k.shape}, "
                    f"expected {(self.output_dim, total)}"
                )
        finite = np.isfinite(np.stack(ops)).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"Kraus operator {int(np.argmin(finite))} has non-finite entries")

    @property
    def dim(self) -> int:
        """Total input dimension D."""
        return math.prod(self.input_dims)

    @property
    def n_parties(self) -> int:
        return len(self.input_dims)

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)


def check_completeness(channel: KrausChannel) -> float:
    """Largest absolute entry of sum_i K_i^dag K_i - I."""
    ks = np.stack(channel.kraus)
    acc = np.einsum("iab,iac->bc", ks.conj(), ks)
    return float(np.max(np.abs(acc - np.eye(channel.dim))))


def validate_density_matrix(rho: np.ndarray) -> None:
    """Reject non-states: requires Hermitian, unit trace, eigenvalues >= -VALIDATION_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be square, got shape {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > VALIDATION_TOL:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > VALIDATION_TOL:
        raise ValueError(f"state trace is {np.trace(rho)}, expected 1")
    if float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0]) < -VALIDATION_TOL:
        raise ValueError("state has a negative eigenvalue")


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_i K_i rho K_i^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"state has shape {rho.shape}, expected {(channel.dim, channel.dim)}"
        )
    ks = np.stack(channel.kraus)
    return np.einsum("iab,bc,idc->ad", ks, rho, ks.conj())


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_i vec(K_i) vec(K_i)^dag (trace D when complete).

    vec stacks columns, so vec(K) is K^T read row by row.
    """
    vecs = np.stack(channel.kraus).transpose(0, 2, 1).reshape(channel.n_kraus, -1)
    return vecs.T @ vecs.conj()


def remix_kraus(channel: KrausChannel, v: np.ndarray) -> KrausChannel:
    """Rewrite the Kraus list as K'_j = sum_i v[j,i] K_i.

    ``v`` must have isometric columns (v^dag v = I); the channel is zero-padded
    to match v's column count first.  The Choi matrix is unchanged.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ValueError("mixing matrix must be 2-d")
    n_hat = v.shape[1]
    if n_hat < channel.n_kraus:
        raise ValueError(
            f"mixing matrix has {n_hat} columns but the channel has "
            f"{channel.n_kraus} Kraus operators"
        )
    gram_residual = float(np.max(np.abs(v.conj().T @ v - np.eye(n_hat))))
    if gram_residual > VALIDATION_TOL:
        raise ValueError(f"mixing matrix columns are not isometric (residual {gram_residual:.3e})")
    padded = list(channel.kraus) + [
        np.zeros_like(channel.kraus[0]) for _ in range(n_hat - channel.n_kraus)
    ]
    stacked = np.stack(padded)
    remixed = np.tensordot(v, stacked, axes=([1], [0]))
    return KrausChannel(channel.name, channel.input_dims, channel.output_dim, tuple(remixed))


def valid_choi_tol(tol) -> bool:
    """A Choi distance tolerance must be finite and nonnegative."""
    return 0.0 <= tol < math.inf  # false for nan


def channels_equal(
    a: KrausChannel, b: KrausChannel, tol: float = CHOI_DISTANCE_TOL
) -> tuple[bool, float]:
    """Choi-matrix comparison: (equal within tol, max-abs entry distance)."""
    if not valid_choi_tol(tol):
        raise ValueError(f"Choi distance tolerance must be finite and >= 0, got {tol!r}")
    if a.dim != b.dim or a.output_dim != b.output_dim:
        raise ValueError(
            f"dimension mismatch: {a.dim}->{a.output_dim} vs {b.dim}->{b.output_dim}"
        )
    distance = float(np.max(np.abs(choi_matrix(a) - choi_matrix(b))))
    return distance <= tol, distance


def _kraus_gram(channel: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Kraus operators and their Gram tr(K_i^dag K_j), Hermitian by construction.

    If the Gram maps u to lambda u, the Choi matrix maps vec(sum_i u_i K_i) to
    lambda times it, so the two share their nonzero eigenvalues.
    """
    ks = np.stack(channel.kraus)
    vecs = ks.reshape(len(ks), -1)
    return ks, vecs.conj() @ vecs.T


def kraus_rank(channel: KrausChannel) -> int:
    """Rank of the Choi matrix: the minimal number of Kraus operators."""
    gram = _kraus_gram(channel)[1]
    return len(gram) - nullspace_dimension(gram, KRAUS_RANK_RTOL)[0]


def lone_kraus_operator(channel: KrausChannel) -> np.ndarray:
    """The single effective Kraus operator of a Kraus-rank-1 channel.

    ``sum_i u_i K_i`` for the top unit eigenvector u of the Kraus Gram; it is
    the dominant Choi eigenvector scaled by the square root of its eigenvalue,
    defined up to a global phase.
    """
    ks, gram = _kraus_gram(channel)
    u = np.linalg.eigh(gram)[1][:, -1]
    return np.tensordot(u, ks, axes=1)


def operator_schmidt_rank(m: np.ndarray, dims, party: int) -> int:
    """Rank of the realignment of a square operator across the (party | rest) cut.

    Rank 1 means the operator factors as A tensor B across that cut.
    """
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    m = np.asarray(m, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(f"operator has shape {m.shape}, expected {(total, total)}")
    if not 0 <= party < len(dims):
        raise ValueError(f"party index {party} out of range for {len(dims)} parties")
    before = math.prod(dims[:party])
    after = math.prod(dims[party + 1 :])
    d_party = dims[party]
    tens = m.reshape(before, d_party, after, before, d_party, after)
    # rows (a, b) on the party, columns (x, y, x', y') on the rest in original order
    realigned = tens.transpose(1, 4, 0, 2, 3, 5).reshape(d_party * d_party, -1)
    gram = realigned.conj().T @ realigned  # zero for a zero operator: full nullity, rank 0
    return realigned.shape[1] - nullspace_dimension(gram, KRAUS_RANK_RTOL)[0]
