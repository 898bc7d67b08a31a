"""Quantum channels in Kraus form: completeness, action, Choi fingerprints.

Kraus rank and the lone operator of a Kraus-rank-1 channel come from the
N x N Kraus Gram tr(K_i^dag K_j), not from the (D d_out)^2 Choi matrix.

A channel keeps its Kraus operators as one read-only complex (N, d_out, D)
array copied at construction, so it is immutable, and all operations are pure:
concurrent use is safe.  Kraus operators may be rectangular (d_out != D);
density matrices and operators are plain numpy arrays.
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
    space into a common output space of dimension ``output_dim``; ``kraus`` is
    kept as a read-only complex (N, output_dim, D) copy of the given operators.
    """

    name: str
    input_dims: tuple[int, ...]
    output_dim: int
    kraus: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.input_dims)
        object.__setattr__(self, "input_dims", dims)
        object.__setattr__(self, "output_dim", int(self.output_dim))
        if not dims or any(d < 1 for d in dims):
            raise ValueError("input_dims must be a nonempty list of positive integers")
        if self.output_dim < 1:
            raise ValueError("output_dim must be positive")
        if not len(self.kraus):
            raise ValueError("channel needs at least one Kraus operator")
        expected = (self.output_dim, math.prod(dims))
        for idx, k in enumerate(self.kraus):
            if (shape := np.shape(k)) != expected:
                raise ValueError(f"Kraus operator {idx} has shape {shape}, expected {expected}")
        ops = np.array(self.kraus, dtype=complex)
        finite = np.isfinite(ops).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"Kraus operator {int(np.argmin(finite))} has non-finite entries")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)

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
    acc = np.einsum("iab,iac->bc", channel.kraus.conj(), channel.kraus)
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
    return np.einsum("iab,bc,idc->ad", channel.kraus, rho, channel.kraus.conj())


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_i vec(K_i) vec(K_i)^dag (trace D when complete).

    vec stacks columns, so vec(K) is K^T read row by row.
    """
    vecs = channel.kraus.transpose(0, 2, 1).reshape(channel.n_kraus, -1)
    return vecs.T @ vecs.conj()


def remix_kraus(channel: KrausChannel, v: np.ndarray) -> KrausChannel:
    """Rewrite the Kraus list as K'_j = sum_i v[j,i] K_i.

    ``v`` must have isometric columns (v^dag v = I) and at least as many
    columns as the channel has Kraus operators; columns beyond those act on
    nothing.  The Choi matrix is unchanged.
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
    remixed = np.tensordot(v[:, : channel.n_kraus], channel.kraus, axes=1)
    return KrausChannel(channel.name, channel.input_dims, channel.output_dim, remixed)


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as an inf or nan distance
        distance = float(np.max(np.abs(choi_matrix(a) - choi_matrix(b))))
    return distance <= tol, distance


def _kraus_gram(channel: KrausChannel) -> np.ndarray:
    """The Kraus Gram tr(K_i^dag K_j), Hermitian by construction.

    If the Gram maps u to lambda u, the Choi matrix maps vec(sum_i u_i K_i) to
    lambda times it, so the two share their nonzero eigenvalues.
    """
    vecs = channel.kraus.reshape(channel.n_kraus, -1)
    return vecs.conj() @ vecs.T


def kraus_rank(channel: KrausChannel) -> int:
    """Rank of the Choi matrix: the minimal number of Kraus operators."""
    return channel.n_kraus - nullspace_dimension(_kraus_gram(channel), KRAUS_RANK_RTOL)[0]


def lone_kraus_operator(channel: KrausChannel) -> np.ndarray:
    """The single effective Kraus operator of a Kraus-rank-1 channel.

    ``sum_i u_i K_i`` for the top unit eigenvector u of the Kraus Gram; it is
    the dominant Choi eigenvector scaled by the square root of its eigenvalue,
    defined up to a global phase.
    """
    u = np.linalg.eigh(_kraus_gram(channel))[1][:, -1]
    return np.tensordot(u, channel.kraus, axes=1)


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
