"""Quantum channels in Kraus form: completeness, action, Choi fingerprints.

Channels are immutable after construction and all operations are pure, so
concurrent use is safe.  Kraus operators may be rectangular (output dimension
different from the input dimension); density matrices and operators are plain
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues, nullspace_dimension, permute_party_to_front

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


def validate_density_matrix(rho: np.ndarray, tol: float = VALIDATION_TOL) -> None:
    """Reject non-states: requires Hermitian, unit trace, eigenvalues >= -tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be square, got shape {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > tol:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"state trace is {np.trace(rho)}, expected 1")
    if float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0]) < -tol:
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


def _vec(k: np.ndarray) -> np.ndarray:
    # column-stacking convention
    return np.asarray(k, dtype=complex).reshape(-1, order="F")


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_i vec(K_i) vec(K_i)^dag (trace D when complete)."""
    vecs = np.stack([_vec(k) for k in channel.kraus], axis=0)
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


def channels_equal(
    a: KrausChannel, b: KrausChannel, tol: float = CHOI_DISTANCE_TOL
) -> tuple[bool, float]:
    """Choi-matrix comparison: (equal within tol, max-abs entry distance)."""
    if a.dim != b.dim or a.output_dim != b.output_dim:
        raise ValueError(
            f"dimension mismatch: {a.dim}->{a.output_dim} vs {b.dim}->{b.output_dim}"
        )
    distance = float(np.max(np.abs(choi_matrix(a) - choi_matrix(b))))
    return distance <= tol, distance


def kraus_rank(channel: KrausChannel, rel_tol: float = KRAUS_RANK_RTOL) -> int:
    """Rank of the Choi matrix: the minimal number of Kraus operators.

    Solved on the N x N Gram tr(K_i^dag K_j), which has the same nonzero
    eigenvalues as the (D d_out)^2 Choi matrix.
    """
    vecs = np.stack(channel.kraus).reshape(channel.n_kraus, -1)
    evals = hermitian_eigenvalues(vecs.conj() @ vecs.T)
    top = float(evals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(evals > rel_tol * top))


def lone_kraus_operator(channel: KrausChannel) -> np.ndarray:
    """The single effective Kraus operator of a Kraus-rank-1 channel.

    Extracted from the dominant Choi eigenvector; defined up to a global phase.
    """
    j = choi_matrix(channel)
    evals, vecs = np.linalg.eigh((j + j.conj().T) / 2.0)
    top = vecs[:, -1] * np.sqrt(max(float(evals[-1]), 0.0))
    return top.reshape((channel.output_dim, channel.dim), order="F")


def operator_schmidt_rank(
    m: np.ndarray, dims, party: int, rel_tol: float = KRAUS_RANK_RTOL
) -> int:
    """Rank of the realignment of a square operator across the (party | rest) cut.

    Rank 1 means the operator factors as A tensor B across that cut.
    """
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    m = np.asarray(m, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(f"operator has shape {m.shape}, expected {(total, total)}")
    mp = permute_party_to_front(m, dims, party)
    d_party = dims[party]
    d_rest = total // d_party
    tens = mp.reshape(d_party, d_rest, d_party, d_rest)
    realigned = tens.transpose(0, 2, 1, 3).reshape(d_party * d_party, d_rest * d_rest)
    nullity, _, eig_max = nullspace_dimension(realigned.conj().T @ realigned, rel_tol)
    if eig_max <= 0.0:
        return 0
    return realigned.shape[1] - nullity
