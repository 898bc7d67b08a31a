"""Quantum channels in Kraus form: completeness, Choi fingerprints, Kraus rank.

Kraus rank and the lone operator of a Kraus-rank-1 channel come from the
N x N Kraus Gram tr(K_i^dag K_j), not from the (D d_out)^2 Choi matrix.  Whether
that lone operator is a product across every party cut comes from one Gram of
at most D x D per cut.

A channel keeps its Kraus operators as one read-only complex (N, d_out, D)
array copied at construction, so it is immutable, and all operations are pure:
concurrent use is safe.  Kraus operators may be rectangular (d_out != D);
other operators are plain numpy arrays.

The three failure classes every layer raises are defined here, the lowest
layer that raises them: ``SchemaError`` for malformed input, its subclass
``DimensionError`` for input whose dimensions are inconsistent, and
``CompletenessError`` for a channel or measurement that is not complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _nullity

# Eigenvalues below KRAUS_RANK_RTOL times the largest do not count towards a
# Kraus or operator Schmidt rank.
KRAUS_RANK_RTOL = 1e-9

# Largest Choi-matrix entry distance at which two channels count as equal.
CHOI_DISTANCE_TOL = 1e-9

# Rounding allowance when checking that an input is an isometry or a complete
# measurement.
VALIDATION_TOL = 1e-10


class SchemaError(ValueError):
    """Input does not match the expected schema."""


class DimensionError(SchemaError):
    """Input parses but its dimensions are inconsistent."""


class CompletenessError(ValueError):
    """A channel or a measurement does not resolve the identity."""


def _positive_whole(value, field: str) -> int:
    """``value`` as an int if it is a positive Python or numpy integer or whole float, with bools and
    strings excluded; otherwise a ValueError that names ``field``."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if (integral or isinstance(value, (float, np.floating)) and float(value).is_integer()) and value >= 1:
        return int(value)
    raise ValueError(f"{field} must be a positive whole number, got {value!r}")


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
        dims = tuple(_positive_whole(d, "input_dims") for d in self.input_dims)
        if not dims:
            raise ValueError("input_dims must be a nonempty list of positive integers")
        object.__setattr__(self, "input_dims", dims)
        object.__setattr__(self, "output_dim", _positive_whole(self.output_dim, "output_dim"))
        if not len(self.kraus):
            raise ValueError("channel needs at least one Kraus operator")
        expected = (self.output_dim, math.prod(dims))
        for idx, k in enumerate(self.kraus):
            if (shape := np.shape(k)) != expected:
                raise DimensionError(f"Kraus operator {idx} has shape {shape}, expected {expected}")
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


def completeness_residuals(kraus: np.ndarray) -> np.ndarray:
    """Per channel of a (B, N, d_out, D) Kraus stack, the largest absolute entry of sum_i K_i^dag K_i - I,
    from one (D x N d_out)(N d_out x D) GEMM per channel; inf, with no D x D matrix formed, when
    N d_out < D caps the sum's rank below D, and nan on an overflow."""
    n_stack, n, d_out, d = kraus.shape
    if n * d_out < d:
        return np.full(n_stack, math.inf)
    rows = kraus.reshape(n_stack, n * d_out, d)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow anywhere reads nan below
        residuals = np.max(np.abs(rows.conj().swapaxes(-1, -2) @ rows - np.eye(d)), axis=(-2, -1))
    return np.where(np.isfinite(residuals), residuals, math.nan)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_i vec(K_i) vec(K_i)^dag (trace D when complete).

    vec stacks columns, so vec(K) is K^T read row by row.
    """
    vecs = channel.kraus.transpose(0, 2, 1).reshape(channel.n_kraus, -1)
    return vecs.T @ vecs.conj()


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
        raise DimensionError(
            f"dimension mismatch: {a.dim}->{a.output_dim} vs {b.dim}->{b.output_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as an inf or nan distance
        distance = float(np.max(np.abs(choi_matrix(a) - choi_matrix(b))))
    return distance <= tol, distance


def _kraus_gram(kraus: np.ndarray) -> np.ndarray:
    """The Kraus Gram tr(K_i^dag K_j) of an (..., N, d_out, D) Kraus array, Hermitian by construction.

    If the Gram maps u to lambda u, the Choi matrix maps vec(sum_i u_i K_i) to
    lambda times it, so the two share their nonzero eigenvalues.
    """
    vecs = kraus.reshape(*kraus.shape[:-2], -1)
    return vecs.conj() @ vecs.swapaxes(-1, -2)


def kraus_ranks(kraus: np.ndarray) -> list[int]:
    """Rank of each channel's Choi matrix (its minimal number of Kraus operators) in a
    (B, N, d_out, D) Kraus stack, from one batched eigensolve of the Kraus Grams."""
    return [kraus.shape[1] - n for n in _nullity(np.linalg.eigvalsh(_kraus_gram(kraus)), KRAUS_RANK_RTOL, 0.0)[0]]


def _lone_operator_is_local(kraus: np.ndarray, dims) -> bool:
    """Whether a Kraus-rank-1 channel's (N, d_out, D) Kraus array acts as one operator that is a
    product across every (party | rest) cut; false when the operators are not square.

    The lone operator is ``sum_i u_i K_i`` for the top unit eigenvector u of the Kraus Gram: the
    dominant Choi eigenvector scaled by the square root of its eigenvalue, up to a global phase.
    A cut's operator Schmidt rank is the rank of the operator's realignment R, from the smaller of
    R R^dag and R^dag R: they share their nonzero eigenvalues, and the smaller has at most D rows.
    """
    total = kraus.shape[-1]
    if kraus.shape[-2] != total:
        return False
    lone = np.tensordot(np.linalg.eigh(_kraus_gram(kraus))[1][:, -1], kraus, axes=1)
    for party, d_party in enumerate(dims):
        before = math.prod(dims[:party])
        tens = lone.reshape(before, d_party, total // (before * d_party), before, d_party, -1)
        # rows (a, b) on the party, columns (x, y, x', y') on the rest in original order
        realigned = tens.transpose(1, 4, 0, 2, 3, 5).reshape(d_party * d_party, -1)
        tall = realigned.shape[1] < d_party * d_party
        gram = realigned.conj().T @ realigned if tall else realigned @ realigned.conj().T
        if len(gram) - _nullity(np.linalg.eigvalsh(gram), KRAUS_RANK_RTOL, 0.0)[0] != 1:
            return False
    return True
