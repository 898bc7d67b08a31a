"""Dense complex linear algebra primitives at desk scale.

Everything operates on plain numpy arrays (complex128) and is a pure function
of its inputs, so concurrent use is safe.  Matrices are assumed small (a few
hundred rows at most); there are no sparse formats and no generalized
eigenproblems here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative residual below which a vector counts as linearly dependent.  Well
# above double-precision noise for the operator counts handled here, well
# below genuine independence scales.
DEFAULT_INDEPENDENCE_TOL = 1e-9

# Largest |h - h^dag| entry, relative to the largest |h| entry, that
# ``hermitian_eigenvalues`` accepts as rounding in a Hermitian matrix.
HERMITIAN_RESIDUAL_TOL = 1e-6


def permute_party_to_front(m: np.ndarray, dims, party: int) -> np.ndarray:
    """Re-express a square operator so the chosen party's factor comes first.

    ``m`` acts on a tensor product of subsystems with dimensions ``dims``; the
    result acts on H_party tensor H_rest with the remaining factors kept in
    their original relative order.  ``party = 0`` returns the input unchanged.
    """
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    m = np.asarray(m, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(
            f"operator has shape {m.shape}, expected {(total, total)} for dims {dims}"
        )
    if not 0 <= party < len(dims):
        raise ValueError(f"party index {party} out of range for {len(dims)} parties")
    n = len(dims)
    perm = [party] + [p for p in range(n) if p != party]
    tens = m.reshape(dims + dims)
    tens = tens.transpose(perm + [n + p for p in perm])
    return tens.reshape(total, total)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    For input of unknown provenance: grossly non-Hermitian input (residual
    above ``HERMITIAN_RESIDUAL_TOL`` relative to the largest entry) is
    rejected, and the rest is symmetrized before solving.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    adjoint = h.conj().T
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    residual = float(np.max(np.abs(h - adjoint))) if h.size else 0.0
    if scale > 0.0 and residual > HERMITIAN_RESIDUAL_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian (residual {residual:.3e} at scale {scale:.3e})"
        )
    return np.linalg.eigvalsh((h + adjoint) / 2.0)


@dataclass
class IndependentSubset:
    """Selected indices S and the Gram-Schmidt factor of the selected vectors.

    ``basis`` has orthonormal rows and ``r`` is upper triangular with a
    positive diagonal; the selected vectors as rows, in ``indices`` order,
    equal ``r.T @ basis``, so their Gram matrix is ``r^dag r``.
    """

    indices: list[int]
    basis: np.ndarray
    r: np.ndarray


def select_independent_subset(vectors, tol: float = DEFAULT_INDEPENDENCE_TOL) -> IndependentSubset:
    """Greedy maximal linearly independent subset, scanned in input order.

    Classical Gram-Schmidt with one reorthogonalization pass (CGS2): with the
    orthonormal directions found so far as the columns of Q, each candidate's
    residual is ``r -= Q h`` with ``h = Q^dag r``, applied twice.  A vector
    joins S iff that residual exceeds ``tol`` times its own norm; its column
    of the factor is then the summed ``h`` above the residual norm.  Vectors
    whose norm is below ``tol`` times the largest input norm, all taken in one
    array pass, count as zero, or they would enter S on rounding noise.  The
    scan stops once S spans the whole space: each later vector lies in it.
    """
    try:
        vecs = np.asarray(vectors, dtype=complex)
    except ValueError as exc:  # ragged input
        raise ValueError("vectors must all have equal length") from exc
    if len(vecs) == 0:
        raise ValueError("vectors must be nonempty")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    vecs = vecs.reshape(len(vecs), -1)
    length = vecs.shape[1]
    norms = np.linalg.norm(vecs, axis=1)
    keep = np.flatnonzero(norms > tol * norms.max())
    selected: list[int] = []
    onb = np.empty((min(len(vecs), length), length), dtype=complex)  # Q's columns as rows
    onb_c = np.empty_like(onb)  # conj(onb), so Q^dag v is a plain product
    factor = np.zeros((len(onb), len(onb)), dtype=complex)
    for idx, floor in zip(keep.tolist(), (tol * norms[keep]).tolist()):
        k = len(selected)
        v = vecs[idx]
        h1 = onb_c[:k] @ v
        r = v - h1 @ onb[:k]
        h2 = onb_c[:k] @ r
        r -= h2 @ onb[:k]
        rnorm = math.sqrt(np.vdot(r, r).real)
        if rnorm > floor:
            onb[k] = r / rnorm
            onb_c[k] = onb[k].conj()
            factor[:k, k] = h1 + h2
            factor[k, k] = rnorm
            selected.append(idx)
            if k + 1 == length:
                break
    k = len(selected)
    return IndependentSubset(indices=selected, basis=onb[:k], r=factor[:k, :k])


def nullspace_dimension(gram: np.ndarray, rel_tol: float) -> tuple[int, float, float]:
    """Numerical nullspace dimension of a matrix ``m`` from its Gram m^dag m.

    Returns the count of Gram eigenvalues below ``rel_tol`` times the largest
    plus the extreme eigenvalues; a zero Gram has nullity equal to its size.
    The input must be such a Gram, Hermitian by construction: it is neither
    checked nor symmetrized, and the eigensolver reads its lower triangle.
    """
    gram = np.asarray(gram, dtype=complex)
    if gram.size == 0:
        raise ValueError("Gram matrix must be nonempty")
    evals = np.linalg.eigvalsh(gram)
    eig_min = float(evals[0])
    eig_max = float(evals[-1])
    if eig_max <= 0.0:
        return gram.shape[0], eig_min, eig_max
    dim = int(np.count_nonzero(evals < rel_tol * eig_max))
    return dim, eig_min, eig_max
