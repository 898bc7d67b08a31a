"""Dense complex linear algebra primitives at desk scale.

Everything operates on plain numpy arrays (complex128) and is a pure function
of its inputs, so concurrent use is safe.  Matrices are assumed small (a few
hundred rows at most); there are no sparse formats and no generalized
eigenproblems here.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

# Relative residual below which a vector counts as linearly dependent.  Well
# above double-precision noise for the operator counts handled here, well
# below genuine independence scales.
DEFAULT_INDEPENDENCE_TOL = 1e-9


class IndependentSubset(namedtuple("IndependentSubset", "taken basis r")):
    """One slice of the stacked scan's record: the selected vectors S and their Gram-Schmidt factor.

    ``taken`` marks S among the input vectors.  ``basis`` has orthonormal rows and ``r`` is
    upper triangular with a positive diagonal; the vectors of S as rows, in input order,
    equal ``r.T @ basis``, so their Gram matrix is ``r^dag r``.
    """

    @property
    def indices(self) -> list[int]:
        """The positions of S, ascending."""
        return np.flatnonzero(self.taken).tolist()


def valid_rel_tol(rel_tol) -> bool:
    """A relative threshold must be finite and strictly between 0 and 1."""
    return 0.0 < rel_tol < 1.0  # false for nan and +-inf


def nonzero_vectors(vectors: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Norms of a (..., M, L) complex stack of vectors, and which of them count as nonzero.

    The zero filter: a vector whose norm is at most ``tol`` times the largest
    of its slice counts as zero, or it would enter an independent subset on
    rounding noise.  ``tol`` must lie in (0, 1).
    """
    if not valid_rel_tol(tol):
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
    re, im = vectors.real, vectors.imag
    norms = np.sqrt(np.einsum("...ml,...ml->...m", re, re) + np.einsum("...ml,...ml->...m", im, im))
    return norms, norms > tol * norms.max(axis=-1, keepdims=True)


def select_independent_subset(vectors, tol: float = DEFAULT_INDEPENDENCE_TOL) -> IndependentSubset:
    """Greedy maximal linearly independent subset, scanned in input order.

    Classical Gram-Schmidt with one reorthogonalization pass (CGS2): with the
    orthonormal directions found so far as the rows of ``onb``, the only copy
    of the basis, each candidate's residual is ``r -= h onb`` with
    ``h = conj(onb conj(r))``, applied twice.  A vector joins S iff that
    residual exceeds ``tol`` times its own norm; its column of the factor is
    then the summed ``h`` above the residual norm.  Vectors that
    ``nonzero_vectors`` counts as zero never enter S.  The scan stops once S
    spans the whole space: each later vector lies in it.
    """
    try:
        vecs = np.asarray(vectors, dtype=complex)
    except ValueError as exc:  # ragged input
        raise ValueError("vectors must all have equal length") from exc
    if len(vecs) == 0:
        raise ValueError("vectors must be nonempty")
    vecs = vecs.reshape(len(vecs), -1)
    length = vecs.shape[1]
    norms, nonzero = nonzero_vectors(vecs, tol)
    keep = np.flatnonzero(nonzero)
    taken = np.zeros(len(vecs), dtype=bool)
    onb = np.empty((min(len(vecs), length), length), dtype=complex)  # Q's columns as rows
    factor = np.zeros((len(onb), len(onb)), dtype=complex)
    k = 0
    for idx, floor in zip(keep.tolist(), (tol * norms[keep]).tolist()):
        v = vecs[idx]
        h1 = (onb[:k] @ v.conj()).conj()  # Q^dag v
        r = v - h1 @ onb[:k]
        h2 = (onb[:k] @ r.conj()).conj()
        r -= h2 @ onb[:k]
        rnorm = math.sqrt(np.vdot(r, r).real)
        if rnorm > floor:
            onb[k] = r / rnorm
            factor[:k, k] = h1 + h2
            factor[k, k] = rnorm
            taken[idx] = True
            k += 1
            if k == length:
                break
    return IndependentSubset(taken, onb[:k], factor[:k, :k])


def select_independent_subsets(stack, tol: float = DEFAULT_INDEPENDENCE_TOL):
    """``select_independent_subset`` on each slice of a (B, M, L) stack, in one scan.

    Returns one padded record (taken, basis, r): ``taken`` (B, M) marks the
    selected vectors; ``basis`` (B, K, L) and ``r`` (B, K, K), K = min(M, L),
    are zero past a slice's k = taken[b].sum() rows and columns, and slice b
    selects ``r[b, :k, :k].T @ basis[b, :k]``.  The slices advance together:
    at step t, every slice projects its t-th vector, with CGS2 batched over
    the stack.  A slice keeps its own zero filter, acceptance rule and early
    stop: a vector the filter drops, or any vector once its span is full,
    meets an infinite acceptance floor; the scan stops after the last step
    with a finite floor in any slice.  Until a step that only some slices
    accept, all slices share one k and the updates index the whole stack;
    from then on they gather the accepting slices.  The rows a slice has not
    found yet are zero, so they add nothing to its projections.  A slice's
    record does not depend on the other slices, bit for bit; its taken mask
    equals the one-vector scan's, its factor agrees to rounding.
    """
    vecs = np.asarray(stack, dtype=complex)
    if vecs.ndim != 3 or 0 in vecs.shape:
        raise ValueError("stack must be a nonempty (B, M, L) array")
    n_slices, n_vecs, length = vecs.shape
    norms, nonzero = nonzero_vectors(vecs, tol)
    floors = np.where(nonzero, tol * norms, np.inf)
    cap = min(n_vecs, length)
    onb = np.zeros((n_slices, cap, length), dtype=complex)
    factor = np.zeros((n_slices, cap, cap), dtype=complex)
    taken = np.zeros((n_slices, n_vecs), dtype=bool)
    k = np.zeros(n_slices, dtype=np.intp)
    ends = np.arange(1, n_vecs + 1)
    stop = int((np.isfinite(floors).any(axis=0) * ends).max())  # one past the last step with a finite floor
    even = True  # every slice has accepted at every accepting step so far, so all k are equal
    for t in range(n_vecs):
        if t >= stop:
            break
        width = min(t, cap)
        q = onb[:, :width]
        q_t = q.swapaxes(1, 2)
        v = vecs[:, t, :, None]
        h1 = (q @ v.conj()).conj()  # Q^dag v
        r = v - q_t @ h1
        h2 = (q @ r.conj()).conj()
        r -= q_t @ h2
        rnorm = np.sqrt((r.swapaxes(1, 2).conj() @ r).real[:, 0, 0])
        accept = rnorm > floors[:, t]
        if even and accept.all():
            grow, at = slice(None), k[0]
        elif accept.any():
            even, grow = False, np.flatnonzero(accept)
            at = k[grow]
        else:
            continue
        onb[grow, at] = r[grow, :, 0] / rnorm[grow, None]
        factor[grow, :width, at] = (h1 + h2)[grow, :, 0]
        factor[grow, at, at] = rnorm[grow]
        taken[grow, t] = True
        k[grow] += 1
        if t + 1 >= length:  # a slice whose span is full scans no further
            floors[k == length] = np.inf
            stop = int((np.isfinite(floors).any(axis=0) * ends).max())
    return taken, onb, factor


def _nullity(evals: np.ndarray, rel_tol: float, floor):
    """Numerical nullity of each Gram m^dag m of a stack from its (..., n) eigenvalues, in any order: the
    count below the larger of ``rel_tol`` times the largest and ``floor`` (a scalar, or one per slice:
    an absolute rounding bound), and n for a zero Gram.  Returns per-slice lists of the nullities and
    the extreme eigenvalues, or Python scalars for one Gram's eigenvalues."""
    eig_min, eig_max = evals.min(axis=-1), evals.max(axis=-1)
    dim = np.count_nonzero(evals < np.maximum(rel_tol * eig_max, floor)[..., None], axis=-1)
    return np.where(eig_max <= 0.0, evals.shape[-1], dim).tolist(), eig_min.tolist(), eig_max.tolist()
