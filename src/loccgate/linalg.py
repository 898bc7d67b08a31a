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
    ``tol`` must lie in (0, 1).
    """
    try:
        vecs = np.asarray(vectors, dtype=complex)
    except ValueError as exc:  # ragged input
        raise ValueError("vectors must all have equal length") from exc
    if len(vecs) == 0:
        raise ValueError("vectors must be nonempty")
    if not 0.0 < tol < 1.0:  # also rejects nan and +-inf
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
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


def select_independent_subsets(stack, tol: float = DEFAULT_INDEPENDENCE_TOL) -> list[IndependentSubset]:
    """``select_independent_subset`` on each slice of a (B, M, L) stack, in one scan.

    The slices advance together, one candidate each per step: at step t,
    every slice projects its t-th vector above its own zero threshold, with
    CGS2 batched over the stack.  A slice keeps its own zero filter,
    acceptance rule and early stop: once its candidates run out or its span
    is full, its acceptance floor is infinite, and the scan ends when no
    slice has a candidate left.  After t steps a slice has at most t
    directions; the rows it has not found yet are zero, so they add nothing
    to its projections.  Indices equal the one-vector scan's; the factor
    agrees to rounding, not bit for bit.
    """
    vecs = np.asarray(stack, dtype=complex)
    if vecs.ndim != 3 or 0 in vecs.shape:
        raise ValueError("stack must be a nonempty (B, M, L) array")
    if not 0.0 < tol < 1.0:  # also rejects nan and +-inf
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
    n_slices, n_vecs, length = vecs.shape
    re, im = vecs.real, vecs.imag
    norms = np.sqrt(np.einsum("bml,bml->bm", re, re) + np.einsum("bml,bml->bm", im, im))
    keep = norms > tol * norms.max(axis=1, keepdims=True)
    n_keep = np.count_nonzero(keep, axis=1)
    steps = int(n_keep.max())
    order = np.argsort(~keep, axis=1, kind="stable")[:, :steps]  # kept indices first, in order
    pick = order + n_vecs * np.arange(n_slices)[:, None]  # rows of the flattened stack
    flat = vecs.reshape(-1, length)
    floors = tol * norms.reshape(-1)[pick]
    floors[np.arange(steps) >= n_keep[:, None]] = np.inf
    cap = min(steps, length)
    onb = np.zeros((n_slices, cap, length), dtype=complex)
    factor = np.zeros((n_slices, cap, cap), dtype=complex)  # r transposed
    taken = np.zeros((n_slices, steps), dtype=bool)
    k = np.zeros(n_slices, dtype=np.intp)
    horizon = steps
    for t in range(steps):
        if t >= horizon:
            break
        width = min(t, cap)
        q = onb[:, :width]
        q_t = q.swapaxes(1, 2)
        v = flat[pick[:, t], :, None]
        h1 = (q @ v.conj()).conj()  # Q^dag v
        r = v - q_t @ h1
        h2 = (q @ r.conj()).conj()
        r -= q_t @ h2
        rnorm = np.sqrt((r.swapaxes(1, 2).conj() @ r).real[:, 0, 0])
        grow = np.flatnonzero(rnorm > floors[:, t])
        if grow.size:
            at = k[grow]
            onb[grow, at] = r[grow, :, 0] / rnorm[grow, None]
            factor[grow, at, :width] = (h1 + h2)[grow, :, 0]
            factor[grow, at, at] = rnorm[grow]
            taken[grow, t] = True
            k[grow] += 1
            if t + 1 >= length:  # a slice whose span is full scans no further
                full = grow[k[grow] == length]
                floors[full] = np.inf
                n_keep[full] = 0
                horizon = int(n_keep.max())
    return [
        IndependentSubset(
            indices=order[b, taken[b]].tolist(), basis=onb[b, :kb], r=factor[b, :kb, :kb].T
        )
        for b, kb in enumerate(k.tolist())
    ]


def nullspace_dimension(gram: np.ndarray, rel_tol: float):
    """Numerical nullspace dimension of a matrix ``m`` from its Gram m^dag m.

    Returns the count of Gram eigenvalues below ``rel_tol`` times the largest
    plus the extreme eigenvalues; a zero Gram has nullity equal to its size.
    A (..., n, n) stack takes one batched eigensolve and gives per-slice
    lists; a single Gram gives Python scalars.  The input must be such a
    Gram, Hermitian by construction: it is neither checked nor symmetrized,
    and the eigensolver reads its lower triangle.
    """
    gram = np.asarray(gram, dtype=complex)
    if gram.size == 0:
        raise ValueError("Gram matrix must be nonempty")
    evals = np.linalg.eigvalsh(gram)
    eig_min, eig_max = evals[..., 0], evals[..., -1]
    dim = np.count_nonzero(evals < rel_tol * eig_max[..., None], axis=-1)
    dim = np.where(eig_max <= 0.0, gram.shape[-1], dim)
    return dim.tolist(), eig_min.tolist(), eig_max.tolist()
