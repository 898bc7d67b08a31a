"""Explicit-basis reference for the gate's constraint matrix Q.

The gate never builds Q: it uses the closed form of Q_aug^dag Q_aug.  This
module builds Q row by row from a Hilbert-Schmidt orthonormal operator basis
(generalized Gell-Mann, identity first), the textbook construction, so tests
can check the gate against an independent computation and against any
recombination of the basis.  It also keeps the textbook forms of what the
library computes more directly: moving a party's factor to the front, a
checked Hermitian eigensolve, the permute-then-realign operator Schmidt rank,
the lone Kraus operator from the dominant Choi eigenvector, pair products
formed one GEMM per pair, the completeness Gram summed by ``einsum``, the
subset scan by modified Gram-Schmidt with both passes for every vector (and its
residual ratios), the one-vector subset scan over a stored conjugate basis and
the stacked subset scan with a gather and a stop test at every step.  The
memory tests measure with ``traced_peak``.

An exact oracle counts each party's nullity with ``fractions.Fraction``
arithmetic, on channels whose operators have rational entries, so a
``NOT_LOCC`` there holds without floating point, and builds each party's
Q^dag Q, its characteristic polynomial and the identity's coefficients over
``Fraction``; Cayley transforms of random rational skew-symmetric matrices give
it complete rational channels to check.

Last, it holds the helpers that only tests call: the channel's action on a
state, a state check, Kraus remixing, one channel's completeness residual,
Kraus rank, pair products, the selected products the gate gathers, the
Grams it solves, their exact error against its a-priori bound and their
lifted spectra, the explicit states of the rotated domino and discrimination
families, a protocol's per-node completeness residuals and round count,
seeded random LOCC trees (square, or with flags written at the leaves) with
their fixed draws, rounded copies of a channel, and the desk figure sweeps.
"""

from __future__ import annotations

import functools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from loccgate import (
    KrausChannel,
    ProtocolNode,
    ProtocolTree,
    SweepConfig,
    choi_matrix,
    haar_unitary,
    select_independent_subset,
)
from loccgate import gate
from loccgate.channels import VALIDATION_TOL, completeness_residuals, kraus_ranks
from loccgate.gate import pair_product_columns
from loccgate.linalg import ONE_PASS_RATIO, IndependentSubset, nonzero_vectors

# Largest |h - h^dag| entry, relative to the largest |h| entry, that
# ``hermitian_eigenvalues`` accepts as rounding in a Hermitian matrix.
HERMITIAN_RESIDUAL_TOL = 1e-6

# The benchmark's heavy random-unitary shapes (input dims, Kraus count), and their test ids.
HEAVY_SHAPES = [((2, 2, 2), 8), ((3, 3), 11), ((2, 2, 2), 12), ((4, 4), 18), ((2, 2, 2, 2), 20)]
HEAVY_IDS = [f"{'x'.join(map(str, d))}/{nu}" for d, nu in HEAVY_SHAPES]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bits: unlike ``np.array_equal``, this tells -0.0 from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def traced_peak(fn, *args):
    """(peak bytes that ``tracemalloc`` traced during ``fn(*args)``, its result); tracing stops even if it raises.

    Only allocations made during the call count, so a caller warms ``fn`` up first:
    first-call allocations (caches, lazy imports) are not the call's.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


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

    Grossly non-Hermitian input (residual above ``HERMITIAN_RESIDUAL_TOL``
    relative to the largest entry) is rejected, and the rest is symmetrized
    before solving.
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


def operator_schmidt_rank(m: np.ndarray, dims, party: int, rel_tol: float = 1e-9) -> int:
    """Schmidt rank across (party | rest): move the party to the front, then realign."""
    mp = permute_party_to_front(m, dims, party)
    d_party = int(dims[party])
    d_rest = mp.shape[0] // d_party
    tens = mp.reshape(d_party, d_rest, d_party, d_rest)
    realigned = tens.transpose(0, 2, 1, 3).reshape(d_party * d_party, d_rest * d_rest)
    sv = np.linalg.svd(realigned, compute_uv=False)
    return int(np.count_nonzero(sv**2 > rel_tol * sv[0] ** 2)) if sv[0] > 0 else 0


def per_pair_products(kraus: np.ndarray) -> np.ndarray:
    """Pair products of a (B, N, d_out, D) Kraus stack, shape (B, N^2, D, D), one GEMM per pair.

    Each K_i^dag K_j is then averaged in place with the adjoint of its
    swapped partner, real and imaginary parts apart.  At D >= 2 the gate's
    products have the same bits, whether it forms them one GEMM per pair or
    one per Kraus operator (block columns).  At D = 1 they do not: numpy forms
    one pair's (1 x d_out)(d_out x 1) product as a dot, while a block column
    (N x d_out)(d_out x 1) is a gemv, and the two round differently in the
    last bits (N = 3, d_out = 5: by up to 3.6e-15 on complex Gaussian
    entries).  That is why ``row_sharing_pairs`` keeps the block columns at
    D = 1: the gate's bits then do not depend on which of its Kraus
    operators share output rows.
    """
    n_stack, n, _, d = kraus.shape
    products = np.matmul(kraus.conj().swapaxes(-1, -2)[:, :, None], kraus[:, None])
    products.real += products.real.transpose(0, 2, 1, 4, 3)
    products.imag -= products.imag.transpose(0, 2, 1, 4, 3)
    products *= 0.5
    return products.reshape(n_stack, n * n, d, d)


def einsum_completeness(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per channel of a (B, N, d_out, D) Kraus stack: the largest entry of
    |sum_i K_i^dag K_i - I| and of |sum_i K_i^dag K_i|, the sum by ``einsum``."""
    acc = np.einsum("...iab,...iac->...bc", kraus.conj(), kraus)
    return np.abs(acc - np.eye(kraus.shape[-1])).max(axis=(-2, -1)), np.abs(acc).max(axis=(-2, -1))


def lone_kraus_operator(channel) -> np.ndarray:
    """Dominant Choi eigenvector, scaled by the root of its eigenvalue, as an operator."""
    j = choi_matrix(channel)
    evals, vecs = np.linalg.eigh((j + j.conj().T) / 2.0)
    top = vecs[:, -1] * np.sqrt(max(float(evals[-1]), 0.0))
    return top.reshape((channel.output_dim, channel.dim), order="F")


@dataclass(frozen=True)
class OperatorBasis:
    """Hilbert-Schmidt orthonormal basis of d x d operators, identity first."""

    dim: int
    elements: tuple[np.ndarray, ...]


def operator_basis(d: int) -> OperatorBasis:
    """Deterministic orthonormal operator basis on dimension ``d``.

    The first element is I/sqrt(d); the remaining d^2 - 1 elements are
    traceless, built from the generalized Gell-Mann families in a fixed order:
    symmetric off-diagonal, antisymmetric off-diagonal, then diagonal.  Every
    element has unit Hilbert-Schmidt norm.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    elements = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2)
            elements.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            elements.append(m)
    for level in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -float(level)
        elements.append(m / np.sqrt(level * (level + 1)))
    return OperatorBasis(dim=d, elements=tuple(elements))


def recombined_basis(basis: OperatorBasis, rng) -> OperatorBasis:
    """Randomly remix the traceless part of a basis; the identity element stays."""
    k = len(basis.elements) - 1
    w = haar_unitary(k, rng)
    tail = [sum(w[a, b] * basis.elements[1 + b] for b in range(k)) for a in range(k)]
    return OperatorBasis(basis.dim, (basis.elements[0], *tail))


def two_pass_ratios(vectors, tol: float) -> list[tuple[int, float, bool]]:
    """(index, ratio, taken) for each vector the greedy scan meets, by per-vector modified
    Gram-Schmidt, twice over: ratio is the residual's norm after both passes over the vector's
    own norm, and the vector is taken iff that residual exceeds ``tol`` times its norm.  A vector
    at most ``tol`` times the largest norm counts as zero and is not met.  Unlike the scan, this
    goes on once the taken vectors span the whole space, so it also checks that early stop."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    scale = max(norms)
    scanned, onb = [], []
    for idx, v in enumerate(vecs):
        if norms[idx] <= tol * scale:
            continue
        r = v.copy()
        for _ in range(2):
            for q in onb:
                r -= np.vdot(q, r) * q
        rnorm = float(np.linalg.norm(r))
        scanned.append((idx, rnorm / norms[idx], rnorm > tol * norms[idx]))
        if scanned[-1][2]:
            onb.append(r / rnorm)
    return scanned


def mgs_subset_indices(vectors, tol: float) -> list[int]:
    """Greedy independent subset by per-vector modified Gram-Schmidt, twice over for every
    vector (``two_pass_ratios``): the loop form of ``select_independent_subset``, kept as its
    reference."""
    return [idx for idx, _, taken in two_pass_ratios(vectors, tol) if taken]


def reference_select_independent_subset(vectors, tol: float) -> IndependentSubset:
    """The one-vector scan of ``select_independent_subset`` in its earlier form, as its reference:
    it kept a second, conjugated copy of the basis, so that each projection ``Q^dag r`` was a plain
    product.  It takes the scan's pass rule: a second pass only where the first leaves a residual
    at or below ``max(ONE_PASS_RATIO, tol)`` of the candidate's norm.  Its bits are the scan's but
    for the sign of exact zeros."""
    vecs = np.asarray(vectors, dtype=complex)
    vecs = vecs.reshape(len(vecs), -1)
    length = vecs.shape[1]
    norms, nonzero = nonzero_vectors(vecs, tol)
    keep = np.flatnonzero(nonzero)
    selected: list[int] = []
    taken = np.zeros(len(vecs), dtype=bool)
    onb = np.empty((min(len(vecs), length), length), dtype=complex)  # Q's columns as rows
    onb_c = np.empty_like(onb)  # conj(onb), so Q^dag v is a plain product
    for idx, norm in zip(keep.tolist(), norms[keep].tolist()):
        k = len(selected)
        v = vecs[idx]
        r = v - (onb_c[:k] @ v) @ onb[:k]
        rnorm = math.sqrt(np.vdot(r, r).real)
        if rnorm <= max(ONE_PASS_RATIO, tol) * norm:
            r -= (onb_c[:k] @ r) @ onb[:k]
            rnorm = math.sqrt(np.vdot(r, r).real)
        if rnorm > tol * norm:
            onb[k] = r / rnorm
            onb_c[k] = onb[k].conj()
            selected.append(idx)
            taken[idx] = True
            if k + 1 == length:
                break
    k = len(selected)
    return IndependentSubset(taken, onb[:k])


def reference_select_independent_subsets(stack, tol: float):
    """The stacked CGS2 scan of ``select_independent_subsets`` in its first form, as its bit-for-bit
    reference: each step tests every later floor to decide whether to go on, and gathers the
    accepting slices by index even when all of them accept."""
    vecs = np.asarray(stack, dtype=complex)
    n_slices, n_vecs, length = vecs.shape
    norms, nonzero = nonzero_vectors(vecs, tol)
    floors = np.where(nonzero, tol * norms, np.inf)
    cap = min(n_vecs, length)
    onb = np.zeros((n_slices, cap, length), dtype=complex)
    taken = np.zeros((n_slices, n_vecs), dtype=bool)
    k = np.zeros(n_slices, dtype=np.intp)
    for t in range(n_vecs):
        if np.isinf(floors[:, t:]).all():  # no slice accepts a vector from here on
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
        grow = np.flatnonzero(rnorm > floors[:, t])
        if grow.size:
            at = k[grow]
            onb[grow, at] = r[grow, :, 0] / rnorm[grow, None]
            taken[grow, t] = True
            k[grow] += 1
            if t + 1 >= length:  # a slice whose span is full scans no further
                floors[grow[k[grow] == length]] = np.inf
    return taken, onb


def party_products(channel, party: int) -> list[np.ndarray]:
    """All N^2 products K_i^dag K_j, row-major in (i, j), party's factor first."""
    return [
        permute_party_to_front(ki.conj().T @ kj, channel.input_dims, party)
        for ki in channel.kraus
        for kj in channel.kraus
    ]


def q_matrix(products, indices, d_party: int, d_rest: int, bases=None) -> np.ndarray:
    """Unaugmented Q for party-first products and the selected column indices.

    Rows run over basis pairs (mu, nu) with mu over the full party basis and
    nu over the traceless rest basis only, mu outer / nu inner.  Entry =
    trace[(L_mu tensor G_nu)^dag P_(i,j)].
    """
    if bases is None:
        bases = (operator_basis(d_party), operator_basis(d_rest))
    basis_party, basis_rest = bases
    rows = [
        np.kron(lam, basis_rest.elements[nu]).conj().reshape(-1)
        for lam in basis_party.elements
        for nu in range(1, d_rest * d_rest)
    ]
    if not rows:
        return np.zeros((0, len(indices)), dtype=complex)
    cols = np.stack([products[i].reshape(-1) for i in indices], axis=1)
    return np.stack(rows) @ cols


def build_q(channel, party: int, bases=None, products=None):
    """Unaugmented Q for one party, plus the independent subset it was built on."""
    if products is None:
        products = party_products(channel, party)
    subset = select_independent_subset([p.reshape(-1) for p in products], 1e-9)
    d_party = channel.input_dims[party]
    q = q_matrix(products, subset.indices, d_party, channel.dim // d_party, bases)
    return q, subset


def augmented_q(channel, party: int, bases=None, products=None):
    """Q with the identity-coefficient row c^dag appended, plus the subset."""
    if products is None:
        products = party_products(channel, party)
    q, subset = build_q(channel, party, bases, products)
    c = identity_coefficients(products, subset.indices)
    return np.vstack([q, c.conj()[None, :]]), subset


def identity_coefficients(products, indices) -> np.ndarray:
    """Unit-norm least-squares coefficients of the identity over the explicit columns."""
    cols = np.stack([products[i].reshape(-1) for i in indices], axis=1)
    target = np.eye(products[0].shape[0], dtype=complex).reshape(-1)
    coeffs, *_ = np.linalg.lstsq(cols, target, rcond=None)
    return coeffs / np.linalg.norm(coeffs)


def augmented_spectrum(channel, party: int, bases=None) -> np.ndarray:
    """Ascending eigenvalues of Q_aug^dag Q_aug built from explicit bases."""
    q_aug, _ = augmented_q(channel, party, bases)
    gram = q_aug.conj().T @ q_aug
    return np.linalg.eigvalsh((gram + gram.conj().T) / 2)


def check_completeness(channel: KrausChannel) -> float:
    """Largest absolute entry of sum_i K_i^dag K_i - I for one channel, by the gate's rule."""
    return float(completeness_residuals(channel.kraus[None])[0])


def kraus_rank(channel: KrausChannel) -> int:
    """Rank of the Choi matrix: the minimal number of Kraus operators."""
    return kraus_ranks(channel.kraus[None])[0]


def pair_products(channel: KrausChannel) -> np.ndarray:
    """All N^2 products K_i^dag K_j on the input space, shape (N^2, D, D).

    Ordered row-major in (i, j).  The adjoint of product (i, j) is product
    (j, i) exactly.
    """
    return stacked_pair_products(channel.kraus[None])[0]


def stacked_pair_products(kraus: np.ndarray) -> np.ndarray:
    """``pair_products`` of a (B, N, d_out, D) Kraus stack: the gate's block columns in input order."""
    n_stack, n, _, d = kraus.shape
    return pair_product_columns(kraus).swapaxes(1, 2).reshape(n_stack, n * n, d, d)


def gate_grams(channel: KrausChannel):
    """(gram, party_grams) as ``gate_channel`` solves them for a lone channel: its party-independent
    Gram <P_a, P_b> and, per party, Q^dag Q, read by wrapping ``gate.party_gram``."""
    seam, calls = gate.party_gram, []

    def spy(reduced, gram, d_rest):
        out = seam(reduced, gram, d_rest)
        calls.append((gram[0], out[0]))  # the lone channel's slice of its stack of one
        return out

    gate.party_gram = spy
    try:
        gate.gate_channel(channel)
    finally:
        gate.party_gram = seam
    assert len(calls) == channel.n_parties
    return calls[0][0], [party for _, party in calls]


def gate_products(channel: KrausChannel) -> np.ndarray:
    """The selected products as ``gate_channel`` gathers them for a lone channel, one per row of a
    (|S|, D^2) array, read by wrapping ``gate.partial_traces``: the products its Gram is formed from."""
    seam, calls = gate.partial_traces, []

    def spy(selected, dims):
        calls.append(selected[0].reshape(len(selected[0]), -1).copy())  # the lone channel's group
        return seam(selected, dims)

    gate.partial_traces = spy
    try:
        gate.gate_channel(channel)
    finally:
        gate.partial_traces = seam
    [products] = calls
    return products


def gram_error_to_bound(products: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Entrywise |G - G_exact| over its a-priori bound gamma_{L+2} (|P|conj |P|^T), gamma_n = n u / (1 - n u),
    u = 2^-53, for the Gram ``gram`` of the (k, L) float ``products`` P (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.5).  G_exact = conj(P) P^T is exact: each
    float is a dyadic rational, so with every entry of P scaled by one power of two the sums are
    Python ints; only the difference is rounded, once.  A zero error over a zero bound reads 0."""
    ratios = [Fraction(x).as_integer_ratio() for x in np.stack([products.real, products.imag]).reshape(-1).tolist()]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    ints = np.array([num << (shift - den.bit_length() + 1) for num, den in ratios], dtype=object)
    re, im = ints.reshape(2, *products.shape)
    scale = Fraction(1, 1 << 2 * shift)
    exact_re, exact_im = re @ re.T + im @ im.T, re @ im.T - im @ re.T  # conj(P_a) . P_b, scaled
    error = np.array([
        math.hypot(float(Fraction(g.real) - scale * a), float(Fraction(g.imag) - scale * b))
        for g, a, b in zip(gram.reshape(-1).tolist(), exact_re.reshape(-1), exact_im.reshape(-1))
    ]).reshape(gram.shape)
    n = products.shape[1] + 2
    bound = n * 2.0**-53 / (1 - n * 2.0**-53) * (np.abs(products) @ np.abs(products).T)
    return np.divide(error, bound, out=np.where(error > 0, np.inf, 0.0), where=bound > 0)  # 0 / 0 reads 0


def lifted_spectrum(party_gram: np.ndarray) -> np.ndarray:
    """Ascending ``hermitian_eigenvalues`` of a party's Q^dag Q with the smallest, the identity's,
    lifted to 1: the spectrum of Q_aug^dag Q_aug, as the gate reads it."""
    evals = hermitian_eigenvalues(party_gram)
    evals[0] = 1.0
    return np.sort(evals)


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
        raise ValueError(f"state has shape {rho.shape}, expected {(channel.dim, channel.dim)}")
    return np.einsum("iab,bc,idc->ad", channel.kraus, rho, channel.kraus.conj())


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
            f"mixing matrix has {n_hat} columns but the channel has {channel.n_kraus} Kraus operators"
        )
    gram_residual = float(np.max(np.abs(v.conj().T @ v - np.eye(n_hat))))
    if gram_residual > VALIDATION_TOL:
        raise ValueError(f"mixing matrix columns are not isometric (residual {gram_residual:.3e})")
    remixed = np.tensordot(v[:, : channel.n_kraus], channel.kraus, axes=1)
    return KrausChannel(channel.name, channel.input_dims, channel.output_dim, remixed)


def rotated_domino_states(theta) -> list[np.ndarray]:
    """The nine two-qutrit product states of the rotated domino family at four angles, written out."""
    e0, e1, e2 = np.eye(3, dtype=complex)
    (c1, c2, c3, c4), (s1, s2, s3, s4) = np.cos(theta), np.sin(theta)
    return [
        np.kron(e1, e1),
        np.kron(e0, c1 * e0 + s1 * e1), np.kron(e0, s1 * e0 - c1 * e1),
        np.kron(e2, c2 * e1 + s2 * e2), np.kron(e2, s2 * e1 - c2 * e2),
        np.kron(c3 * e1 + s3 * e2, e0), np.kron(s3 * e1 - c3 * e2, e0),
        np.kron(c4 * e0 + s4 * e1, e2), np.kron(s4 * e0 - c4 * e1, e2),
    ]


def usd_states(p) -> list[np.ndarray]:
    """The four normalized two-qubit states that the discrimination family's measurement tells apart."""
    e00, e01, e10, e11 = np.eye(4, dtype=complex)
    a1, b1, a3, b3 = (np.conj(x) for x in (p.alpha1, p.beta1, p.alpha3, p.beta3))
    norm = np.sqrt(abs(b3) ** 2 + abs(a3 * b1) ** 2)
    return [
        (b3 * b1 * e00 + b3 * a1 * e01 - a3 * b1 * e10) / norm,
        (b3 * b1 * e00 - b3 * a1 * e01 - a3 * b1 * e10) / norm,
        e10,
        e11,
    ]


def node_residuals(tree) -> list[float]:
    """Per node of a protocol tree, preorder: the largest entry of |sum_k op_k^dag op_k - I| on the
    acting party's current dimension, each sum formed as a d x d matrix."""
    residuals = []

    def walk(node, dims):
        ops = [np.asarray(op, dtype=complex) for op, _ in node.branches]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as a nan residual
            total = sum(op.conj().T @ op for op in ops)
            residuals.append(float(np.max(np.abs(total - np.eye(dims[node.party])))))
        for op, (_, child) in zip(ops, node.branches):
            if child is not None:
                walk(child, [op.shape[0] if p == node.party else d for p, d in enumerate(dims)])

    walk(tree.root, list(tree.initial_dims))
    return residuals


def random_locc_tree(dims, depth: int, outcomes: int, rng, out_dims=None) -> ProtocolTree:
    """A finite-round LOCC protocol on ``dims``, drawn from ``rng``: each node is a party other than
    its parent's measuring a Haar isometry d_p -> m d_p (m = ``outcomes``) cut into m square blocks,
    and each branch gets a child with probability 0.8, down to ``depth`` levels.

    Every leaf ends on ``out_dims`` (default ``dims``, so the compiled channel is square).  Other
    ``out_dims`` make each leaf write flags: its block B becomes F B, for a Haar isometry F from the
    acting party's dimension onto its out dimension (rectangular where that is larger), drawn per
    leaf, and one-branch nodes then apply such an isometry for each other party whose dimension
    grows, in party order.  An isometry keeps every node complete.  With the default no F is drawn,
    so the draws are the square trees'."""
    dims = tuple(dims)
    out_dims = dims if out_dims is None else tuple(out_dims)

    def flag(party: int) -> np.ndarray:
        return haar_unitary(out_dims[party], rng)[:, : dims[party]]

    def other_flags(party: int) -> ProtocolNode | None:
        child = None
        for q in reversed([q for q in range(len(dims)) if q != party and out_dims[q] != dims[q]]):
            child = ProtocolNode(q, [(flag(q), child)])
        return child

    def node(levels: int, parent: int | None) -> ProtocolNode:
        party = int(rng.choice([p for p in range(len(dims)) if p != parent]))
        d = dims[party]
        isometry = haar_unitary(outcomes * d, rng)[:, :d]
        branches = []
        for block in isometry.reshape(outcomes, d, d):
            if levels > 1 and rng.random() < 0.8:
                branches.append((block, node(levels - 1, party)))
            elif out_dims == dims:
                branches.append((block, None))
            else:
                branches.append((flag(party) @ block, other_flags(party)))
        return ProtocolNode(party, branches)

    return ProtocolTree(dims, node(depth, None))


# The fixed random LOCC tree draws, (dims, depth, outcomes, seed): 48 trees, 12 per shape.
LOCC_TREE_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]
LOCC_TREE_DRAWS = [(dims, depth, outcomes, seed) for dims in LOCC_TREE_DIMS
                   for depth in (2, 3) for outcomes in (2, 3) for seed in range(3)]


def rounded_channel(channel: KrausChannel, digits: int) -> KrausChannel:
    """``channel`` with the real and imaginary parts of each Kraus entry rounded to ``digits`` significant digits."""
    parts = np.stack([channel.kraus.real, channel.kraus.imag])
    rounded = np.array([float(f"{x:.{digits - 1}e}") for x in parts.reshape(-1).tolist()]).reshape(parts.shape)
    return KrausChannel(channel.name, channel.input_dims, channel.output_dim, rounded[0] + 1j * rounded[1])


def desk_figure_configs(seed: int = 1) -> list[SweepConfig]:
    """The sweeps of scripts/run_figure_sweeps.py at desk scale and master seed ``seed``."""
    return [
        SweepConfig(family="rotated_domino", samples=200, seed=seed),
        SweepConfig(family="usd", samples=200, seed=seed + 1),
        *(SweepConfig(family="random_unitary", samples=20, seed=seed + 2, dims=dims,
                      nu_values=tuple(range(2, dims[0] * dims[1] + 3))) for dims in ((2, 2), (2, 3))),
    ]


def communication_rounds(tree) -> int:
    """Measurement layers along the deepest branch of a protocol tree, minus the final one."""

    def depth(node) -> int:
        return 1 + max((depth(child) for _, child in node.branches if child is not None), default=0)

    return depth(tree.root) - 1


def _fractions(vector) -> list[Fraction]:
    """The entries of ``vector`` as fractions of Python ints: a numpy integer, or a ``Fraction``
    built from one, keeps its fixed width through ``Fraction`` arithmetic and overflows."""
    return [Fraction(int(x.numerator), int(x.denominator)) for x in map(Fraction, vector)]


def exact_independent(vectors) -> list[int]:
    """Positions of the first maximal linearly independent subset of equal-length vectors of
    rationals, in input order, by Gaussian elimination over ``Fraction`` (``_fractions``)."""
    pivots: dict[int, list[Fraction]] = {}  # pivot column -> row with 1 there and 0 at earlier pivots
    taken = []
    for idx, v in enumerate(vectors):
        v = _fractions(v)
        for col, row in pivots.items():
            if v[col]:
                v = [x - v[col] * y for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            pivots[lead] = [x / v[lead] for x in v]
            taken.append(idx)
    return taken


def exact_rank(vectors) -> int:
    """Rank of equal-length vectors of rationals: the size of their ``exact_independent`` subset."""
    return len(exact_independent(vectors))


def exact_solve(a, b) -> np.ndarray:
    """X with a X = b for an invertible m x m rational ``a`` and an m x n ``b``, by Gauss-Jordan
    elimination over ``Fraction`` (``_fractions``): an object array of fractions."""
    m = len(a)
    rows = [_fractions([*row_a, *row_b]) for row_a, row_b in zip(a, b)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return np.array([row[m:] for row in rows], dtype=object)


def exact_nullities(kraus, dims) -> list[int]:
    """Each party's nullity of Q_aug in exact arithmetic, for real Kraus operators with rational entries.

    With P the pair products K_i^T K_j, span P meets L(H_p) (x) I_rest in
    rank(P) + d_p^2 - rank(P and every E_ab (x) I_rest) dimensions; the identity is one of them,
    and Q_aug's extra row removes it.
    """
    kraus = [np.asarray(k, dtype=object) for k in kraus]  # numpy integers become Python ints, which never wrap
    products = [(a.T @ b).ravel() for a in kraus for b in kraus]
    rank = exact_rank(products)
    nullities = []
    for p, d in enumerate(dims):
        units = [functools.reduce(np.kron, [unit.reshape(d, d) if q == p else np.eye(dq, dtype=int)
                                            for q, dq in enumerate(dims)]).ravel()
                 for unit in np.eye(d * d, dtype=int)]
        nullities.append(rank + d * d - exact_rank(products + units) - 1)
    return nullities


def exact_party_grams(kraus, dims) -> tuple[np.ndarray, list[np.ndarray]]:
    """(x_I, grams) in exact arithmetic, for real Kraus operators with rational entries: over the
    ``exact_independent`` subset S of the pair products P = K_i^T K_j, the identity's coefficients
    x_I, sum_a x_a P_a = I, and per party Q^dag Q = <P_a, P_b> - <Tr_rest P_a, Tr_rest P_b> / d_rest,
    with no identity row c; object arrays of ``Fraction``.

    x_I solves the normal equations <P_a, P_b> x = <P_a, I> by ``exact_solve``; a channel whose
    identity lies off span S raises ``ValueError``."""
    kraus = [np.asarray(k, dtype=object) for k in kraus]  # numpy integers become Python ints, which never wrap
    products = [a.T @ b for a in kraus for b in kraus]
    selected = [products[i] for i in exact_independent([p.ravel() for p in products])]
    gram = [[(p_a * p_b).sum() for p_b in selected] for p_a in selected]
    x_i = exact_solve(gram, [[p.trace()] for p in selected])[:, 0]
    if (sum(x * p for x, p in zip(x_i, selected)) != np.eye(len(selected[0]), dtype=int)).any():
        raise ValueError("the identity is not in the span of the pair products")
    total, grams = math.prod(dims), []
    for p, d in enumerate(dims):
        lead, rest = math.prod(dims[:p]), total // math.prod(dims[: p + 1])
        reduced = [sum(s.reshape(lead, d, rest, lead, d, rest)[x, :, y, x, :, y]
                       for x in range(lead) for y in range(rest)) for s in selected]
        grams.append(np.array([[g - Fraction((r_a * r_b).sum(), total // d) for g, r_b in zip(row, reduced)]
                               for row, r_a in zip(gram, reduced)], dtype=object))
    return x_i, grams


def char_poly(matrix) -> list[Fraction]:
    """Coefficients of det(l I - A), highest power first, for a square matrix A of rationals, by
    the Faddeev-LeVerrier recursion over ``Fraction`` (``_fractions``): M_1 = I, c_k =
    -tr(A M_k) / k and M_(k+1) = A M_k + c_k I, so the polynomial is l^n + c_1 l^(n-1) + ... + c_n."""
    a = [_fractions(row) for row in matrix]
    n = len(a)
    coeffs, m = [Fraction(1)], [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
        m = [[am[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def exact_projectors(vectors) -> list[np.ndarray]:
    """|u><u| / <u|u> for each real vector u of integers, with ``Fraction`` entries.

    Each u is first an object array of Python ints: int64 products wrap with no warning."""
    vectors = [np.array([int(x) for x in v], dtype=object) for v in vectors]
    return [np.outer(u, u) * Fraction(1, u @ u) for u in vectors]


def exact_cayley_isometry(m: int, n: int, rng) -> np.ndarray:
    """The first n columns of the Cayley transform (I - S)(I + S)^-1 of a random rational
    skew-symmetric m x m matrix S: an m x n real isometry with ``Fraction`` entries.

    I + S is invertible for real skew-symmetric S, and I - S commutes with its inverse, so the
    transform is orthogonal; the columns come from ``exact_solve``: (I + S) X = [I_n; 0]."""
    skew = [[Fraction(0)] * m for _ in range(m)]
    for i, j in zip(*np.triu_indices(m, 1)):
        skew[i][j] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        skew[j][i] = -skew[i][j]
    solved = exact_solve([[int(i == j) + skew[i][j] for j in range(m)] for i in range(m)], np.eye(m, n, dtype=int))
    return (np.eye(m, dtype=int) - np.array(skew, dtype=object)) @ solved


def exact_random_kraus(dims, n_kraus: int, d_out: int, rng) -> list[np.ndarray]:
    """A complete rational channel on ``dims``: an ``exact_cayley_isometry`` cut into ``n_kraus``
    blocks of ``d_out`` rows, so sum_i K_i^T K_i = V^T V = I exactly."""
    isometry = exact_cayley_isometry(n_kraus * d_out, math.prod(dims), rng)
    return [isometry[i * d_out : (i + 1) * d_out] for i in range(n_kraus)]


def exact_one_way_kraus(dims, outcomes: int, rng) -> list[np.ndarray]:
    """A one-way LOCC channel on two parties ``dims``, in rational arithmetic: party 0 measures
    with the ``exact_random_kraus`` operators M_k of ``outcomes`` outcomes, then party 1 applies
    an outcome-dependent isometry W_k, so K_k = M_k (x) W_k."""
    d0, d1 = dims
    return [np.kron(m, exact_cayley_isometry(d1 + 1, d1, rng))
            for m in exact_random_kraus((d0,), outcomes, d0, rng)]


def exact_rotated_domino_kraus(quarter) -> list[np.ndarray]:
    """``rotated_domino_channel``'s projectors, in its order, at four angles each 0 or pi/4
    (``quarter``: four flags), from unnormalised integer states."""
    e0, e1, e2 = np.eye(3, dtype=int)

    def pair(a, b, q):  # (cos t a + sin t b, sin t a - cos t b) up to a positive factor
        return (a + b, a - b) if q else (a, -b)

    t1, t2, t3, t4 = (pair(a, b, q) for (a, b), q in zip([(e0, e1), (e1, e2), (e1, e2), (e0, e1)], quarter))
    return exact_projectors([
        np.kron(e1, e1),
        *(np.kron(e0, v) for v in t1), *(np.kron(e2, v) for v in t2),
        *(np.kron(v, e0) for v in t3), *(np.kron(v, e2) for v in t4),
    ])


def exact_bell_kraus() -> list[np.ndarray]:
    """``bell_channel``'s projectors, in its order, from unnormalised integer states."""
    e00, e01, e10, e11 = np.eye(4, dtype=int)
    return exact_projectors([e00 + e11, e00 - e11, e01 + e10, e01 - e10])
