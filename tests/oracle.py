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
one-vector subset scan over a stored conjugate basis and the stacked subset
scan with a gather and a stop test at every step.  The memory
tests measure with ``traced_peak``.

An exact oracle counts each party's nullity with ``fractions.Fraction``
arithmetic, on channels whose operators have rational entries, so a
``NOT_LOCC`` there holds without floating point.

Last, it holds the helpers that only tests call: the channel's action on a
state, a state check, Kraus remixing, one channel's completeness residual,
Kraus rank and pair products, the explicit states of the rotated domino and
discrimination families, a protocol's per-node completeness residuals and
round count, and the desk figure sweeps.
"""

from __future__ import annotations

import functools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from loccgate import KrausChannel, SweepConfig, choi_matrix, haar_unitary, select_independent_subset
from loccgate.channels import VALIDATION_TOL, completeness_residuals, kraus_ranks
from loccgate.gate import pair_product_columns
from loccgate.linalg import IndependentSubset, nonzero_vectors

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


def mgs_subset_indices(vectors, tol: float) -> list[int]:
    """Greedy independent subset by per-vector modified Gram-Schmidt, twice over.

    The loop form of ``select_independent_subset``, kept as its reference.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    scale = max(norms)
    selected, onb = [], []
    for idx, v in enumerate(vecs):
        if norms[idx] <= tol * scale:
            continue
        r = v.copy()
        for _ in range(2):
            for q in onb:
                r = r - (q.conj() @ r) * q
        rnorm = float(np.linalg.norm(r))
        if rnorm > tol * norms[idx]:
            selected.append(idx)
            onb.append(r / rnorm)
    return selected


def reference_select_independent_subset(vectors, tol: float) -> IndependentSubset:
    """The one-vector CGS2 scan of ``select_independent_subset`` in its earlier form, as its
    reference: it kept a second, conjugated copy of the basis, so that each projection
    ``Q^dag r`` was a plain product.  Its bits are the scan's but for the sign of exact zeros."""
    vecs = np.asarray(vectors, dtype=complex)
    vecs = vecs.reshape(len(vecs), -1)
    length = vecs.shape[1]
    norms, nonzero = nonzero_vectors(vecs, tol)
    keep = np.flatnonzero(nonzero)
    selected: list[int] = []
    taken = np.zeros(len(vecs), dtype=bool)
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
            taken[idx] = True
            if k + 1 == length:
                break
    k = len(selected)
    return IndependentSubset(taken, onb[:k], factor[:k, :k])


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
    factor = np.zeros((n_slices, cap, cap), dtype=complex)
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
            factor[grow, :width, at] = (h1 + h2)[grow, :, 0]
            factor[grow, at, at] = rnorm[grow]
            taken[grow, t] = True
            k[grow] += 1
            if t + 1 >= length:  # a slice whose span is full scans no further
                floors[grow[k[grow] == length]] = np.inf
    return taken, onb, factor


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


def exact_rank(vectors) -> int:
    """Rank of equal-length vectors of rationals, by Gaussian elimination over ``Fraction``.

    Entries are first made fractions of Python ints: a numpy integer, or a ``Fraction`` built from
    one, keeps its fixed width through ``Fraction`` arithmetic and overflows."""
    pivots: dict[int, list[Fraction]] = {}  # pivot column -> row with 1 there and 0 at earlier pivots
    for v in vectors:
        v = [Fraction(int(x.numerator), int(x.denominator)) for x in map(Fraction, v)]
        for col, row in pivots.items():
            if v[col]:
                v = [x - v[col] * y for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            pivots[lead] = [x / v[lead] for x in v]
    return len(pivots)


def exact_nullities(kraus, dims) -> list[int]:
    """Each party's nullity of Q_aug in exact arithmetic, for real Kraus operators with rational entries.

    With P the pair products K_i^T K_j, span P meets L(H_p) (x) I_rest in
    rank(P) + d_p^2 - rank(P and every E_ab (x) I_rest) dimensions; the identity is one of them,
    and Q_aug's extra row removes it.
    """
    products = [(np.asarray(a).T @ np.asarray(b)).ravel() for a in kraus for b in kraus]
    rank = exact_rank(products)
    nullities = []
    for p, d in enumerate(dims):
        units = [functools.reduce(np.kron, [unit.reshape(d, d) if q == p else np.eye(dq, dtype=int)
                                            for q, dq in enumerate(dims)]).ravel()
                 for unit in np.eye(d * d, dtype=int)]
        nullities.append(rank + d * d - exact_rank(products + units) - 1)
    return nullities


def exact_projectors(vectors) -> list[np.ndarray]:
    """|u><u| / <u|u> for each real vector u of integers, with ``Fraction`` entries."""
    return [np.outer(u, u) * Fraction(1, int(u @ u)) for u in map(np.array, vectors)]


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
