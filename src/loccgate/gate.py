"""First-measurement feasibility gate for multipartite Kraus channels.

Any local measurement a party could make to open an LOCC protocol for a
channel must, at the level of POVM elements, be a linear combination of the
Kraus pair products K_i^dag K_j whose partial expectation against every
traceless operator on the other parties vanishes.  Over a maximal linearly
independent subset P_a of the pair products, those trace constraints form a
matrix Q; one more row, the conjugated identity coefficients c^dag,
removes the always-present identity solution.  The party can measure first
only if the augmented Q has a nontrivial nullspace.  If the nullspace is
empty for every party, no LOCC protocol of any number of rounds implements
the channel.

Only the Gram of the augmented Q is ever needed, and it has a closed form.
The constraint rows span every operator except those of the form
X tensor I_rest, so

    Q_aug^dag Q_aug = <P_a, P_b> - <Tr_rest P_a, Tr_rest P_b> / d_rest + c c^dag

with <X, Y> = tr(X^dag Y).  Moving a party's factor to the front only
permutes matrix entries, so the subset, c and the first and last terms are
computed once per channel; each party adds only its partial-trace term.
Subset selection factors the selected products as r^T times orthonormal rows,
so <P_a, P_b> = (r^dag r)_ab and c solves r c = h for the identity's
coordinates h over those rows.  Channels of one shape are gated as stacks:
their pair products are formed and zero-filtered in chunks, and a stack, which
may span chunks, packs each channel's surviving products, zero-padded to its
widest channel.  One scan gives the stack one padded record of subsets and
factors, one identity stage checks it for every residual and solves for c
once per |S|, and channels with equal |S| share, per party, one partial trace
and one eigensolve.  Sweeps hand their rows to the gate as Kraus stacks; a
single channel (``gate_channel``) is a stack of one, with a one-vector scan.

The eigenvalue ratio min/max of that Gram per party ("ratio", clamped at 0 so
rounding never makes it negative), minimized over parties ("lambda_hat"),
doubles as a closeness-to-singular diagnostic.

The nullspace threshold ``rel_tol`` is the gate's only knob, and it must be a
finite number in (0, 1): with a NaN or nonpositive one no eigenvalue counts
as zero (a fake NOT_LOCC), with one of 1 or more nearly all do.  The subset
tolerance, the identity residual and the Kraus-rank threshold are constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channels import (
    CompletenessError,
    DimensionError,
    KrausChannel,
    completeness_residuals,
    kraus_ranks,
    lone_kraus_operator,
    operator_schmidt_rank,
)
from .linalg import (
    DEFAULT_INDEPENDENCE_TOL,
    nonzero_vectors,
    nullspace_dimension,
    select_independent_subset,
    select_independent_subsets,
)

# Eigenvalues of Q_aug^dag Q_aug below DEFAULT_NULLSPACE_RTOL times the largest count
# as zero.  Sits between solver noise (~1e-16) and the smallest genuinely
# nonzero ratios seen in the example families (~1e-9), with margin.
DEFAULT_NULLSPACE_RTOL = 1e-13

# Hard ceiling on the completeness residual before gating is meaningless, and
# the residual above which the CLI warns but still gates; a nan residual fails both.
COMPLETENESS_TOL = 1e-6
COMPLETENESS_WARN_TOL = 1e-9

# Largest norm of the identity's part outside the span of the selected products.
IDENTITY_RESIDUAL_TOL = 1e-9

# Largest packed pair-product array gated as one stack, in bytes; products are formed in
# chunks of half as much.  The stacked scan's buffers take up to twice as much again:
# larger stacks cut per-channel call overhead but add peak memory.
STACK_BYTES = 1 << 19


def valid_rel_tol(rel_tol) -> bool:
    """A relative threshold must be finite and strictly between 0 and 1."""
    return 0.0 < rel_tol < 1.0  # false for nan and +-inf


VERDICT_NOT_LOCC = "NOT_LOCC"
VERDICT_FIRST_MOVE_CANDIDATES = "FIRST_MOVE_CANDIDATES"
VERDICT_DEGENERATE_KRAUS_RANK_ONE = "DEGENERATE_KRAUS_RANK_ONE"
VERDICT_DEGENERATE_IDENTITY_SPAN = "DEGENERATE_IDENTITY_SPAN"


@dataclass(frozen=True)
class PartyGateReport:
    """Per-party diagnostics of the augmented constraint matrix Q_aug."""

    party: int
    pair_count: int
    q_rows: int
    eig_min: float
    eig_max: float
    ratio: float
    nullspace_dim: int
    can_measure_first: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GateVerdict:
    """Channel-level outcome of the gate, with one report per party.

    ``NOT_LOCC`` is a certificate that the channel admits no LOCC protocol.
    ``FIRST_MOVE_CANDIDATES`` is *not* a proof of LOCC-possibility; the gate
    is a necessary condition only.  Kraus-rank-1 channels, which need no
    measurement at all, and those the gate cannot judge are classified apart.
    """

    reports: tuple[PartyGateReport, ...]
    lambda_hat: float
    verdict: str
    candidates: tuple[int, ...] | None = None
    local: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "reports": [r.to_dict() for r in self.reports],
            "lambda_hat": self.lambda_hat,
            "verdict": self.verdict,
        }
        if self.candidates is not None:
            out["candidates"] = list(self.candidates)
        if self.local is not None:
            out["local"] = self.local
        return out


def pair_products(channel: KrausChannel) -> np.ndarray:
    """All N^2 products K_i^dag K_j on the input space, shape (N^2, D, D).

    Ordered row-major in (i, j).  The adjoint of product (i, j) is product
    (j, i) exactly.
    """
    return stacked_pair_products(channel.kraus[None])[0]


def stacked_pair_products(kraus: np.ndarray) -> np.ndarray:
    """``pair_products`` of a (B, N, d_out, D) Kraus stack: ``pair_product_columns`` in input order."""
    n_stack, n, _, d = kraus.shape
    return pair_product_columns(kraus).swapaxes(1, 2).reshape(n_stack, n * n, d, d)


def pair_product_columns(kraus: np.ndarray) -> np.ndarray:
    """The pair products of a (B, N, d_out, D) Kraus stack, shape (B, N, N, D, D), [b, j, i] = K_i^dag K_j.

    Column j of A^dag A, A = [K_1 | ... | K_N], is A^dag K_j: one GEMM per K_j, with the bits
    of one per pair.  Each product is averaged in place with its swapped partner's adjoint, so
    the adjoint of (i, j) is (j, i) and each (i, i) is Hermitian, bit for bit.
    """
    n_stack, n, d_out, d = kraus.shape
    rows = np.conjugate(kraus.swapaxes(-1, -2), order="C").reshape(n_stack, 1, n * d, d_out)
    products = np.matmul(rows, kraus).reshape(n_stack, n, n, d, d)
    if products.nbytes > STACK_BYTES // 2:  # past a chunk's budget, half-size temporaries fault fewer pages
        products.real += products.real.transpose(0, 2, 1, 4, 3)
        products.imag -= products.imag.transpose(0, 2, 1, 4, 3)
    else:
        products += products.transpose(0, 2, 1, 4, 3).conj()
    products *= 0.5
    return products


def formed_pair_products(kraus: np.ndarray, pairs) -> np.ndarray:
    """The pair products ``packed_stacks`` forms of a (B, N, d_out, D) Kraus stack: ``pair_product_columns``
    if ``pairs`` is None, else one GEMM per pair of the row-major index arrays ``pairs`` (closed under
    swapping), shape (B, P, D, D), averaged in place with its partner's adjoint: the same bits."""
    if pairs is None:
        return pair_product_columns(kraus)
    i, j = pairs
    products = np.matmul(np.take(kraus.conj(), i, axis=1).swapaxes(-1, -2), np.take(kraus, j, axis=1))
    partner = np.searchsorted(i * kraus.shape[1] + j, j * kraus.shape[1] + i)
    products += products[:, partner].swapaxes(-1, -2).conj()
    products *= 0.5
    return products


def row_sharing_pairs(kraus: np.ndarray):
    """Row-major index arrays (i, j) of the pairs whose K_i and K_j are nonzero in a common output
    row of some channel of a (B, N, d_out, D) Kraus stack; None if all are, or at D = 1, where one
    pair's GEMM would be a dot, whose bits differ from the block columns'."""
    n_stack, n, d_out, d = kraus.shape
    # nonzero rows: a sum of |entries|, unlike one of their squares, never rounds a nonzero row to 0
    rows = (np.abs(kraus).reshape(-1, d) @ np.ones(d) > 0).reshape(n_stack, n, d_out)
    support = rows.swapaxes(0, 1).reshape(n, -1).astype(float)
    overlap = support @ support.T > 0
    return None if overlap.all() or d == 1 else np.nonzero(overlap)


def product_chunk(n_products: int, dim: int) -> int:
    """Channels per pair-product chunk of ``packed_stacks``: as many as fit STACK_BYTES / 2, at least 1."""
    return max(1, STACK_BYTES // 2 // (np.dtype(complex).itemsize * n_products * dim * dim))


def packed_stacks(kraus: np.ndarray):
    """Cut a (B, N, d_out, D) Kraus stack into the stacks gated together; yields (start, packed).

    Only the ``row_sharing_pairs`` are formed (every other K_i^dag K_j is exactly zero, which the zero
    filter drops), by ``formed_pair_products`` in chunks of ``product_chunk`` channels, zero-filtered
    (``nonzero_vectors``) once and gathered into input order by one boolean index.
    ``packed``, shape (b, W, D, D), holds each channel's surviving products in input order,
    zero-padded to the widest channel, within STACK_BYTES unless b is 1; a stack may span
    chunks, and a stack of one channel is a view of its chunk's gather.
    """
    n_stack, n, _, d = kraus.shape
    row_bytes = kraus.itemsize * d * d
    pairs = row_sharing_pairs(kraus)
    step = product_chunk(n * n if pairs is None else len(pairs[0]), d)
    run, width = [], 0
    for lo in range(0, n_stack, step):
        products = formed_pair_products(kraus[lo : lo + step], pairs)
        keep = nonzero_vectors(products.reshape(len(products), -1, d * d), DEFAULT_INDEPENDENCE_TOL)[1]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        if pairs is None:  # block columns: gather from their input-order view
            products, keep = products.swapaxes(1, 2), keep.reshape(-1, n, n).swapaxes(1, 2)
        kept = products[keep]
        del products  # free the chunk before a stack is gated
        for b, (first, last) in enumerate(zip([0, *ends], ends), lo):
            if run and (len(run) + 1) * max(width, last - first) * row_bytes > STACK_BYTES:
                yield b - len(run), _padded(run, width)
                width = 0
            run.append(kept[first:last])
            width = max(width, last - first)
    if run:
        del kept  # the run's rows keep what the last stack needs
        yield n_stack - len(run), _padded(run, width)


def _padded(run: list[np.ndarray], width: int) -> np.ndarray:
    """The arrays of ``run``, zero-padded to ``width`` and stacked (a lone one uncopied); empties ``run``."""
    if len(run) == 1:
        return run.pop()[None]
    packed = np.zeros((len(run), width, *run[0].shape[1:]), dtype=complex)
    for b, kept in enumerate(run):
        packed[b, : len(kept)] = kept
    run.clear()
    return packed


def _identity_coefficients(basis: np.ndarray, groups, names) -> list[np.ndarray]:
    """Unit-norm c with sum_a c_a P_a = I for each subset-size group (members, r).

    With the selected products P = r^T basis, c solves r c = h for the
    identity's coordinates h = conj(basis) vec(I), where the padded rows of
    the stack's ``basis`` give h = 0.  Completeness puts the identity in their
    span.  All residuals off the span come before the one batched solve per
    group: the first channel in stack order (``names``) whose residual is
    above IDENTITY_RESIDUAL_TOL (always so for an empty S) raises
    ``CompletenessError``; it is broken, or the subset tolerance dropped too much.
    """
    target = np.eye(math.isqrt(basis.shape[-1]), dtype=complex).reshape(-1)
    h = np.conj(basis @ target)  # target is real
    residuals = np.linalg.norm((h[:, None] @ basis)[:, 0] - target, axis=-1)
    bad = np.flatnonzero(residuals > IDENTITY_RESIDUAL_TOL)
    if bad.size:
        raise CompletenessError(
            f"channel '{names[bad[0]]}': identity not in the span of selected pair products "
            f"(residual {residuals[bad[0]]:.3e}); completeness or the subset tolerance is broken"
        )
    coeffs = [np.linalg.solve(r, h[members, : r.shape[-1], None])[..., 0] for members, r in groups]
    return [c / np.linalg.norm(c, axis=-1, keepdims=True) for c in coeffs]


def _selected_grams(products: np.ndarray, names, stacked: bool = False):
    """The party-independent half of the gate for one stack of ``packed_stacks``, grouped by |S|.

    Returns one (members, selected, gram) per subset size |S|: the group's
    indices into the stack, its selected products P_a, shape (G, |S|, D, D),
    and its Grams <P_a, P_b> = r^dag r plus c c^dag, shape (G, |S|, |S|).
    The groups index one padded scan record (``select_independent_subsets``):
    the stacked scan's if ``stacked``, else the one-vector scan's, faster for
    a lone channel.  ``names`` name the channels.
    """
    flat = products.reshape(*products.shape[:2], -1)
    if stacked:
        taken, basis, r = select_independent_subsets(flat, DEFAULT_INDEPENDENCE_TOL)
    else:  # a one-channel call
        subset = select_independent_subset(flat[0], DEFAULT_INDEPENDENCE_TOL)
        taken = np.isin(np.arange(flat.shape[1]), subset.indices)[None]
        basis, r = subset.basis[None], subset.r[None]
        del subset  # its views would keep the scan's whole buffers alive
    sizes = taken.sum(axis=1)
    groups = [(np.flatnonzero(sizes == k), r[sizes == k, :k, :k]) for k in dict.fromkeys(sizes.tolist())]
    coeffs = _identity_coefficients(basis, groups, names)
    del basis, r  # free the scan's buffers before the selected products are gathered
    out = []
    for (members, factor), c in zip(groups, coeffs):
        selected = products[taken & (sizes == factor.shape[-1])[:, None]]
        gram = factor.conj().swapaxes(-1, -2) @ factor + c[..., :, None] * c.conj()[..., None, :]
        out.append((members.tolist(), selected.reshape(len(members), -1, *products.shape[2:]), gram))
    return out


def party_gram(selected: np.ndarray, gram: np.ndarray, dims, party: int) -> np.ndarray:
    """Q_aug^dag Q_aug for one party: ``gram`` minus the party's rest-identity part.

    ``selected`` (|S|, D, D) and ``gram`` (|S|, |S|) may carry leading stack
    axes; each slice gets its own Gram from one batched partial trace.
    """
    before = math.prod(dims[:party])
    after = math.prod(dims[party + 1 :])
    d_party = dims[party]
    lead = selected.shape[:-2]
    tens = selected.reshape(*lead, before, d_party, after, before, d_party, after)
    reduced = np.einsum("...xayxby->...ab", tens).reshape(*lead, -1)
    return gram - reduced.conj() @ reduced.swapaxes(-1, -2) / (before * after)


def gate_channel(channel: KrausChannel, rel_tol: float = DEFAULT_NULLSPACE_RTOL) -> GateVerdict:
    """Run the gate for every party and classify the channel.

    A Kraus-rank-1 channel needs no measurement, so it is never certified
    NOT_LOCC; it is reported DEGENERATE_KRAUS_RANK_ONE with ``local`` true
    exactly when its lone (square) Kraus operator is a tensor product across
    every single-party cut.  Pair products that span only the identity make
    Q_aug the unit row c^dag, ratio 1 for any channel: DEGENERATE_IDENTITY_SPAN.

    Raises ``DimensionError`` for fewer than 2 parties, ``CompletenessError`` for
    a completeness residual above COMPLETENESS_TOL or the identity off the span.
    """
    return gate_channels([channel], rel_tol)[0]


def gate_channels(channels, rel_tol: float = DEFAULT_NULLSPACE_RTOL) -> list[GateVerdict]:
    """``gate_channel`` for each of a list of channels of one shape, gated as one Kraus stack.

    Every channel is checked before any gating (``_check_stack``: at least 2
    parties, a valid ``rel_tol``, completeness); the first whose input dims or
    Kraus array shape differ from the first's raises ``DimensionError`` after
    the channels before it are checked.
    """
    channels = list(channels)
    if not channels:
        return []
    shape = (channels[0].input_dims, channels[0].kraus.shape)
    faults = (i for i, c in enumerate(channels) if (c.input_dims, c.kraus.shape) != shape)
    end = next(faults, len(channels))
    kraus, names = np.stack([c.kraus for c in channels[:end]]), [c.name for c in channels]
    if end == len(channels):  # no fault; a lone channel takes the one-vector scan
        return _gate_stack(kraus, shape[0], names, rel_tol, stacked=end > 1)
    _check_stack(kraus, shape[0], names, rel_tol)
    parties = channels[end].n_parties
    raise DimensionError(
        f"the gate needs at least 2 parties, got {parties}" if parties < 2
        else "gate_channels needs channels of one shape (input dims and Kraus array)"
    )


def _check_stack(kraus: np.ndarray, input_dims, names, rel_tol: float) -> None:
    """Raise for the first fault of a Kraus stack: fewer than 2 parties, a bad
    ``rel_tol``, then the first channel with a non-finite entry and the first
    whose completeness residual is not within COMPLETENESS_TOL."""
    if len(input_dims) < 2:
        raise DimensionError(f"the gate needs at least 2 parties, got {len(input_dims)}")
    if not valid_rel_tol(rel_tol):
        raise ValueError(f"rel_tol must be a finite number in (0, 1), got {rel_tol!r}")
    finite = np.isfinite(kraus).all(axis=(-2, -1))
    if not finite.all():
        b, k = np.argwhere(~finite)[0]
        raise ValueError(f"channel '{names[b]}': Kraus operator {k} has non-finite entries")
    residuals = completeness_residuals(kraus)
    bad = np.flatnonzero(~(residuals <= COMPLETENESS_TOL))
    if bad.size:
        raise CompletenessError(
            f"channel '{names[bad[0]]}' has completeness residual {residuals[bad[0]]:.3e}, "
            f"not within {COMPLETENESS_TOL:g}"
        )


def _gate_stack(
    kraus: np.ndarray, input_dims, names, rel_tol: float, *, stacked: bool = True
) -> list[GateVerdict]:
    """The gate on a (B, N, d_out, D) Kraus stack of channels on ``input_dims``, named ``names``.

    After ``_check_stack``, per stack of ``packed_stacks`` one subset scan
    (stacked unless ``stacked`` is false, so reports do not depend on the
    stack cuts, bit for bit), per |S| one identity solve and, per party, one
    partial trace and eigensolve; one Kraus-rank eigensolve for the whole stack.
    """
    _check_stack(kraus, input_dims, names, rel_tol)
    reports: list[list[PartyGateReport]] = [[] for _ in kraus]
    for start, products in packed_stacks(kraus):
        grams = _selected_grams(products, names[start : start + len(products)], stacked)
        del products  # the selected products are copies: free the stack before the party work
        for members, selected, gram in grams:
            for party, d_party in enumerate(input_dims):
                d_rest = math.prod(input_dims) // d_party
                q_rows = d_party * d_party * (d_rest * d_rest - 1) + 1
                stats = nullspace_dimension(party_gram(selected, gram, input_dims, party), rel_tol)
                for b, nullity, eig_min, eig_max in zip(members, *stats):
                    reports[start + b].append(PartyGateReport(
                        party=party,
                        pair_count=selected.shape[1],
                        q_rows=q_rows,
                        eig_min=eig_min,
                        eig_max=eig_max,
                        ratio=max(eig_min / eig_max, 0.0) if eig_max > 0.0 else 0.0,
                        nullspace_dim=nullity,
                        can_measure_first=nullity >= 1,
                    ))
    ranks = kraus_ranks(kraus)
    return [_verdict(k, input_dims, tuple(rep), rank) for k, rep, rank in zip(kraus, reports, ranks)]


def _verdict(kraus: np.ndarray, input_dims, reports, rank: int) -> GateVerdict:
    lambda_hat = min(r.ratio for r in reports)
    if rank == 1:
        local = False
        if kraus.shape[1] == kraus.shape[2]:  # square
            lone = lone_kraus_operator(KrausChannel("", input_dims, kraus.shape[1], kraus))
            local = all(operator_schmidt_rank(lone, input_dims, p) == 1 for p in range(len(input_dims)))
        return GateVerdict(reports, lambda_hat, VERDICT_DEGENERATE_KRAUS_RANK_ONE, local=local)
    if reports[0].pair_count == 1:
        return GateVerdict(reports, lambda_hat, VERDICT_DEGENERATE_IDENTITY_SPAN)
    if candidates := tuple(r.party for r in reports if r.can_measure_first):
        return GateVerdict(reports, lambda_hat, VERDICT_FIRST_MOVE_CANDIDATES, candidates=candidates)
    return GateVerdict(reports, lambda_hat, VERDICT_NOT_LOCC)
