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

Only the spectrum of the augmented Q's Gram is ever needed, and it has a
closed form.  The constraint rows span every operator except those of the form
X tensor I_rest, so

    Q^dag Q = <P_a, P_b> - <Tr_rest P_a, Tr_rest P_b> / d_rest

with <X, Y> = tr(X^dag Y).  The identity's coefficients x_I over the P_a are
always a null vector of Q^dag Q, and with c = x_I / |x_I| the spectrum of
Q_aug^dag Q_aug = Q^dag Q + c c^dag is Q^dag Q's with that zero lifted to 1, so
the gate lifts the smallest eigenvalue and never solves for c.  Moving a party's
factor to the front only permutes matrix entries, so the subset and the first
term are computed once per channel; each party adds its partial-trace term.
The scan only selects: the first term is formed from the selected products
themselves, <P_a, P_b> = (conj(P) P^T)_ab, so every number the gate reports
comes from them, and the scan's orthonormal basis serves only the identity
check.  Channels of one shape are gated as stacks: their pair products are
formed and zero-filtered in chunks, and a stack, which may span chunks, packs
each channel's surviving products, zero-padded to its widest channel.  One
scan gives the stack one padded record of subsets and bases, one identity
stage checks that every x_I exists, and channels with equal |S| share one
gather, one Gram GEMM, one partial trace per party and, per party, one
eigensolve.
The tail is columnar (``StackColumns``): the eigensolves fill (P, B) arrays, and
one vectorized pass gives every row's ratios, lambda_hat and verdict.  Sweeps
write their CSV rows from those columns and build no verdict object;
``gate_channels`` builds its verdicts from them, and ``gate_channel`` is a stack
of one, with a one-vector scan.

Memory follows one law: a stack peaks at the largest of its formation (a chunk's
products, their averaging temporary and their survivors' gather), its scan,
(M + min(M, L) + 3) L complex entries: M packed products of length L = D^2, the
basis and a step's three vectors, and its tail, 2 k L + k^2 per channel of
|S| = k: the gathered products, their conjugate and their Gram.  Each later
stage frees what no later one reads: the basis after the identity's
coordinates, the packed stack after the gather, the gather after the Grams, and
a stack's Grams before the next stack is packed.  A sweep gates one run at a
time, so it peaks at its largest run's gate peak plus that run's rows.

The eigenvalue ratio min/max of that Gram per party ("ratio", clamped at 0 so
rounding never makes it negative), minimized over parties ("lambda_hat"),
doubles as a closeness-to-singular diagnostic.

The nullspace threshold ``rel_tol`` is the gate's only knob, and it must be a
finite number in (0, 1): with a NaN or nonpositive one no eigenvalue counts
as zero (a fake NOT_LOCC), with one of 1 or more nearly all do.  An eigenvalue
below the rounding floor (``NULLSPACE_FLOOR_FACTOR``) counts as zero too, so the
rounding that a party Gram's cancellation leaves does not certify NOT_LOCC.  The
floor, the subset tolerance, the identity residual and the Kraus-rank threshold
are constants.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import (
    CompletenessError,
    DimensionError,
    KrausChannel,
    _lone_operator_is_local,
    completeness_residuals,
    kraus_ranks,
)
from .linalg import (
    DEFAULT_INDEPENDENCE_TOL,
    _nullity,
    nonzero_vectors,
    select_independent_subset,
    select_independent_subsets,
    valid_rel_tol,
)

# Eigenvalues of Q_aug^dag Q_aug below DEFAULT_NULLSPACE_RTOL times the largest count
# as zero.  Sits between solver noise (~1e-16) and the smallest genuinely
# nonzero ratios seen in the example families (~1e-9), with margin.
DEFAULT_NULLSPACE_RTOL = 1e-13

# A party eigenvalue also counts as zero below the rounding floor
# NULLSPACE_FLOOR_FACTOR * D * u * max_a gram_aa, u = 2^-53, where gram is the channel's
# party-independent Gram <P_a, P_b> = (conj(P) P^T)_ab of the selected products on input
# dimension D.  A party Gram cancels it against its partial-trace term, both of size
# gram_aa = ||P_a||^2 (~d_rest for a product local to the party), while eig_max >= 1, the
# identity's lifted eigenvalue, so a null eigenvalue keeps the inner products' rounding.  Each
# entry is one inner product of length L = D^2, within gamma_{L+2} |P_a| |P_b| of the exact one
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5), and about
# sqrt(L) u ||P_a||^2 in practice (Higham & Mary's probabilistic bound, SIAM J. Sci. Comput. 41,
# 2019).  Measured null eigenvalues of A x I reached 231 u max_a gram_aa at D = 1024, 18 times
# under the floor.  The floor only raises the threshold, so it can turn a NOT_LOCC into a
# candidate, never the reverse.
NULLSPACE_FLOOR_FACTOR = 4

# Hard ceiling on the completeness residual before gating is meaningless, and the residual above
# which the CLI warns.  One in between is gated only while the identity stays within
# IDENTITY_RESIDUAL_TOL of the selected products' span, else CompletenessError; nan fails both.
COMPLETENESS_TOL = 1e-6
COMPLETENESS_WARN_TOL = 1e-9

# Largest norm of the identity's part outside the span of the selected products.
IDENTITY_RESIDUAL_TOL = 1e-9

# Largest packed pair-product array gated as one stack, in bytes; products are formed in
# chunks of half as much.  The stacked scan's buffers take up to twice as much again:
# larger stacks cut per-channel call overhead but add peak memory.
STACK_BYTES = 1 << 19


VERDICT_NOT_LOCC = "NOT_LOCC"
VERDICT_FIRST_MOVE_CANDIDATES = "FIRST_MOVE_CANDIDATES"
VERDICT_DEGENERATE_KRAUS_RANK_ONE = "DEGENERATE_KRAUS_RANK_ONE"
VERDICT_DEGENERATE_IDENTITY_SPAN = "DEGENERATE_IDENTITY_SPAN"
# By ``_gate_stack``'s codes, each overriding the last.  An object array: its rows share these four strings.
_VERDICTS = np.array([VERDICT_NOT_LOCC, VERDICT_FIRST_MOVE_CANDIDATES, VERDICT_DEGENERATE_IDENTITY_SPAN,
                      VERDICT_DEGENERATE_KRAUS_RANK_ONE], dtype=object)


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
    ``completeness_residual`` is the one the gate checked; ``to_dict`` leaves it out.
    """

    reports: tuple[PartyGateReport, ...]
    lambda_hat: float
    verdict: str
    candidates: tuple[int, ...] | None = None
    local: bool | None = None
    completeness_residual: float = field(kw_only=True)

    def to_dict(self) -> dict:
        out = {"reports": [r.to_dict() for r in self.reports], "lambda_hat": self.lambda_hat, "verdict": self.verdict}
        if self.candidates is not None:
            out["candidates"] = list(self.candidates)
        if self.local is not None:
            out["local"] = self.local
        return out


# The gate's outcome on a stack of B channels over P parties, one array per field (``.tolist()`` gives
# the reports' Python numbers).  Per channel, shape (B,): |S|, lambda_hat, the Kraus rank, the completeness
# residual and the verdict label; per party and channel, shape (P, B): nullity, eig_min, eig_max and ratio.
StackColumns = namedtuple("StackColumns", "pair_count nullity eig_min eig_max ratio lambda_hat rank residual verdict")


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


def _identity_coefficients(basis: np.ndarray, names) -> None:
    """Check that the identity has coefficients x_I over each slice's selected products: the null
    direction that the gate lifts to 1 exists.

    The identity's coordinates over a padded scan ``basis`` (padded rows give 0) leave a residual
    off the span.  Completeness puts the identity in that span: the first channel in stack order
    (``names``) whose residual is above IDENTITY_RESIDUAL_TOL (always so for an empty S) raises
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


def partial_traces(selected: np.ndarray, dims) -> list[np.ndarray]:
    """Per party p, Tr_rest of each product of ``selected`` (..., D, D), flattened to (..., d_p^2)."""
    lead, total = selected.shape[:-2], math.prod(dims)
    cuts = [(math.prod(dims[:p]), d, total // math.prod(dims[: p + 1])) for p, d in enumerate(dims)]
    return [np.einsum("...xayxby->...ab", selected.reshape(*lead, *cut, *cut)).reshape(*lead, -1) for cut in cuts]


def party_gram(reduced: np.ndarray, gram: np.ndarray, d_rest: int) -> np.ndarray:
    """Q^dag Q for one party: ``gram`` minus the rest-identity part of the products whose
    ``partial_traces`` are ``reduced``; both may carry leading stack axes."""
    out = reduced.conj() @ reduced.swapaxes(-1, -2)
    out /= d_rest  # in place, as is the subtraction: one new Gram-size array, not three
    return np.subtract(gram, out, out=out)


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
    parties, a valid ``rel_tol``, completeness, which a non-finite entry fails);
    the first whose input dims or Kraus array shape differ from the first's
    raises ``DimensionError`` after the channels before it are checked.
    """
    channels = list(channels)
    if not channels:
        return []
    shape = (channels[0].input_dims, channels[0].kraus.shape)
    faults = (i for i, c in enumerate(channels) if (c.input_dims, c.kraus.shape) != shape)
    end = next(faults, len(channels))
    kraus = channels[0].kraus[None] if end == 1 else np.stack([c.kraus for c in channels[:end]])
    names = [c.name for c in channels]
    if end == len(channels):  # no fault; a lone channel takes the one-vector scan
        return _verdicts(_gate_stack(kraus, shape[0], names, rel_tol, stacked=end > 1), kraus, shape[0])
    _check_stack(kraus, shape[0], names, rel_tol)
    parties = channels[end].n_parties
    raise DimensionError(
        f"the gate needs at least 2 parties, got {parties}" if parties < 2
        else "gate_channels needs channels of one shape (input dims and Kraus array)"
    )


def _check_stack(kraus: np.ndarray, input_dims, names, rel_tol: float) -> np.ndarray:
    """Each channel's completeness residual in a Kraus stack; raise for its first fault: fewer
    than 2 parties, a bad ``rel_tol``, then the first channel whose completeness residual is not
    within COMPLETENESS_TOL (a non-finite entry makes it nan, which is not)."""
    if len(input_dims) < 2:
        raise DimensionError(f"the gate needs at least 2 parties, got {len(input_dims)}")
    if not valid_rel_tol(rel_tol):
        raise ValueError(f"rel_tol must be a finite number in (0, 1), got {rel_tol!r}")
    residuals = completeness_residuals(kraus)
    bad = np.flatnonzero(~(residuals <= COMPLETENESS_TOL))
    if bad.size:
        raise CompletenessError(
            f"channel '{names[bad[0]]}' has completeness residual {residuals[bad[0]]:.3e}, "
            f"not within {COMPLETENESS_TOL:g}"
        )
    return residuals


def _gate_stack(
    kraus: np.ndarray, input_dims, names, rel_tol: float, *, stacked: bool = True
) -> StackColumns:
    """The gate on a (B, N, d_out, D) Kraus stack of channels on ``input_dims``, named ``names``.

    After ``_check_stack``, per stack of ``packed_stacks``: one subset scan,
    ``select_independent_subsets`` if ``stacked``, else the faster one-vector scan of a lone channel
    read as a stack of one (so reports do not depend on the stack cuts, bit for bit); per |S| one
    gather of the selected products P, its ``partial_traces`` and its Grams
    <P_a, P_b> = (conj(P) P^T)_ab in one GEMM; per party one eigensolve, its smallest eigenvalue
    (the identity's) lifted to 1.  Stacks are freed as the memory law says, so nothing else may hold one.
    One Kraus-rank eigensolve per STACK_BYTES / 2 of Kraus operators; then every row is classified
    at once, in columns.
    """
    residual = _check_stack(kraus, input_dims, names, rel_tol)
    total = math.prod(input_dims)
    pair_count = np.empty(len(kraus), dtype=int)
    nullity = np.empty((len(input_dims), len(kraus)), dtype=int)
    eig_min, eig_max = np.empty(nullity.shape), np.empty(nullity.shape)
    for start, products in packed_stacks(kraus):
        flat = products.reshape(*products.shape[:2], -1)
        if stacked:
            taken, basis = select_independent_subsets(flat, DEFAULT_INDEPENDENCE_TOL)
        else:  # a one-channel call
            taken, basis = (
                a[None] for a in select_independent_subset(flat[0], DEFAULT_INDEPENDENCE_TOL))
        _identity_coefficients(basis, names[start : start + len(flat)])
        del flat, basis
        sizes = taken.sum(axis=1)
        groups = [(np.flatnonzero(sizes == k), k) for k in dict.fromkeys(sizes.tolist())]
        gathers = [products[taken & (sizes == k)[:, None]].reshape(len(m), k, -1) for m, k in groups]
        del products  # the last reference to the packed stack
        traces = [partial_traces(p.reshape(*p.shape[:2], total, total), input_dims) for p in gathers]
        grams = [p.conj() @ p.swapaxes(-1, -2) for p in gathers]  # <P_a, P_b> = tr(P_a^dag P_b)
        del gathers
        for (members, k), group_traces, gram in zip(groups, traces, grams):
            rows = start + members
            pair_count[rows] = k
            scale = np.diagonal(gram, axis1=-2, axis2=-1).real.max(axis=-1)  # max_a gram_aa, per channel
            floor = NULLSPACE_FLOOR_FACTOR * total * 2.0**-53 * scale
            for party, (d_party, reduced) in enumerate(zip(input_dims, group_traces)):
                evals = np.linalg.eigvalsh(party_gram(reduced, gram, total // d_party))
                evals[..., 0] = 1.0  # the identity's null direction, which Q_aug's row c^dag lifts to 1
                nullity[party, rows], eig_min[party, rows], eig_max[party, rows] = _nullity(evals, rel_tol, floor)
        del traces, grams, group_traces, gram, reduced  # nothing of this stack outlives it
    step = max(1, STACK_BYTES // 2 // kraus[0].nbytes)  # the guard conjugates one slice at a time
    rank = np.concatenate([kraus_ranks(kraus[lo : lo + step]) for lo in range(0, len(kraus), step)])
    ratio = np.divide(eig_min, eig_max, out=np.zeros(nullity.shape), where=eig_max > 0.0)
    ratio[~(ratio > 0.0)] = 0.0  # +0.0, as Python's max(0.0, r); np.maximum may keep -0.0
    code = (nullity >= 1).any(axis=0).astype(int)  # an index into _VERDICTS
    code[pair_count == 1] = 2
    code[rank == 1] = 3
    return StackColumns(pair_count, nullity, eig_min, eig_max, ratio, ratio.min(axis=0), rank, residual, _VERDICTS[code])


def _verdicts(columns: StackColumns, kraus: np.ndarray, input_dims) -> list[GateVerdict]:
    """One ``GateVerdict`` per channel of a stack's ``columns``; ``local`` only for Kraus-rank-one rows."""
    total = math.prod(input_dims)
    q_rows = [d * d * ((total // d) ** 2 - 1) + 1 for d in input_dims]
    parties = zip(*(a.T.tolist() for a in (columns.nullity, columns.eig_min, columns.eig_max, columns.ratio)))
    per_row = (a.tolist() for a in (columns.pair_count, columns.lambda_hat, columns.verdict, columns.residual))
    verdicts = []
    for k, party_columns, count, lambda_hat, verdict, residual in zip(kraus, parties, *per_row):
        reports = tuple(
            PartyGateReport(party, count, q, eig_min, eig_max, ratio, nullity, can_measure_first=nullity >= 1)
            for party, (q, nullity, eig_min, eig_max, ratio) in enumerate(zip(q_rows, *party_columns))
        )
        candidates = local = None
        if verdict == VERDICT_FIRST_MOVE_CANDIDATES:
            candidates = tuple(r.party for r in reports if r.can_measure_first)
        elif verdict == VERDICT_DEGENERATE_KRAUS_RANK_ONE:
            local = _lone_operator_is_local(k, input_dims)
        verdicts.append(GateVerdict(reports, lambda_hat, verdict, candidates, local, completeness_residual=residual))
    return verdicts
