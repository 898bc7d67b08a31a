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
so <P_a, P_b> = (r^dag r)_ab and c comes from one triangular solve with r.

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
    KrausChannel,
    check_completeness,
    kraus_rank,
    lone_kraus_operator,
    operator_schmidt_rank,
)
from .linalg import (
    DEFAULT_INDEPENDENCE_TOL,
    IndependentSubset,
    nullspace_dimension,
    select_independent_subset,
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


def valid_rel_tol(rel_tol) -> bool:
    """A relative threshold must be finite and strictly between 0 and 1."""
    return 0.0 < rel_tol < 1.0  # false for nan and +-inf


class IdentityOutsideSpanError(ValueError):
    """The identity is not a combination of the selected pair products."""


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
    ks = channel.kraus
    return np.einsum("iab,jac->ijbc", ks.conj(), ks).reshape(-1, channel.dim, channel.dim)


def identity_vector(subset: IndependentSubset) -> np.ndarray:
    """Unit-norm coefficients c over S with sum_a c_a P_a = I.

    With the selected products P = r^T basis, c solves r c = h for the
    identity's coordinates h = conj(basis) vec(I).  Completeness puts the
    identity in their span; a residual above IDENTITY_RESIDUAL_TOL (always
    so for an empty S) signals a broken channel or a subset tolerance that
    discarded too much.
    """
    target = np.eye(math.isqrt(subset.basis.shape[1]), dtype=complex).reshape(-1)
    h = np.conj(subset.basis @ target)  # target is real
    residual = float(np.linalg.norm(subset.basis.T @ h - target))
    if residual > IDENTITY_RESIDUAL_TOL:
        raise IdentityOutsideSpanError(
            f"identity not in the span of selected pair products (residual {residual:.3e}); "
            "completeness or the subset tolerance is broken"
        )
    coeffs = np.linalg.solve(subset.r, h)
    return coeffs / np.linalg.norm(coeffs)


def channel_gram(channel: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """The party-independent half of the gate, computed once per channel.

    Returns the selected pair products P_a, shape (|S|, D, D), and their
    Gram <P_a, P_b> = r^dag r plus c c^dag, where c holds the identity
    coefficients.
    """
    products = pair_products(channel)
    subset = select_independent_subset(
        products.reshape(len(products), -1), DEFAULT_INDEPENDENCE_TOL
    )
    c = identity_vector(subset)
    return products[subset.indices], subset.r.conj().T @ subset.r + np.outer(c, c.conj())


def party_gram(selected: np.ndarray, gram: np.ndarray, dims, party: int) -> np.ndarray:
    """Q_aug^dag Q_aug for one party: ``gram`` minus the party's rest-identity part."""
    before = math.prod(dims[:party])
    after = math.prod(dims[party + 1 :])
    d_party = dims[party]
    tens = selected.reshape(len(selected), before, d_party, after, before, d_party, after)
    reduced = np.einsum("kxayxby->kab", tens).reshape(len(selected), -1)
    return gram - reduced.conj() @ reduced.T / (before * after)


def _checked_gram(channel: KrausChannel, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``channel_gram`` once the threshold and the channel's completeness pass."""
    if not valid_rel_tol(rel_tol):
        raise ValueError(f"rel_tol must be a finite number in (0, 1), got {rel_tol!r}")
    residual = check_completeness(channel)
    if not residual <= COMPLETENESS_TOL:
        raise ValueError(
            f"channel '{channel.name}' is not trace-preserving "
            f"(completeness residual {residual:.3e})"
        )
    return channel_gram(channel)


def _party_report(selected, gram, dims, party: int, rel_tol: float) -> PartyGateReport:
    nullity, eig_min, eig_max = nullspace_dimension(
        party_gram(selected, gram, dims, party), rel_tol
    )
    d_party = dims[party]
    d_rest = math.prod(dims) // d_party
    return PartyGateReport(
        party=party,
        pair_count=len(selected),
        q_rows=d_party * d_party * (d_rest * d_rest - 1) + 1,
        eig_min=eig_min,
        eig_max=eig_max,
        ratio=max(eig_min / eig_max, 0.0) if eig_max > 0.0 else 0.0,
        nullspace_dim=nullity,
        can_measure_first=nullity >= 1,
    )


def gate_party(
    channel: KrausChannel, party: int, rel_tol: float = DEFAULT_NULLSPACE_RTOL
) -> PartyGateReport:
    """Augmented-Q diagnostics for one party: can it measure first at all?"""
    if not 0 <= party < channel.n_parties:
        raise ValueError(f"party index {party} out of range for {channel.n_parties} parties")
    selected, gram = _checked_gram(channel, rel_tol)
    return _party_report(selected, gram, channel.input_dims, party, rel_tol)


def gate_channel(channel: KrausChannel, rel_tol: float = DEFAULT_NULLSPACE_RTOL) -> GateVerdict:
    """Run the gate for every party and classify the channel.

    A Kraus-rank-1 channel needs no measurement, so it is never certified
    NOT_LOCC; it is reported DEGENERATE_KRAUS_RANK_ONE with ``local`` true
    exactly when its lone (square) Kraus operator is a tensor product across
    every single-party cut.  Pair products that span only the identity make
    Q_aug the unit row c^dag, ratio 1 for any channel: DEGENERATE_IDENTITY_SPAN.
    """
    if channel.n_parties < 2:
        raise ValueError("channel must have at least 2 parties")
    selected, gram = _checked_gram(channel, rel_tol)
    reports = tuple(
        _party_report(selected, gram, channel.input_dims, p, rel_tol)
        for p in range(channel.n_parties)
    )
    lambda_hat = min(r.ratio for r in reports)
    if kraus_rank(channel) == 1:
        local = False
        if channel.output_dim == channel.dim:
            lone = lone_kraus_operator(channel)
            local = all(
                operator_schmidt_rank(lone, channel.input_dims, p) == 1
                for p in range(channel.n_parties)
            )
        return GateVerdict(
            reports=reports,
            lambda_hat=lambda_hat,
            verdict=VERDICT_DEGENERATE_KRAUS_RANK_ONE,
            local=local,
        )
    if len(selected) == 1:
        return GateVerdict(reports, lambda_hat, VERDICT_DEGENERATE_IDENTITY_SPAN)
    candidates = tuple(r.party for r in reports if r.can_measure_first)
    if candidates:
        return GateVerdict(
            reports=reports,
            lambda_hat=lambda_hat,
            verdict=VERDICT_FIRST_MOVE_CANDIDATES,
            candidates=candidates,
        )
    return GateVerdict(reports=reports, lambda_hat=lambda_hat, verdict=VERDICT_NOT_LOCC)
