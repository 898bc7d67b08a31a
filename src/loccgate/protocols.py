"""Finite-round LOCC protocols as trees of local measurement operators.

Each node names the acting party and lists one operator per outcome; a branch
with a ``None`` child is a leaf.  Operators may be rectangular, letting a
party move into a larger flag space mid-protocol.  Compilation turns every
leaf into a global Kraus operator (the branch-ordered product of the local
operators, each embedded with identities on the idle parties), yielding a
channel that can be compared against a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import CHOI_DISTANCE_TOL, VALIDATION_TOL, KrausChannel, channels_equal
from .zoo import AMPLITUDE_NORM_TOL, QUARTER_PI, _ket, _proj

# Frobenius norm below which a compiled leaf operator is an unreachable branch.
ZERO_LEAF_TOL = 1e-12


@dataclass
class ProtocolNode:
    """One local measurement: acting party plus (operator, child) branches."""

    party: int
    branches: list[tuple[np.ndarray, "ProtocolNode | None"]]


@dataclass
class ProtocolTree:
    """Rooted measurement tree over ``parties`` subsystems of ``initial_dims``.

    ``output_isometry``, when present, maps the compiled channel's output
    space onto a target channel's output space; built-in protocols supply it
    whenever their raw output space is a relabeling of the target's.
    """

    parties: int
    initial_dims: tuple[int, ...]
    root: ProtocolNode
    output_isometry: np.ndarray | None = field(default=None)


def _node_ops(node: ProtocolNode, local_dim: int) -> list[np.ndarray]:
    if not node.branches:
        raise ValueError("protocol node has no branches")
    ops = [np.asarray(op, dtype=complex) for op, _ in node.branches]
    for op in ops:
        if op.ndim != 2 or op.shape[1] != local_dim:
            raise ValueError(
                f"operator of shape {op.shape} inconsistent with party "
                f"{node.party} local dimension {local_dim}"
            )
    return ops


def validate_protocol(tree: ProtocolTree) -> list[float]:
    """Per-node completeness residuals, preorder.

    Each node's operators must resolve the identity on the acting party's
    current local dimension; structural inconsistencies raise instead of
    being reported as residuals.
    """
    residuals: list[float] = []

    def walk(node: ProtocolNode, dims: list[int]) -> None:
        if not 0 <= node.party < tree.parties:
            raise ValueError(f"party index {node.party} out of range")
        local_dim = dims[node.party]
        ops = _node_ops(node, local_dim)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves inf or nan
            acc = sum(op.conj().T @ op for op in ops)
            residuals.append(float(np.max(np.abs(acc - np.eye(local_dim)))))
        for op, child in node.branches:
            if child is not None:
                new_dims = list(dims)
                new_dims[node.party] = np.asarray(op).shape[0]
                walk(child, new_dims)

    walk(tree.root, list(tree.initial_dims))
    return residuals


def protocol_to_channel(tree: ProtocolTree) -> KrausChannel:
    """Compile the tree into a channel named "protocol", one Kraus operator per live leaf.

    All leaves must end on the same per-party output dimensions.  Leaves whose
    accumulated operator has Frobenius norm below ``ZERO_LEAF_TOL`` are
    unreachable (zero-probability branches kept only for node completeness)
    and are dropped from the Kraus list.
    """
    residuals = np.array(validate_protocol(tree))
    if not (residuals <= VALIDATION_TOL).all():  # a nan residual fails too
        raise ValueError(
            f"protocol nodes are not complete measurements (max residual {residuals.max():.3e})"
        )
    total_in = math.prod(tree.initial_dims)
    leaves: list[tuple[tuple[int, ...], np.ndarray]] = []

    def walk(node: ProtocolNode, dims: list[int], acc: np.ndarray) -> None:
        for op, child in node.branches:
            op = np.asarray(op, dtype=complex)
            before = math.prod(dims[: node.party])
            after = math.prod(dims[node.party + 1 :])
            embedded = np.kron(np.eye(before), np.kron(op, np.eye(after)))
            new_acc = embedded @ acc
            new_dims = list(dims)
            new_dims[node.party] = op.shape[0]
            if child is None:
                leaves.append((tuple(new_dims), new_acc))
            else:
                walk(child, new_dims, new_acc)

    walk(tree.root, list(tree.initial_dims), np.eye(total_in, dtype=complex))
    out_dims = {d for d, _ in leaves}
    if len(out_dims) != 1:
        raise ValueError(f"inconsistent leaf output dimensions: {sorted(out_dims)}")
    kraus = [acc for _, acc in leaves if float(np.linalg.norm(acc)) > ZERO_LEAF_TOL]
    if not kraus:
        raise ValueError("every leaf compiled to a zero operator")
    return KrausChannel("protocol", tree.initial_dims, math.prod(out_dims.pop()), kraus)


def communication_rounds(tree: ProtocolTree) -> int:
    """Measurement layers along the deepest branch, minus the final one."""

    def depth(node: ProtocolNode) -> int:
        best = 1
        for _, child in node.branches:
            if child is not None:
                best = max(best, 1 + depth(child))
        return best

    return depth(tree.root) - 1


def verify_protocol(
    tree: ProtocolTree, target: KrausChannel, tol: float = CHOI_DISTANCE_TOL
) -> tuple[bool, float]:
    """Compile the tree and compare Choi matrices against the target.

    The tree's ``output_isometry``, if any, is applied to every compiled Kraus
    operator first; it must be isometric on the protocol's reachable output
    subspace for the comparison to be fair.
    """
    compiled = protocol_to_channel(tree)
    if tree.output_isometry is not None:
        iso = np.asarray(tree.output_isometry, dtype=complex)
        if iso.ndim != 2 or iso.shape[1] != compiled.output_dim:
            raise ValueError(
                f"dimension mismatch after isometry: isometry acts on {iso.shape[1] if iso.ndim == 2 else '?'}, "
                f"protocol outputs {compiled.output_dim}"
            )
        compiled = KrausChannel(compiled.name, compiled.input_dims, len(iso), iso @ compiled.kraus)
    return channels_equal(compiled, target, tol)


def domino_three_round_protocol(theta2: float, theta3: float, theta4: float) -> ProtocolTree:
    """Three-round protocol implementing the domino channel with an unrotated first pair.

    Implements the two-qutrit rotated-domino projector channel at angles
    (0, theta2, theta3, theta4) by alternating local projective measurements:
    Bob splits {0} from {1,2}, then Alice and Bob refine.  Zero-probability
    branches are kept so every node is a complete measurement; their leaves
    compile to exactly zero and are dropped.
    """
    for label, t in (("theta2", theta2), ("theta3", theta3), ("theta4", theta4)):
        if not 0.0 <= t <= QUARTER_PI:
            raise ValueError(f"angle out of range: {label} = {t} not in [0, pi/4]")
    alice, bob = 0, 1
    e0, e1, e2 = (_ket(i, 3) for i in range(3))

    def plus(a, b, t):
        return math.cos(t) * a + math.sin(t) * b

    def minus(a, b, t):
        return math.sin(t) * a - math.cos(t) * b

    # Bob heard "0 or 1" from Alice, resolves 1 vs 2, then Alice finishes.
    alice_after_bob1 = ProtocolNode(alice, [(_proj(e0), None), (_proj(e1), None), (_proj(e2), None)])
    alice_after_bob2 = ProtocolNode(
        alice,
        [
            (_proj(plus(e0, e1, theta4)), None),
            (_proj(minus(e0, e1, theta4)), None),
            (_proj(e2), None),
        ],
    )
    bob_refines = ProtocolNode(
        bob,
        [
            (_proj(e1), alice_after_bob1),
            (_proj(e2), alice_after_bob2),
            (_proj(e0), None),
        ],
    )
    bob_resolves_pair2 = ProtocolNode(
        bob,
        [
            (_proj(plus(e1, e2, theta2)), None),
            (_proj(minus(e1, e2, theta2)), None),
            (_proj(e0), None),
        ],
    )
    alice_splits = ProtocolNode(
        alice,
        [
            (_proj(e0) + _proj(e1), bob_refines),
            (_proj(e2), bob_resolves_pair2),
        ],
    )
    alice_after_bob0 = ProtocolNode(
        alice,
        [
            (_proj(e0), None),
            (_proj(plus(e1, e2, theta3)), None),
            (_proj(minus(e1, e2, theta3)), None),
        ],
    )
    root = ProtocolNode(
        bob,
        [
            (_proj(e0), alice_after_bob0),
            (_proj(e1) + _proj(e2), alice_splits),
        ],
    )
    return ProtocolTree(parties=2, initial_dims=(3, 3), root=root)


def usd_oneway_protocol(alpha1: complex, beta1: complex) -> ProtocolTree:
    """One-way protocol for the discrimination channel's conclusive limit.

    Alice measures her qubit in the computational basis; Bob then maps his
    qubit into the five-dimensional flag space, either identifying states 3/4
    outright or resolving 1/2/inconclusive with amplitudes matched to
    (alpha1, beta1).  The attached output isometry merges Alice's leftover
    qubit with Bob's flag into the target's single flag register.
    """
    a1, b1 = complex(alpha1), complex(beta1)
    if abs(abs(a1) ** 2 + abs(b1) ** 2 - 1.0) > AMPLITUDE_NORM_TOL:
        raise ValueError("amplitudes must be normalized")
    if not 0.0 < abs(a1) < abs(b1):
        raise ValueError("requires 0 < |alpha1| < |beta1|")
    c1 = 1.0 / (np.sqrt(2) * abs(b1))
    c3_sq = 1.0 - abs(a1 / b1) ** 2
    if c3_sq <= 0.0:
        raise ValueError("no valid proportionality constants for Bob's measurement")
    c3 = np.sqrt(c3_sq)
    e0, e1 = _ket(0, 2), _ket(1, 2)

    def flag(n):
        return _ket(n, 5)

    bob_conclusive = ProtocolNode(
        1,
        [
            (np.outer(flag(2), e0.conj()), None),
            (np.outer(flag(3), e1.conj()), None),
        ],
    )
    bob_resolves = ProtocolNode(
        1,
        [
            (c1 * np.outer(flag(0), np.conj(a1 * e0 + b1 * e1)), None),
            (c1 * np.outer(flag(1), np.conj(a1 * e0 - b1 * e1)), None),
            (c3 * np.outer(flag(4), e0.conj()), None),
        ],
    )
    root = ProtocolNode(0, [(_proj(e0), bob_resolves), (_proj(e1), bob_conclusive)])

    # Reachable outputs are (alice=0, flags {1,2,5}) and (alice=1, flags {3,4});
    # merge them onto the five target flags.
    iso = np.zeros((5, 10), dtype=complex)
    for f in (0, 1, 4):
        iso[f, 0 * 5 + f] = 1.0
    for f in (2, 3):
        iso[f, 1 * 5 + f] = 1.0
    return ProtocolTree(parties=2, initial_dims=(2, 2), root=root, output_isometry=iso)
