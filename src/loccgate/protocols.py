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

from .channels import (
    CHOI_DISTANCE_TOL,
    VALIDATION_TOL,
    CompletenessError,
    DimensionError,
    KrausChannel,
    SchemaError,
    channels_equal,
    completeness_residuals,
)
from .zoo import AMPLITUDE_NORM_TOL, QUARTER_PI, _ket, _proj, _rotated_pair

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
            raise DimensionError(
                f"operator of shape {op.shape} inconsistent with party "
                f"{node.party} local dimension {local_dim}"
            )
    return ops


def validate_protocol(tree: ProtocolTree) -> list[float]:
    """Per-node completeness residuals, preorder.

    Each node's operators must resolve the identity on the acting party's
    current local dimension d; with fewer than d rows in total they cannot,
    and the residual is inf with no d x d matrix formed (the channel rule,
    ``completeness_residuals``, applied to the node's stacked rows).  Structural
    inconsistencies raise ``DimensionError`` instead of being reported.
    """
    return _walk_nodes(tree)[0]


def _walk_nodes(tree: ProtocolTree) -> tuple[list[float], set[tuple[int, ...]]]:
    """``validate_protocol``'s residuals and the set of per-party dims the leaves end on."""
    residuals: list[float] = []
    leaf_dims: set[tuple[int, ...]] = set()

    def walk(node: ProtocolNode, dims: list[int]) -> None:
        if not 0 <= node.party < tree.parties:
            raise DimensionError(f"party index {node.party} out of range")
        local_dim = dims[node.party]
        ops = _node_ops(node, local_dim)
        # the stacked rows as one Kraus operator: its K^dag K is sum op^dag op
        residuals.append(float(completeness_residuals(np.concatenate(ops)[None, None])[0]))
        for op, (_, child) in zip(ops, node.branches):
            new_dims = list(dims)
            new_dims[node.party] = op.shape[0]
            if child is None:
                leaf_dims.add(tuple(new_dims))
            else:
                walk(child, new_dims)

    walk(tree.root, list(tree.initial_dims))
    return residuals, leaf_dims


def _output_dims(tree: ProtocolTree) -> tuple[int, ...]:
    """Validate the tree and return the per-party dims every leaf ends on; nothing is compiled.

    Raises ``CompletenessError`` for a node that is not a complete
    measurement and ``DimensionError`` for leaves that end on different dims.
    """
    residuals, leaf_dims = _walk_nodes(tree)
    if not (np.array(residuals) <= VALIDATION_TOL).all():  # a nan residual fails too
        raise CompletenessError(
            f"protocol nodes are not complete measurements (max residual {max(residuals):.3e})"
        )
    if len(leaf_dims) != 1:
        raise DimensionError(f"inconsistent leaf output dimensions: {sorted(leaf_dims)}")
    return leaf_dims.pop()


def protocol_to_channel(tree: ProtocolTree) -> KrausChannel:
    """Compile the tree into a channel named "protocol", one Kraus operator per live leaf.

    The tree is validated, and all leaves must end on the same per-party
    output dimensions, before any operator is compiled.  Leaves whose
    accumulated operator has Frobenius norm below ``ZERO_LEAF_TOL`` are
    unreachable (zero-probability branches kept only for node completeness)
    and are dropped from the Kraus list.
    """
    out_dims = _output_dims(tree)
    leaves: list[np.ndarray] = []

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
                leaves.append(new_acc)
            else:
                walk(child, new_dims, new_acc)

    walk(tree.root, list(tree.initial_dims), np.eye(math.prod(tree.initial_dims), dtype=complex))
    kraus = [acc for acc in leaves if float(np.linalg.norm(acc)) > ZERO_LEAF_TOL]
    if not kraus:
        raise ValueError("every leaf compiled to a zero operator")
    return KrausChannel("protocol", tree.initial_dims, math.prod(out_dims), kraus)


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

    The tree's ``output_isometry`` V, if any, is applied to every compiled
    K_i; it must be isometric on the reachable outputs, with every
    ||(V^dag V - I) K_i||_max within VALIDATION_TOL, or ``SchemaError``.
    Dims are checked before any operator is compiled, each mismatch a
    ``DimensionError``: the tree's input dimension against the target's, before
    validation, then its leaves' output dimension against the isometry's
    width, or against the target's output dimension when there is no isometry.
    """
    if math.prod(tree.initial_dims) != target.dim:
        raise DimensionError(f"protocol input dims {tree.initial_dims}, target input {target.dim}")
    iso = None if tree.output_isometry is None else np.asarray(tree.output_isometry, dtype=complex)
    width = target.output_dim if iso is None else iso.shape[1] if iso.ndim == 2 else None
    total_out = math.prod(_output_dims(tree))
    if total_out != width:
        side = "target outputs" if iso is None else f"isometry of shape {iso.shape} acts on"
        raise DimensionError(f"protocol outputs {total_out}, {side} {width}")
    compiled = protocol_to_channel(tree)
    if iso is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as a nan residual
            residual = float(np.max(np.abs((iso.conj().T @ iso - np.eye(width)) @ compiled.kraus)))
        if not residual <= VALIDATION_TOL:
            raise SchemaError(f"output isometry is not isometric on the protocol's outputs ({residual:.3e})")
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
    p0, p1, p2 = _proj(e0), _proj(e1), _proj(e2)

    def leaves(*ops):
        return [(op, None) for op in ops]

    # Bob heard "0 or 1" from Alice, resolves 1 vs 2, then Alice finishes.
    alice_after_bob1 = ProtocolNode(alice, leaves(p0, p1, p2))
    alice_after_bob2 = ProtocolNode(alice, leaves(*map(_proj, _rotated_pair(e0, e1, theta4)), p2))
    bob_refines = ProtocolNode(bob, [(p1, alice_after_bob1), (p2, alice_after_bob2), (p0, None)])
    bob_resolves_pair2 = ProtocolNode(bob, leaves(*map(_proj, _rotated_pair(e1, e2, theta2)), p0))
    alice_splits = ProtocolNode(alice, [(p0 + p1, bob_refines), (p2, bob_resolves_pair2)])
    alice_after_bob0 = ProtocolNode(alice, leaves(p0, *map(_proj, _rotated_pair(e1, e2, theta3))))
    root = ProtocolNode(bob, [(p0, alice_after_bob0), (p1 + p2, alice_splits)])
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
    flag = np.eye(5, dtype=complex)
    bob_conclusive = ProtocolNode(1, [
        (np.outer(flag[2], e0.conj()), None),
        (np.outer(flag[3], e1.conj()), None),
    ])
    bob_resolves = ProtocolNode(1, [
        (c1 * np.outer(flag[0], np.conj(a1 * e0 + b1 * e1)), None),
        (c1 * np.outer(flag[1], np.conj(a1 * e0 - b1 * e1)), None),
        (c3 * np.outer(flag[4], e0.conj()), None),
    ])
    root = ProtocolNode(0, [(_proj(e0), bob_resolves), (_proj(e1), bob_conclusive)])

    # Reachable outputs are (alice=0, flags {1,2,5}) and (alice=1, flags {3,4});
    # merge them onto the five target flags.
    iso = np.zeros((5, 10), dtype=complex)
    for f in (0, 1, 4):
        iso[f, 0 * 5 + f] = 1.0
    for f in (2, 3):
        iso[f, 1 * 5 + f] = 1.0
    return ProtocolTree(parties=2, initial_dims=(2, 2), root=root, output_isometry=iso)
