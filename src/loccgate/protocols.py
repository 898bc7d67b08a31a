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

# Frobenius norm below which a compiled leaf operator is an unreachable branch.
ZERO_LEAF_TOL = 1e-12


@dataclass
class ProtocolNode:
    """One local measurement: acting party plus (operator, child) branches."""

    party: int
    branches: list[tuple[np.ndarray, "ProtocolNode | None"]]


@dataclass
class ProtocolTree:
    """Rooted measurement tree over the subsystems of ``initial_dims``, one party each.

    ``output_isometry``, when present, maps the compiled channel's output
    space onto a target channel's output space; built-in protocols supply it
    whenever their raw output space is a relabeling of the target's.
    """

    initial_dims: tuple[int, ...]
    root: ProtocolNode
    output_isometry: np.ndarray | None = field(default=None)

    @property
    def parties(self) -> int:
        return len(self.initial_dims)


def _walk_nodes(tree: ProtocolTree) -> int:
    """Validate the tree and return the output dimension its leaves end on; nothing is compiled.

    Each node's operators must resolve the identity on the acting party's
    current local dimension d; with fewer than d rows in total they cannot,
    and the residual is inf with no d x d matrix formed (the channel rule,
    ``completeness_residuals``, applied to the node's stacked rows).  In
    preorder, a party out of range or an operator not d columns wide raises
    ``DimensionError`` and a node with no branches ``ValueError``; after the
    walk, an incomplete node raises ``CompletenessError`` and leaves that end
    on different dims ``DimensionError``.
    """
    residuals: list[float] = []
    leaf_dims: set[tuple[int, ...]] = set()

    def walk(node: ProtocolNode, dims: list[int]) -> None:
        if not 0 <= node.party < tree.parties:
            raise DimensionError(f"party index {node.party} out of range")
        if not node.branches:
            raise ValueError("protocol node has no branches")
        local_dim = dims[node.party]
        ops = [np.asarray(op, dtype=complex) for op, _ in node.branches]
        for op in ops:
            if op.ndim != 2 or op.shape[1] != local_dim:
                raise DimensionError(
                    f"operator of shape {op.shape} inconsistent with party "
                    f"{node.party} local dimension {local_dim}"
                )
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
    if not (np.array(residuals) <= VALIDATION_TOL).all():  # a nan residual fails too
        raise CompletenessError(
            f"protocol nodes are not complete measurements (max residual {max(residuals):.3e})"
        )
    if len(leaf_dims) != 1:
        raise DimensionError(f"inconsistent leaf output dimensions: {sorted(leaf_dims)}")
    return math.prod(leaf_dims.pop())


def protocol_to_channel(tree: ProtocolTree) -> KrausChannel:
    """Compile the tree into a channel named "protocol", one Kraus operator per live leaf.

    The tree is validated, and all leaves must end on the same per-party
    output dimensions, before any operator is compiled.  Leaves whose
    accumulated operator has Frobenius norm below ``ZERO_LEAF_TOL`` are
    unreachable (zero-probability branches kept only for node completeness)
    and are dropped from the Kraus list.
    """
    return _compile(tree, _walk_nodes(tree))


def _compile(tree: ProtocolTree, out_dim: int) -> KrausChannel:
    """``protocol_to_channel`` of a tree that ``_walk_nodes`` has validated, its leaves ending on ``out_dim``."""
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
    return KrausChannel("protocol", tree.initial_dims, out_dim, kraus)


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
    total_out = _walk_nodes(tree)
    if total_out != width:
        side = "target outputs" if iso is None else f"isometry of shape {iso.shape} acts on"
        raise DimensionError(f"protocol outputs {total_out}, {side} {width}")
    compiled = _compile(tree, total_out)
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
    from .zoo import RotatedDominoParams, _ket, _proj, _rotated_pair  # here, so compiling a tree never loads zoo

    RotatedDominoParams((0.0, theta2, theta3, theta4))  # the family's angle rule
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
    return ProtocolTree(initial_dims=(3, 3), root=root)


def usd_oneway_protocol(alpha1: complex, beta1: complex) -> ProtocolTree:
    """One-way protocol for the discrimination channel's conclusive limit.

    Alice measures her qubit in the computational basis; Bob then maps his
    qubit into the five-dimensional flag space, either identifying states 3/4
    outright or resolving 1/2/inconclusive with amplitudes matched to
    (alpha1, beta1).  The attached output isometry merges Alice's leftover
    qubit with Bob's flag into the target's single flag register.
    """
    from .zoo import UsdParams, _ket, _proj, validate_usd_params

    a1, b1 = complex(alpha1), complex(beta1)
    validate_usd_params(UsdParams(a1, b1, 0.0, 1.0), allow_alpha3_zero=True)  # the family's rule at its limit
    c1 = 1.0 / (np.sqrt(2) * abs(b1))
    c3 = np.sqrt(1.0 - abs(a1 / b1) ** 2)  # positive: the rule's 1 - |alpha1 beta3 / beta1|^2 at beta3 = 1
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
    return ProtocolTree(initial_dims=(2, 2), root=root, output_isometry=iso)
