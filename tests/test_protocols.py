import copy
from dataclasses import replace

import numpy as np
import pytest

from loccgate import (
    KrausChannel,
    ProtocolNode,
    ProtocolTree,
    RotatedDominoParams,
    UsdParams,
    bell_channel,
    channels_equal,
    choi_matrix,
    domino_three_round_protocol,
    protocol_to_channel,
    rotated_domino_channel,
    usd_channel,
    usd_oneway_protocol,
    verify_protocol,
)
from loccgate.channels import DimensionError, SchemaError
from oracle import check_completeness, communication_rounds, node_residuals, traced_peak

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def dephasing_tree() -> ProtocolTree:
    root = ProtocolNode(0, [(P0, None), (P1, None)])
    return ProtocolTree(parties=2, initial_dims=(2, 2), root=root)


def donothing_tree() -> ProtocolTree:
    root = ProtocolNode(0, [(np.eye(2, dtype=complex), None)])
    return ProtocolTree(parties=2, initial_dims=(2, 2), root=root)


# ---------------------------------------------------------------------------
# validation: protocol_to_channel compiles a tree only if every node is a complete measurement


def test_validate_projective_node():
    assert max(node_residuals(dephasing_tree())) < 1e-12
    assert protocol_to_channel(dephasing_tree()).n_kraus == 2


def test_validate_do_nothing_node():
    assert max(node_residuals(donothing_tree())) < 1e-12
    assert protocol_to_channel(donothing_tree()).n_kraus == 1


def test_validate_rectangular_flag_node():
    # qubit mapped into a 5-dim flag space: <0|0> + <1|1> resolves I_2
    op_a = np.zeros((5, 2), dtype=complex)
    op_a[3, 0] = 1.0
    op_b = np.zeros((5, 2), dtype=complex)
    op_b[4, 1] = 1.0
    tree = ProtocolTree(2, (2, 2), ProtocolNode(1, [(op_a, None), (op_b, None)]))
    assert max(node_residuals(tree)) < 1e-12
    assert protocol_to_channel(tree).output_dim == 10


def test_validate_rejects_shape_inconsistency():
    bad = ProtocolTree(2, (2, 2), ProtocolNode(0, [(np.eye(3), None)]))
    with pytest.raises(DimensionError, match="inconsistent with party 0 local dimension 2"):
        protocol_to_channel(bad)


def test_validate_reports_incomplete_node():
    lossy = ProtocolTree(2, (2, 2), ProtocolNode(0, [(P0, None)]))
    assert max(node_residuals(lossy)) > 0.9
    with pytest.raises(ValueError, match="max residual 1.000e"):
        protocol_to_channel(lossy)


def test_validate_rejects_overflowing_node_behind_a_complete_one():
    # the cross terms of a^2 and -a^2 overflow to inf - inf: a nan residual
    a = 1e200
    child = ProtocolNode(1, [(np.array([[a, a]]), None), (np.array([[a, -a]]), None)])
    tree = ProtocolTree(2, (2, 2), ProtocolNode(0, [(np.eye(2), child)]))
    residuals = node_residuals(tree)
    assert residuals[0] == 0.0 and np.isnan(residuals[1])
    with pytest.raises(ValueError, match="not complete measurements"):
        protocol_to_channel(tree)


def test_validate_fails_a_node_with_too_few_rows_without_a_d_by_d_matrix():
    # the root widens party 0 to 2048 dims; its child's lone 1 x 2048 operator has rank 1
    child = ProtocolNode(0, [(np.full((1, 2048), 2048 ** -0.5), None)])
    widen = np.zeros((2048, 2), dtype=complex)
    widen[:2] = np.eye(2)
    tree = ProtocolTree(2, (2, 2), ProtocolNode(0, [(widen, child)]))
    def compile_it():
        with pytest.raises(ValueError, match="max residual inf"):
            protocol_to_channel(tree)

    peak, _ = traced_peak(compile_it)
    assert peak < 2048 ** 2 * 16 // 8  # an eighth of one complex 2048 x 2048 matrix


# ---------------------------------------------------------------------------
# compilation


def test_compile_do_nothing_is_identity_channel():
    channel = protocol_to_channel(donothing_tree())
    assert channel.n_kraus == 1
    assert np.allclose(channel.kraus[0], np.eye(4), atol=1e-14)


def test_compile_dephasing_tree(dephasing):
    compiled = protocol_to_channel(dephasing_tree())
    ok, dist = channels_equal(compiled, dephasing, 1e-12)
    assert ok, dist


def test_compile_rejects_inconsistent_leaf_dims():
    wide = np.zeros((3, 2), dtype=complex)
    wide[0, 0] = wide[1, 1] = 1.0
    root = ProtocolNode(0, [(P0 @ P0, None), (wide @ P1, None)])
    # both branches complete (P0 + P1 = I) but land in different output spaces
    tree = ProtocolTree(2, (2, 2), root)
    with pytest.raises(ValueError, match="inconsistent leaf output dimensions"):
        protocol_to_channel(tree)


def test_insert_do_nothing_node_choi_invariant():
    base = dephasing_tree()
    padded = copy.deepcopy(base)
    for i, (op, child) in enumerate(padded.root.branches):
        assert child is None
        padded.root.branches[i] = (op, ProtocolNode(1, [(np.eye(2, dtype=complex), None)]))
    a = choi_matrix(protocol_to_channel(base))
    b = choi_matrix(protocol_to_channel(padded))
    assert np.max(np.abs(a - b)) < 1e-12


def test_branch_reorder_choi_invariant():
    tree = domino_three_round_protocol(0.2, 0.4, 0.6)
    reordered = copy.deepcopy(tree)
    reordered.root.branches = list(reversed(reordered.root.branches))
    reordered.root.branches[0][1].branches = list(
        reversed(reordered.root.branches[0][1].branches)
    )
    a = choi_matrix(protocol_to_channel(tree))
    b = choi_matrix(protocol_to_channel(reordered))
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# built-in domino protocol


def test_domino_protocol_validates_and_compiles():
    tree = domino_three_round_protocol(0.3, 0.5, 0.7)
    assert max(node_residuals(tree)) < 1e-12
    channel = protocol_to_channel(tree)
    assert channel.n_kraus == 9  # zero-probability leaves are dropped
    assert check_completeness(channel) < 1e-10


def test_domino_protocol_three_rounds():
    assert communication_rounds(domino_three_round_protocol(0.3, 0.5, 0.7)) == 3
    assert communication_rounds(usd_oneway_protocol(0.4, np.sqrt(1 - 0.16))) == 1
    assert communication_rounds(dephasing_tree()) == 0


def test_domino_protocol_matches_target_channels():
    rng = np.random.default_rng(40)
    for _ in range(10):
        t2, t3, t4 = rng.uniform(0.0, np.pi / 4, size=3)
        tree = domino_three_round_protocol(t2, t3, t4)
        target = rotated_domino_channel(RotatedDominoParams((0.0, t2, t3, t4)))
        ok, dist = verify_protocol(tree, target)
        assert ok, dist
        assert dist < 1e-9


def test_domino_protocol_rejects_bad_angle():
    with pytest.raises(ValueError):
        domino_three_round_protocol(1.0, 0.2, 0.3)


# ---------------------------------------------------------------------------
# built-in one-way discrimination protocol


def test_usd_oneway_validates():
    tree = usd_oneway_protocol(0.4, np.sqrt(1 - 0.16))
    assert max(node_residuals(tree)) < 1e-10
    assert protocol_to_channel(tree).output_dim == 10
    assert tree.output_isometry is not None


def test_usd_oneway_matches_conclusive_limit():
    rng = np.random.default_rng(41)
    for _ in range(5):
        a1 = rng.uniform(0.1, 0.6)
        b1 = np.sqrt(1 - a1 * a1)
        tree = usd_oneway_protocol(a1, b1)
        target = usd_channel(UsdParams(a1, b1, 0.0, 1.0), allow_alpha3_zero=True)
        ok, dist = verify_protocol(tree, target)
        assert ok, dist
        assert dist < 1e-9


def test_verify_needs_an_output_map_isometric_on_the_reachable_outputs():
    # the 5 x 10 usd-oneway map is isometric only on the five reachable flags, exactly
    tree = usd_oneway_protocol(0.4, np.sqrt(1 - 0.16))
    target = usd_channel(UsdParams(0.4, np.sqrt(1 - 0.16), 0.0, 1.0), allow_alpha3_zero=True)
    iso = tree.output_isometry
    compiled = protocol_to_channel(tree).kraus
    assert not np.allclose(iso.conj().T @ iso, np.eye(10))
    assert np.max(np.abs(iso.conj().T @ iso @ compiled - compiled)) == 0.0
    assert verify_protocol(tree, target)[0]
    for scale, shown in ((2.0, r"3\.000e\+00"), (1.0 + 1e-9, r"2\.000e-09"), (1e200, "nan")):
        with pytest.raises(SchemaError, match=f"not isometric on the protocol's outputs \\({shown}\\)$"):
            verify_protocol(replace(tree, output_isometry=scale * iso), target)


def test_usd_oneway_complex_alpha1():
    a1 = 0.3 * np.exp(0.4j)
    b1 = np.sqrt(1 - 0.09)
    tree = usd_oneway_protocol(a1, b1)
    target = usd_channel(UsdParams(a1, b1, 0.0, 1.0), allow_alpha3_zero=True)
    ok, dist = verify_protocol(tree, target)
    assert ok and dist < 1e-9


def test_usd_oneway_rejects_bad_amplitudes():
    with pytest.raises(ValueError):
        usd_oneway_protocol(0.9, np.sqrt(1 - 0.81))  # |alpha1| > |beta1|
    with pytest.raises(ValueError):
        usd_oneway_protocol(0.5, 0.5)  # not normalized


# ---------------------------------------------------------------------------
# verification guards


def test_verify_distinct_channels_not_ok():
    ok, dist = verify_protocol(donothing_tree(), bell_channel())
    assert not ok
    assert dist > 0.1


def test_verify_against_an_overflowing_target_is_a_mismatch():
    target = KrausChannel("huge", (2, 2), 4, [1e200 * np.eye(4)])
    ok, dist = verify_protocol(donothing_tree(), target)
    assert not ok and not np.isfinite(dist)


def test_verify_dimension_mismatch_raises():
    tree = domino_three_round_protocol(0.2, 0.3, 0.4)
    with pytest.raises(ValueError):
        verify_protocol(tree, bell_channel())


def test_verify_checks_dims_before_compiling(no_compiling, isometry_chain):
    identity = KrausChannel("identity", (2, 2, 2), 8, (np.eye(8),))
    with pytest.raises(DimensionError, match="protocol outputs 1000000000, target outputs 8"):
        verify_protocol(isometry_chain, identity)
    with pytest.raises(DimensionError, match="isometry"):
        verify_protocol(replace(isometry_chain, output_isometry=np.eye(8)), identity)
    # an incomplete node behind mismatched input dims: the input check comes first
    lossy = ProtocolTree(2, (3, 1), ProtocolNode(0, [(np.ones((1, 3)), None)]))
    with pytest.raises(DimensionError, match="protocol input dims"):
        verify_protocol(lossy, bell_channel())


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_verify_rejects_non_finite_or_negative_tol(tol):
    target = rotated_domino_channel(RotatedDominoParams((0.0, 0.3, 0.5, 0.7)))
    tree = domino_three_round_protocol(*[np.pi / 4] * 3)
    assert verify_protocol(tree, target)[1] > 0.3
    with pytest.raises(ValueError, match="tolerance"):
        verify_protocol(tree, target, tol)


def test_verify_bad_isometry_shape_raises():
    tree = dephasing_tree()
    with pytest.raises(ValueError, match="isometry"):
        verify_protocol(replace(tree, output_isometry=np.eye(3)), bell_channel())
