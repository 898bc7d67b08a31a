import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccgate import (
    KrausChannel,
    ProtocolTree,
    channels_equal,
    domino_three_round_protocol,
)
from loccgate.serialize import (
    MAX_PROTOCOL_DEPTH,
    DimensionError,
    SchemaError,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    load_protocol,
    matrix_from_json,
    matrix_to_json,
    protocol_from_dict,
    protocol_to_dict,
    save_channel,
    save_protocol,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_rejects_malformed():
    with pytest.raises(SchemaError):
        matrix_from_json([])
    with pytest.raises(SchemaError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])  # ragged
    with pytest.raises(SchemaError):
        matrix_from_json([[[1.0]]])  # not a pair
    with pytest.raises(SchemaError):
        matrix_from_json([[["x", 0.0]]])
    with pytest.raises(SchemaError):
        matrix_from_json([[[float("inf"), 0.0]]])
    with pytest.raises(SchemaError):
        matrix_from_json([[[float("nan"), 0.0]]])


def test_channel_round_trip_bit_compatible(tmp_path, bell):
    path = tmp_path / "bell.json"
    save_channel(bell, path)
    loaded = load_channel(path)
    assert loaded.name == bell.name
    assert loaded.input_dims == bell.input_dims
    assert loaded.output_dim == bell.output_dim
    for a, b in zip(loaded.kraus, bell.kraus):
        assert np.array_equal(a, b)
    # a second serialization is byte-identical
    save_channel(loaded, tmp_path / "bell2.json")
    assert (tmp_path / "bell.json").read_bytes() == (tmp_path / "bell2.json").read_bytes()


def test_channel_from_dict_rejections(bell):
    doc = channel_to_dict(bell)
    for key in ("name", "input_dims", "output_dim", "kraus"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(SchemaError):
            channel_from_dict(broken)
    bad_dims = dict(doc, input_dims=[2, 0])
    with pytest.raises(SchemaError):
        channel_from_dict(bad_dims)
    bad_shape = dict(doc, output_dim=5)
    with pytest.raises(DimensionError):
        channel_from_dict(bad_shape)
    with pytest.raises(SchemaError):
        channel_from_dict("not an object")


def test_load_channel_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_channel(path)
    with pytest.raises(SchemaError):
        load_channel(tmp_path / "missing.json")


def test_channel_json_rejects_nonfinite(tmp_path, bell):
    doc = channel_to_dict(bell)
    doc["kraus"][0][0][0] = [1.0, None]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_channel(path)


def test_protocol_round_trip(tmp_path):
    tree = domino_three_round_protocol(0.2, 0.4, 0.6)
    path = tmp_path / "proto.json"
    save_protocol(tree, path)
    loaded = load_protocol(path)
    assert loaded.parties == tree.parties
    assert loaded.initial_dims == tree.initial_dims
    from loccgate import protocol_to_channel

    ok, dist = channels_equal(protocol_to_channel(loaded), protocol_to_channel(tree), 1e-12)
    assert ok, dist


def test_protocol_round_trip_keeps_isometry(tmp_path):
    from loccgate import usd_oneway_protocol

    tree = usd_oneway_protocol(0.4, np.sqrt(1 - 0.16))
    doc = protocol_to_dict(tree)
    loaded = protocol_from_dict(doc)
    assert loaded.output_isometry is not None
    assert np.array_equal(loaded.output_isometry, tree.output_isometry)


def test_protocol_from_dict_rejections():
    tree = domino_three_round_protocol(0.2, 0.4, 0.6)
    doc = protocol_to_dict(tree)
    with pytest.raises(SchemaError):
        protocol_from_dict({})
    wrong_dims = dict(doc, initial_dims=[3])
    with pytest.raises(DimensionError):
        protocol_from_dict(wrong_dims)
    no_branches = dict(doc, root={"party": 0, "branches": []})
    with pytest.raises(SchemaError):
        protocol_from_dict(no_branches)


def _chain_protocol_doc(depth: int) -> dict:
    """A protocol whose tree is one chain of ``depth`` trivial measurements by party 0."""
    node = None
    for _ in range(depth):
        node = {"party": 0, "branches": [{"op": matrix_to_json(np.eye(2)), "child": node}]}
    return {"parties": 2, "initial_dims": [2, 2], "root": node}


def test_protocol_depth_is_capped(tmp_path):
    from loccgate import protocol_to_channel
    from oracle import communication_rounds, node_residuals

    path = tmp_path / "at-cap.json"
    path.write_text(json.dumps(_chain_protocol_doc(MAX_PROTOCOL_DEPTH)))
    tree = load_protocol(path)
    assert communication_rounds(tree) == MAX_PROTOCOL_DEPTH - 1
    assert node_residuals(tree) == [0.0] * MAX_PROTOCOL_DEPTH
    assert np.array_equal(protocol_to_channel(tree).kraus, np.eye(4)[None])
    with pytest.raises(SchemaError, match=f"deeper than {MAX_PROTOCOL_DEPTH} levels"):
        protocol_from_dict(_chain_protocol_doc(MAX_PROTOCOL_DEPTH + 1))
    # far past the cap it is the same error, not an exhausted interpreter stack
    with pytest.raises(SchemaError, match="deeper than"):
        protocol_from_dict(_chain_protocol_doc(3000))


# ---------------------------------------------------------------------------
# fuzz: a parser either returns its object or raises SchemaError

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])  # json.loads reads these as exact ints
    | st.floats()
    | st.text(max_size=4)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
_numbers = st.integers(-2, 2) | st.floats(-2, 2) | _json_scalars
_pairs = st.lists(_numbers, min_size=2, max_size=2) | _json_values


@st.composite
def _mutated(draw, doc: dict) -> dict:
    """Drop or replace up to two fields of a well-formed document."""
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_json_values)
    return doc


@st.composite
def _matrices(draw, rows: int, cols: int):
    rows = draw(st.sampled_from([rows, rows, 1]))  # sometimes the wrong height
    return [[draw(_pairs) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _channel_docs(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    out = draw(st.integers(1, 3))
    doc = {
        "name": draw(st.text(max_size=3)),
        "input_dims": dims,
        "output_dim": out,
        "kraus": [draw(_matrices(out, math.prod(dims))) for _ in range(draw(st.integers(1, 2)))],
    }
    return draw(_mutated(doc))


@st.composite
def _nodes(draw, dims: list, depth: int):
    party = draw(st.integers(0, len(dims)))  # one past the last party, sometimes
    local = dims[party] if party < len(dims) else 1
    branches = []
    for _ in range(draw(st.integers(1, 2))):
        rows = draw(st.integers(1, 3))
        branch = {"op": draw(_matrices(rows, local)), "child": None}
        if depth and draw(st.booleans()):
            child_dims = [rows if p == party else d for p, d in enumerate(dims)]
            branch["child"] = draw(_nodes(child_dims, depth - 1))
        branches.append(draw(_mutated(branch)))
    return draw(_mutated({"party": party, "branches": branches}))


@st.composite
def _protocol_docs(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    doc = {"parties": len(dims), "initial_dims": dims, "root": draw(_nodes(dims, 2))}
    if draw(st.booleans()):
        doc["output_isometry"] = draw(_matrices(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    return draw(_mutated(doc))


@settings(max_examples=40, deadline=None)
@given(_channel_docs() | _json_values)
def test_channel_from_dict_returns_channel_or_schema_error(doc):
    try:
        channel = channel_from_dict(doc)
    except SchemaError:
        return
    assert isinstance(channel, KrausChannel)


@settings(max_examples=40, deadline=None)
@given(_protocol_docs() | _json_values)
def test_protocol_from_dict_returns_tree_or_schema_error(doc):
    try:
        tree = protocol_from_dict(doc)
    except SchemaError:
        return
    assert isinstance(tree, ProtocolTree)


def test_matrix_rejects_integers_beyond_float_range():
    with pytest.raises(SchemaError, match="not finite"):
        matrix_from_json([[[10**400, 0]]])
