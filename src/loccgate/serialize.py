"""JSON schemas for channels, protocols and gate verdicts.

Matrices are stored as arrays of rows with each entry a ``[re, im]`` pair.
Parsers reject inconsistent shapes and non-finite numbers; ``SchemaError``
flags malformed documents, its subclass ``DimensionError`` flags documents
that parse but are dimensionally inconsistent.  Both are defined in
``channels`` and re-exported here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channels import DimensionError, KrausChannel, SchemaError
from .protocols import ProtocolNode, ProtocolTree

# Most measurement layers a protocol document may nest, far below the stack limit.
MAX_PROTOCOL_DEPTH = 100


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nonempty array of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}: row {i} is not a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{where}: row {i} has length {len(row)}, expected {width}")
        parsed = []
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise SchemaError(f"{where}: entry ({i},{j}) is not a [re, im] pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # a JSON integer beyond the float range
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SchemaError(f"{where}: entry ({i},{j}) is not finite")
            parsed.append(complex(re, im))
        rows.append(parsed)
    return np.array(rows, dtype=complex)


def channel_to_dict(channel: KrausChannel) -> dict:
    return {
        "name": channel.name,
        "input_dims": list(channel.input_dims),
        "output_dim": channel.output_dim,
        "kraus": [matrix_to_json(k) for k in channel.kraus],
    }


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaError(f"{where}: expected a positive integer, got {value!r}")
    return value


def channel_from_dict(doc: dict) -> KrausChannel:
    if not isinstance(doc, dict):
        raise SchemaError("channel document must be a JSON object")
    for key in ("name", "input_dims", "output_dim", "kraus"):
        if key not in doc:
            raise SchemaError(f"channel document missing field '{key}'")
    name = doc["name"]
    if not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    dims_raw = doc["input_dims"]
    if not isinstance(dims_raw, list) or not dims_raw:
        raise SchemaError("'input_dims' must be a nonempty array of positive integers")
    dims = tuple(_positive_int(d, "input_dims") for d in dims_raw)
    output_dim = _positive_int(doc["output_dim"], "output_dim")
    kraus_raw = doc["kraus"]
    if not isinstance(kraus_raw, list) or not kraus_raw:
        raise SchemaError("'kraus' must be a nonempty array of matrices")
    kraus = [matrix_from_json(k, where=f"kraus[{i}]") for i, k in enumerate(kraus_raw)]
    return KrausChannel(name, dims, output_dim, kraus)  # a shape mismatch is a DimensionError


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"JSON in {path} is nested too deeply") from exc


def load_channel(path) -> KrausChannel:
    return channel_from_dict(_load_json(path))


def save_channel(channel: KrausChannel, path) -> None:
    Path(path).write_text(json.dumps(channel_to_dict(channel), indent=2) + "\n")


def _node_to_dict(node: ProtocolNode) -> dict:
    return {
        "party": node.party,
        "branches": [
            {"op": matrix_to_json(op), "child": None if child is None else _node_to_dict(child)}
            for op, child in node.branches
        ],
    }


def _node_from_dict(doc, where: str, depth: int = 1) -> ProtocolNode:
    if depth > MAX_PROTOCOL_DEPTH:
        raise SchemaError(f"{where}: protocol tree is deeper than {MAX_PROTOCOL_DEPTH} levels")
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: node must be an object")
    if "party" not in doc or "branches" not in doc:
        raise SchemaError(f"{where}: node needs 'party' and 'branches'")
    party = doc["party"]
    if not isinstance(party, int) or isinstance(party, bool) or party < 0:
        raise SchemaError(f"{where}: 'party' must be a nonnegative integer")
    branches_raw = doc["branches"]
    if not isinstance(branches_raw, list) or not branches_raw:
        raise SchemaError(f"{where}: 'branches' must be a nonempty array")
    branches = []
    for i, branch in enumerate(branches_raw):
        if not isinstance(branch, dict) or "op" not in branch:
            raise SchemaError(f"{where}: branch {i} needs an 'op' matrix")
        op = matrix_from_json(branch["op"], where=f"{where}.branches[{i}].op")
        child = branch.get("child")
        if child is not None:
            child = _node_from_dict(child, f"{where}.branches[{i}]", depth + 1)
        branches.append((op, child))
    return ProtocolNode(party=party, branches=branches)


def protocol_to_dict(tree: ProtocolTree) -> dict:
    out = {
        "parties": tree.parties,
        "initial_dims": list(tree.initial_dims),
        "root": _node_to_dict(tree.root),
    }
    if tree.output_isometry is not None:
        out["output_isometry"] = matrix_to_json(tree.output_isometry)
    return out


def protocol_from_dict(doc: dict) -> ProtocolTree:
    if not isinstance(doc, dict):
        raise SchemaError("protocol document must be a JSON object")
    for key in ("parties", "initial_dims", "root"):
        if key not in doc:
            raise SchemaError(f"protocol document missing field '{key}'")
    parties = _positive_int(doc["parties"], "parties")
    dims_raw = doc["initial_dims"]
    if not isinstance(dims_raw, list) or len(dims_raw) != parties:
        raise DimensionError("'initial_dims' must list one dimension per party")
    dims = tuple(_positive_int(d, "initial_dims") for d in dims_raw)
    root = _node_from_dict(doc["root"], "root")
    iso = None
    if doc.get("output_isometry") is not None:
        iso = matrix_from_json(doc["output_isometry"], where="output_isometry")
    return ProtocolTree(initial_dims=dims, root=root, output_isometry=iso)


def load_protocol(path) -> ProtocolTree:
    return protocol_from_dict(_load_json(path))


def save_protocol(tree: ProtocolTree, path) -> None:
    Path(path).write_text(json.dumps(protocol_to_dict(tree), indent=2) + "\n")
