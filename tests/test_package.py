import ast
import inspect
from pathlib import Path

import pytest

import loccgate
from loccgate import linalg
from loccgate import cli, gate, protocols
from loccgate.channels import kraus_rank, kraus_ranks, operator_schmidt_rank, validate_density_matrix
from loccgate.gate import gate_channel
from loccgate.protocols import protocol_to_channel, verify_protocol

REMOVED = (
    "permute_party_to_front",
    "hermitian_eigenvalues",
    "HERMITIAN_RESIDUAL_TOL",
    "gate_party",
    "IdentityOutsideSpanError",
    "identity_vector",
    "channel_gram",
    "_identity_coordinates",
    "_require_identity_in_span",
)


def test_every_exported_name_resolves():
    missing = [name for name in loccgate.__all__ if not hasattr(loccgate, name)]
    assert missing == []
    assert len(set(loccgate.__all__)) == len(loccgate.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helpers_stay_removed(name):
    assert name not in loccgate.__all__
    assert not hasattr(loccgate, name)
    assert not hasattr(linalg, name)
    assert not hasattr(gate, name)


SIGNATURES = [
    (gate_channel, ["channel", "rel_tol"]),
    (kraus_rank, ["channel"]),
    (kraus_ranks, ["kraus"]),
    (operator_schmidt_rank, ["m", "dims", "party"]),
    (protocol_to_channel, ["tree"]),
    (verify_protocol, ["tree", "target", "tol"]),
    (validate_density_matrix, ["rho"]),
]


@pytest.mark.parametrize("func, params", SIGNATURES, ids=[f.__name__ for f, _ in SIGNATURES])
def test_public_signatures_have_no_extra_knobs(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_layers_stay_reachable_where_the_benchmark_tracer_wraps_them():
    for module, names in [
        (gate, ["kraus_ranks", "select_independent_subset", "nullspace_dimension",
                "pair_products", "completeness_residuals", "stacked_pair_products", "pair_product_columns",
                "select_independent_subsets", "_identity_coefficients", "party_gram",
                "packed_stacks", "nonzero_vectors"]),
        (protocols, ["protocol_to_channel", "channels_equal"]),
        (cli, ["verify_protocol"]),
    ]:
        assert [n for n in names if not callable(getattr(module, n, None))] == []
    assert list(inspect.signature(gate.select_independent_subset).parameters)[1] == "tol"


def test_modules_use_every_name_they_import():
    # no linter ships with the package; ``__init__`` imports names only to export them
    unused = []
    for path in sorted(Path(loccgate.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
