import inspect

import pytest

import loccgate
from loccgate import linalg
from loccgate import cli, gate, protocols
from loccgate.channels import kraus_rank, operator_schmidt_rank, validate_density_matrix
from loccgate.gate import channel_gram, gate_channel, gate_party
from loccgate.protocols import protocol_to_channel, verify_protocol

REMOVED = ("permute_party_to_front", "hermitian_eigenvalues", "HERMITIAN_RESIDUAL_TOL")


def test_every_exported_name_resolves():
    missing = [name for name in loccgate.__all__ if not hasattr(loccgate, name)]
    assert missing == []
    assert len(set(loccgate.__all__)) == len(loccgate.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helpers_stay_removed(name):
    assert name not in loccgate.__all__
    assert not hasattr(loccgate, name)
    assert not hasattr(linalg, name)


SIGNATURES = [
    (gate_channel, ["channel", "rel_tol"]),
    (gate_party, ["channel", "party", "rel_tol"]),
    (kraus_rank, ["channel"]),
    (operator_schmidt_rank, ["m", "dims", "party"]),
    (protocol_to_channel, ["tree"]),
    (verify_protocol, ["tree", "target", "tol"]),
    (channel_gram, ["channel"]),
    (validate_density_matrix, ["rho"]),
]


@pytest.mark.parametrize("func, params", SIGNATURES, ids=[f.__name__ for f, _ in SIGNATURES])
def test_public_signatures_have_no_extra_knobs(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_layers_stay_reachable_where_the_benchmark_tracer_wraps_them():
    for module, names in [
        (gate, ["kraus_rank", "select_independent_subset", "nullspace_dimension",
                "identity_vector", "pair_products", "check_completeness"]),
        (protocols, ["protocol_to_channel", "channels_equal"]),
        (cli, ["verify_protocol"]),
    ]:
        assert [n for n in names if not callable(getattr(module, n, None))] == []
    assert list(inspect.signature(gate.select_independent_subset).parameters)[1] == "tol"
