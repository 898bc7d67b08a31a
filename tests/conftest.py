import numpy as np
import pytest

from loccgate import protocols
from loccgate import (
    KrausChannel,
    ProtocolNode,
    ProtocolTree,
    RotatedDominoParams,
    bell_channel,
    domino_channel,
    random_unitary_channel,
    rotated_domino_channel,
    sample_usd_params,
    usd_channel,
)


def alice_dephasing_channel() -> KrausChannel:
    """Two-qubit channel {P0 x I, P1 x I}: Alice dephases, Bob is untouched."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return KrausChannel("alice-dephasing", (2, 2), 4, (np.kron(p0, eye), np.kron(p1, eye)))


@pytest.fixture(scope="session")
def bell():
    return bell_channel()


@pytest.fixture(scope="session")
def domino():
    return domino_channel()


@pytest.fixture(scope="session")
def rotated_domino():
    return rotated_domino_channel(RotatedDominoParams((0.3, 0.5, 0.2, 0.7)))


@pytest.fixture(scope="session")
def random_unitary_22():
    return random_unitary_channel((2, 2), 3, np.random.default_rng(11))


@pytest.fixture(scope="session")
def usd_instance():
    return usd_channel(sample_usd_params(np.random.default_rng(5)))


@pytest.fixture(scope="session")
def dephasing():
    return alice_dephasing_channel()


@pytest.fixture(scope="session")
def zoo_channels(bell, domino, rotated_domino, random_unitary_22, usd_instance):
    """One representative per example family."""
    return [bell, domino, rotated_domino, random_unitary_22, usd_instance]


@pytest.fixture(scope="session")
def isometry_chain():
    """Three chained one-branch nodes, each widening its party's qubit to 1000 dims.

    Compiled, its lone Kraus operator would be 10^9 x 8 (128 GB).
    """
    iso = np.zeros((1000, 2), dtype=complex)
    iso[0, 0] = iso[1, 1] = 1.0
    node = None
    for party in (2, 1, 0):
        node = ProtocolNode(party, [(iso, node)])
    return ProtocolTree(3, (2, 2, 2), node)


@pytest.fixture()
def no_compiling(monkeypatch):
    """Fail any protocol compilation, so that a test never builds the chain's operators."""

    def compile_(tree, out_dim):
        raise AssertionError("the protocol was compiled before its dims were checked")

    monkeypatch.setattr(protocols, "_compile", compile_)
