"""Certification of LOCC-impossibility for multipartite quantum channels.

A channel given in Kraus form is gated party by party: a party can open an
LOCC protocol only if an augmented linear constraint matrix built from its
Kraus pair products has a nontrivial nullspace.  Empty nullspaces for every
party certify that no LOCC protocol, of any number of rounds, implements the
channel.  The package also ships the example channel families, a simulator
for finite-round protocol trees, seeded parameter sweeps, and a CLI.
"""

from .channels import (
    KrausChannel,
    apply_channel,
    channels_equal,
    check_completeness,
    choi_matrix,
    kraus_rank,
    lone_kraus_operator,
    operator_schmidt_rank,
    remix_kraus,
    validate_density_matrix,
)
from .gate import (
    GateVerdict,
    PartyGateReport,
    VERDICT_DEGENERATE_IDENTITY_SPAN,
    VERDICT_DEGENERATE_KRAUS_RANK_ONE,
    VERDICT_FIRST_MOVE_CANDIDATES,
    VERDICT_NOT_LOCC,
    gate_channel,
    gate_channels,
    pair_products,
)
from .linalg import (
    IndependentSubset,
    nullspace_dimension,
    select_independent_subset,
)
from .protocols import (
    ProtocolNode,
    ProtocolTree,
    communication_rounds,
    domino_three_round_protocol,
    protocol_to_channel,
    usd_oneway_protocol,
    validate_protocol,
    verify_protocol,
)
from .sweeps import SweepConfig, run_sweep, sample_rng, write_csv_atomic
from .zoo import (
    RotatedDominoParams,
    UsdParams,
    bell_channel,
    domino_channel,
    haar_unitary,
    random_unitary_channel,
    rotated_domino_channel,
    rotated_domino_states,
    sample_usd_params,
    usd_channel,
    usd_states,
    validate_usd_params,
)

__all__ = [
    "KrausChannel",
    "apply_channel",
    "channels_equal",
    "check_completeness",
    "choi_matrix",
    "kraus_rank",
    "lone_kraus_operator",
    "operator_schmidt_rank",
    "remix_kraus",
    "validate_density_matrix",
    "GateVerdict",
    "PartyGateReport",
    "VERDICT_DEGENERATE_IDENTITY_SPAN",
    "VERDICT_DEGENERATE_KRAUS_RANK_ONE",
    "VERDICT_FIRST_MOVE_CANDIDATES",
    "VERDICT_NOT_LOCC",
    "gate_channel",
    "gate_channels",
    "pair_products",
    "IndependentSubset",
    "nullspace_dimension",
    "select_independent_subset",
    "ProtocolNode",
    "ProtocolTree",
    "communication_rounds",
    "domino_three_round_protocol",
    "protocol_to_channel",
    "usd_oneway_protocol",
    "validate_protocol",
    "verify_protocol",
    "SweepConfig",
    "run_sweep",
    "sample_rng",
    "write_csv_atomic",
    "RotatedDominoParams",
    "UsdParams",
    "bell_channel",
    "domino_channel",
    "haar_unitary",
    "random_unitary_channel",
    "rotated_domino_channel",
    "rotated_domino_states",
    "sample_usd_params",
    "usd_channel",
    "usd_states",
    "validate_usd_params",
]
