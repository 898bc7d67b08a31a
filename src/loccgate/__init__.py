"""Certification of LOCC-impossibility for multipartite quantum channels.

A channel given in Kraus form is gated party by party: a party can open an
LOCC protocol only if an augmented linear constraint matrix built from its
Kraus pair products has a nontrivial nullspace.  Empty nullspaces for every
party certify that no LOCC protocol, of any number of rounds, implements the
channel.  The package also ships the example channel families, a compiler
that checks finite-round protocol trees against a target channel, seeded
parameter sweeps, and a CLI.

The namespace is lazy (PEP 562): ``import loccgate`` loads no submodule, and
each exported name imports its home module on first use.
"""

import importlib

# Every exported name and the submodule that defines it, in ``__all__`` order.
_HOME = {
    **dict.fromkeys(("KrausChannel", "channels_equal", "choi_matrix"), "channels"),
    **dict.fromkeys((
        "GateVerdict", "PartyGateReport", "VERDICT_DEGENERATE_IDENTITY_SPAN",
        "VERDICT_DEGENERATE_KRAUS_RANK_ONE", "VERDICT_FIRST_MOVE_CANDIDATES", "VERDICT_NOT_LOCC",
        "gate_channel", "gate_channels",
    ), "gate"),
    **dict.fromkeys(("IndependentSubset", "select_independent_subset"), "linalg"),
    **dict.fromkeys((
        "ProtocolNode", "ProtocolTree", "domino_three_round_protocol", "protocol_to_channel",
        "usd_oneway_protocol", "verify_protocol",
    ), "protocols"),
    **dict.fromkeys(("SweepConfig", "run_sweep", "sample_rng", "write_csv_atomic"), "sweeps"),
    **dict.fromkeys((
        "RotatedDominoParams", "UsdParams", "bell_channel", "domino_channel", "haar_unitary",
        "random_unitary_channel", "rotated_domino_channel", "sample_usd_params", "usd_channel",
        "validate_usd_params",
    ), "zoo"),
}
_SUBMODULES = ("channels", "cli", "gate", "linalg", "protocols", "serialize", "sweeps", "zoo")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:  # ``loccgate.zoo`` after a bare ``import loccgate``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
