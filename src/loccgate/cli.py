"""Command-line front end: certify channels, materialize the zoo, run sweeps,
and verify protocol trees against target channels.

All commands are deterministic given their arguments; random families take an
explicit --seed.  Exit codes: 0 success (for verify-protocol: channels match),
1 verification mismatch.  A failure raises its class where it is found, and
``main`` alone maps the class to the code: 3 for a ``DimensionError``
(dimension inconsistency), 4 for a ``CompletenessError`` (completeness
failure), 2 for any other ``ValueError`` (parse failure, an out-of-range --tol
included), an input too large for memory and an --out that cannot be written.

Each command imports only the modules it needs: ``check`` and
``verify-protocol`` never load ``zoo`` or ``sweeps``.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a one-shot process: no cyclic collection while importing
    gc.disable()

import argparse
import json
import math
import sys

import numpy as np

from .gate import COMPLETENESS_WARN_TOL, DEFAULT_NULLSPACE_RTOL, gate_channel, valid_rel_tol
from .channels import CHOI_DISTANCE_TOL, CompletenessError, DimensionError, valid_choi_tol
from .serialize import (
    SchemaError,
    _load_json,
    load_channel,
    load_protocol,
    save_channel,
    save_protocol,
)
from .protocols import verify_protocol

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_COMPLETENESS = 4

SWEEP_COLUMNS_HELP = """\
sweep CSV columns (fixed order):
  rotated_domino: sample,theta1,theta2,theta3,theta4,theta_min,
                  ratio_party0,ratio_party1,lambda_hat,verdict
  random_unitary: sample,nu,ratio_party0,...,ratio_party{P-1},lambda_hat,verdict
  usd:            sample,alpha1_abs,beta1_abs,alpha3_abs,beta3_abs,eta1,eta3,
                  ratio_party0,ratio_party1,lambda_hat,verdict
"""


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]  # its ValueError names the token


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not all(x.is_integer() for x in values):  # also rejects inf and nan
        raise SchemaError(f"expected comma-separated integers, got {text!r}")
    return [int(x) for x in values]


def _tol_type(valid, rule: str):
    """An argparse ``type=`` for a tolerance: a bad value exits 2 with a usage error."""

    def tolerance(text: str) -> float:  # argparse names it in "invalid tolerance value"
        if not valid(value := float(text)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    return tolerance


def _amplitude_pair(text: str | None, default: float | None = None) -> tuple[complex, float]:
    """``text`` as 're' or 're,im' (``default`` when None) and the real amplitude completing its pair."""
    parts = [default] if text is None else _floats(text)
    if len(parts) not in (1, 2):
        raise SchemaError(f"expected 're' or 're,im', got {text!r}")
    if not all(abs(p) <= 1.0 for p in parts) or math.hypot(*parts) > 1.0:  # inf and nan too
        raise SchemaError(f"amplitude {text!r} has modulus above 1")
    a = complex(*parts)
    return a, math.sqrt(max(1.0 - abs(a) ** 2, 0.0))


def cmd_check(args) -> int:
    channel = load_channel(args.channel)
    verdict = gate_channel(channel, rel_tol=args.tol)
    residual = verdict.completeness_residual  # the gate has held it within COMPLETENESS_TOL
    if residual > COMPLETENESS_WARN_TOL:
        print(
            f"warning: completeness residual {residual:.3e} above {COMPLETENESS_WARN_TOL:g}",
            file=sys.stderr,
        )
    print(json.dumps(verdict.to_dict(), indent=2))
    return EXIT_OK


def _build_zoo_channel(args):
    from . import zoo

    if args.name == "bell":
        return zoo.bell_channel()
    if args.name == "domino":
        return zoo.domino_channel()
    if args.name == "rotated-domino":
        if args.theta is None:
            raise SchemaError("rotated-domino needs --theta t1,t2,t3,t4")
        return zoo.rotated_domino_channel(zoo.RotatedDominoParams(tuple(_floats(args.theta))))
    if args.name == "random-unitary":
        if args.dims is None or args.nu is None:
            raise SchemaError("random-unitary needs --dims and --nu")
        rng = np.random.default_rng(args.seed)
        return zoo.random_unitary_channel(tuple(_ints(args.dims)), args.nu, rng)
    # usd, the last name argparse admits
    if args.alpha1 is None:
        params = zoo.sample_usd_params(np.random.default_rng(args.seed), args.eta1, args.eta3)
    else:
        (a1, b1), (a3, b3) = _amplitude_pair(args.alpha1), _amplitude_pair(args.alpha3, 0.5)
        params = zoo.UsdParams(a1, b1, a3, b3, args.eta1, args.eta3)
    return zoo.usd_channel(params)


def cmd_zoo(args) -> int:
    save_channel(_build_zoo_channel(args), args.out)
    return EXIT_OK


def cmd_protocol(args) -> int:
    from .protocols import domino_three_round_protocol, usd_oneway_protocol
    from .zoo import QUARTER_PI

    if args.name == "domino-three-round":
        angles = _floats(args.theta) if args.theta else [QUARTER_PI] * 3
        if len(angles) != 3:
            raise SchemaError("--theta needs exactly three angles (theta2,theta3,theta4)")
        tree = domino_three_round_protocol(*angles)
    else:  # usd-oneway, the only other name argparse admits
        tree = usd_oneway_protocol(*_amplitude_pair(args.alpha1, 0.4))
    save_protocol(tree, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .sweeps import SweepConfig, run_sweep, write_csv_atomic

    header, rows = run_sweep(SweepConfig.from_dict(_load_json(args.config)))
    write_csv_atomic(args.out, header, rows)
    return EXIT_OK


def cmd_verify_protocol(args) -> int:
    tree = load_protocol(args.protocol)
    ok, distance = verify_protocol(tree, load_channel(args.channel), tol=args.tol)
    # strict JSON has no Infinity or NaN: an overflowing distance prints null
    shown = distance if math.isfinite(distance) else None
    print(json.dumps({"ok": ok, "choi_distance": shown}, indent=2, allow_nan=False))
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccgate",
        description=(
            "Certify LOCC-impossibility of multipartite quantum channels via the "
            "per-party first-measurement nullspace gate."
        ),
        epilog=SWEEP_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="gate a channel file and print the verdict JSON")
    p_check.add_argument("--channel", required=True, help="channel JSON file")
    p_check.add_argument(
        "--tol",
        type=_tol_type(valid_rel_tol, "a finite number in (0, 1)"),
        default=DEFAULT_NULLSPACE_RTOL,
        help="relative eigenvalue threshold for an empty nullspace (default %(default)g)",
    )
    p_check.set_defaults(func=cmd_check)

    p_zoo = sub.add_parser("zoo", help="materialize a named example channel to JSON")
    p_zoo.add_argument(
        "name",
        choices=["bell", "domino", "rotated-domino", "random-unitary", "usd"],
    )
    p_zoo.add_argument("--out", required=True, help="output channel JSON file")
    p_zoo.add_argument("--theta", help="rotated-domino angles t1,t2,t3,t4")
    p_zoo.add_argument("--dims", help="random-unitary party dimensions, e.g. 2,2")
    p_zoo.add_argument("--nu", type=int, help="random-unitary: number of unitaries")
    p_zoo.add_argument("--seed", type=int, default=0, help="seed for random families")
    p_zoo.add_argument("--alpha1", help="usd: alpha1 as 're' or 're,im' (beta1 completes it)")
    p_zoo.add_argument("--alpha3", help="usd: alpha3 as 're' or 're,im' (beta3 completes it)")
    p_zoo.add_argument("--eta1", type=float, default=0.25, help="usd prior (default 0.25)")
    p_zoo.add_argument("--eta3", type=float, default=0.25, help="usd prior (default 0.25)")
    p_zoo.set_defaults(func=cmd_zoo)

    p_proto = sub.add_parser("protocol", help="materialize a built-in protocol tree to JSON")
    p_proto.add_argument("name", choices=["domino-three-round", "usd-oneway"])
    p_proto.add_argument("--out", required=True, help="output protocol JSON file")
    p_proto.add_argument("--theta", help="domino-three-round angles t2,t3,t4")
    p_proto.add_argument("--alpha1", help="usd-oneway alpha1 as 're' or 're,im'")
    p_proto.set_defaults(func=cmd_protocol)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a seeded family sweep to CSV",
        epilog=SWEEP_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sweep.add_argument("--config", required=True, help="sweep config JSON file")
    p_sweep.add_argument("--out", required=True, help="output CSV file (written atomically)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify-protocol", help="compile a protocol tree and compare it to a channel"
    )
    p_verify.add_argument("--protocol", required=True, help="protocol JSON file")
    p_verify.add_argument("--channel", required=True, help="target channel JSON file")
    p_verify.add_argument(
        "--tol",
        type=_tol_type(valid_choi_tol, "a finite number >= 0"),
        default=CHOI_DISTANCE_TOL,
        help="Choi distance tolerance (default %(default)g)",
    )
    p_verify.set_defaults(func=cmd_verify_protocol)

    return parser


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command; a failure prints its message and exits with its class's code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionError as exc:
        return _fail(EXIT_DIMENSION, f"dimension inconsistency: {exc}")
    except CompletenessError as exc:
        return _fail(EXIT_COMPLETENESS, f"completeness failure: {exc}")
    except ValueError as exc:
        return _fail(EXIT_PARSE, f"parse failure: {exc}")
    except MemoryError as exc:  # numpy's names the size: "Unable to allocate 2.33 TiB ..."
        return _fail(EXIT_PARSE, f"input too large: {str(exc) or 'out of memory'}")
    except OSError as exc:  # inputs are read through _load_json, so this is a failed write
        out = getattr(args, "out", "stdout")  # check and verify-protocol write only stdout
        return _fail(EXIT_PARSE, f"cannot write {out}: {exc.strerror or exc}")


if __name__ == "__main__":
    # Move the import-time heap out of the collector's reach, exit's final collection
    # included; objects the command makes are still collected.
    gc.freeze()
    gc.enable()
    raise SystemExit(main())
