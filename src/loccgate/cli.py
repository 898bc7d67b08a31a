"""Command-line front end: certify channels, materialize the zoo, run sweeps,
and verify protocol trees against target channels.

All commands are deterministic given their arguments; random families take an
explicit --seed.  Exit codes: 0 success (for verify-protocol: channels match),
1 verification mismatch, 2 parse failure (an out-of-range --tol included) or
an output that cannot be written, 3 dimension inconsistency, 4 completeness
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .gate import (
    COMPLETENESS_TOL,
    COMPLETENESS_WARN_TOL,
    DEFAULT_NULLSPACE_RTOL,
    IdentityOutsideSpanError,
    gate_channel,
    valid_rel_tol,
)
from .channels import CHOI_DISTANCE_TOL, check_completeness, valid_choi_tol
from .serialize import (
    DimensionError,
    SchemaError,
    _load_json,
    load_channel,
    load_protocol,
    save_channel,
    save_protocol,
)
from .sweeps import SweepConfig, run_sweep, write_csv_atomic
from .protocols import domino_three_round_protocol, usd_oneway_protocol, verify_protocol
from .zoo import (
    QUARTER_PI,
    RotatedDominoParams,
    UsdParams,
    bell_channel,
    domino_channel,
    random_unitary_channel,
    rotated_domino_channel,
    sample_usd_params,
    usd_channel,
)

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


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}") from exc


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


def _complex_arg(text: str) -> complex:
    parts = _floats(text)
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise SchemaError(f"expected 're' or 're,im', got {text!r}")


def _write_output(path, write) -> int:
    """Run ``write(path)``; an unwritable path exits 2, like an unreadable input."""
    try:
        write(path)
    except OSError as exc:
        _err(f"cannot write {path}: {exc.strerror or exc}")
        return EXIT_PARSE
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        channel = load_channel(args.channel)
    except DimensionError as exc:
        _err(f"dimension inconsistency: {exc}")
        return EXIT_DIMENSION
    except SchemaError as exc:
        _err(f"parse failure: {exc}")
        return EXIT_PARSE
    if channel.n_parties < 2:
        _err(f"dimension inconsistency: the gate needs at least 2 parties, got {channel.n_parties}")
        return EXIT_DIMENSION
    residual = check_completeness(channel)
    if residual > COMPLETENESS_TOL:
        _err(f"completeness failure: residual {residual:.3e} exceeds {COMPLETENESS_TOL:g}")
        return EXIT_COMPLETENESS
    try:
        verdict = gate_channel(channel, rel_tol=args.tol)
    except IdentityOutsideSpanError as exc:  # a defect below the ceiling, off the span
        _err(f"completeness failure: residual {residual:.3e}, {exc}")
        return EXIT_COMPLETENESS
    if residual > COMPLETENESS_WARN_TOL:
        print(
            f"warning: completeness residual {residual:.3e} above {COMPLETENESS_WARN_TOL:g}",
            file=sys.stderr,
        )
    print(json.dumps(verdict.to_dict(), indent=2))
    return EXIT_OK


def _build_zoo_channel(args):
    if args.name == "bell":
        return bell_channel()
    if args.name == "domino":
        return domino_channel()
    if args.name == "rotated-domino":
        if args.theta is None:
            raise SchemaError("rotated-domino needs --theta t1,t2,t3,t4")
        angles = _floats(args.theta)
        if len(angles) != 4:
            raise SchemaError("--theta needs exactly four angles")
        return rotated_domino_channel(RotatedDominoParams(tuple(angles)))
    if args.name == "random-unitary":
        if args.dims is None or args.nu is None:
            raise SchemaError("random-unitary needs --dims and --nu")
        rng = np.random.default_rng(args.seed)
        return random_unitary_channel(tuple(_ints(args.dims)), args.nu, rng)
    if args.name == "usd":
        if args.alpha1 is not None:
            a1 = _complex_arg(args.alpha1)
            a3 = _complex_arg(args.alpha3) if args.alpha3 is not None else complex(0.5)
            params = UsdParams(
                alpha1=a1,
                beta1=math.sqrt(max(1.0 - abs(a1) ** 2, 0.0)),
                alpha3=a3,
                beta3=math.sqrt(max(1.0 - abs(a3) ** 2, 0.0)),
                eta1=args.eta1,
                eta3=args.eta3,
            )
        else:
            rng = np.random.default_rng(args.seed)
            params = sample_usd_params(rng, args.eta1, args.eta3)
        return usd_channel(params)
    raise SchemaError(f"unknown family {args.name!r}")


def cmd_zoo(args) -> int:
    try:
        channel = _build_zoo_channel(args)
    except (SchemaError, ValueError) as exc:
        _err(str(exc))
        return EXIT_PARSE
    return _write_output(args.out, lambda path: save_channel(channel, path))


def cmd_protocol(args) -> int:
    try:
        if args.name == "domino-three-round":
            angles = _floats(args.theta) if args.theta else [QUARTER_PI] * 3
            if len(angles) != 3:
                raise SchemaError("--theta needs exactly three angles (theta2,theta3,theta4)")
            tree = domino_three_round_protocol(*angles)
        elif args.name == "usd-oneway":
            a1 = _complex_arg(args.alpha1) if args.alpha1 is not None else complex(0.4)
            tree = usd_oneway_protocol(a1, math.sqrt(max(1.0 - abs(a1) ** 2, 0.0)))
        else:
            raise SchemaError(f"unknown protocol {args.name!r}")
    except (SchemaError, ValueError) as exc:
        _err(str(exc))
        return EXIT_PARSE
    return _write_output(args.out, lambda path: save_protocol(tree, path))


def cmd_sweep(args) -> int:
    try:
        cfg = SweepConfig.from_dict(_load_json(args.config))
    except SchemaError as exc:
        _err(f"parse failure: {exc}")
        return EXIT_PARSE
    try:
        header, rows = run_sweep(cfg)
    except ValueError as exc:  # a sampler that finds no valid instance
        _err(f"parse failure: sweep config admits no samples: {exc}")
        return EXIT_PARSE
    return _write_output(args.out, lambda path: write_csv_atomic(path, header, rows))


def cmd_verify_protocol(args) -> int:
    try:
        tree = load_protocol(args.protocol)
        channel = load_channel(args.channel)
    except DimensionError as exc:
        _err(f"dimension inconsistency: {exc}")
        return EXIT_DIMENSION
    except SchemaError as exc:
        _err(f"parse failure: {exc}")
        return EXIT_PARSE
    try:
        ok, distance = verify_protocol(tree, channel, tol=args.tol)
    except ValueError as exc:
        _err(f"dimension inconsistency: {exc}")
        return EXIT_DIMENSION
    print(json.dumps({"ok": ok, "choi_distance": distance}, indent=2))
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
