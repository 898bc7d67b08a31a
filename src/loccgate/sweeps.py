"""Seeded parameter sweeps over the example families, emitted as CSV rows.

Every sample draws its own generator from (seed, sample index), so rows are
reproducible independently of evaluation order.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gate import DEFAULT_NULLSPACE_RTOL, gate_channel
from .serialize import SchemaError
from .zoo import (
    RotatedDominoParams,
    random_unitary_channel,
    rotated_domino_channel,
    sample_usd_params,
    usd_channel,
)

FAMILIES = ("rotated_domino", "random_unitary", "usd")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: which family, how many samples, and the master seed.

    For ``random_unitary``, ``samples`` counts seeds per entry of
    ``nu_values``; the other families ignore ``dims``/``nu_values``.
    """

    family: str
    samples: int
    seed: int
    rel_tol: float = DEFAULT_NULLSPACE_RTOL
    dims: tuple[int, ...] = (2, 2)
    nu_values: tuple[int, ...] = ()
    theta_high: float = math.pi / 4.0
    eta1: float = 0.25
    eta3: float = 0.25

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SchemaError(f"unknown sweep family {self.family!r}; expected one of {FAMILIES}")
        if self.samples < 1:
            raise SchemaError("samples must be at least 1")
        if not 0.0 < self.theta_high <= math.pi / 4.0:
            raise SchemaError("theta_high must lie in (0, pi/4]")
        if self.family == "random_unitary":
            if not self.nu_values:
                raise SchemaError("random_unitary sweeps need a nonempty 'nu_values'")
            if any(n < 1 for n in self.nu_values):
                raise SchemaError("nu_values must be positive")
            if len(self.dims) < 2 or any(d < 1 for d in self.dims):
                raise SchemaError("dims must list at least two positive party dimensions")
        if self.family == "usd" and not (
            self.eta1 > 0 and self.eta3 > 0 and 2 * self.eta1 + self.eta3 < 1
        ):
            raise SchemaError("usd priors must satisfy eta1 > 0, eta3 > 0 and 2*eta1 + eta3 < 1")

    @staticmethod
    def from_dict(doc: dict) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise SchemaError("sweep config must be a JSON object")
        for key in ("family", "samples", "seed"):
            if key not in doc:
                raise SchemaError(f"sweep config missing field '{key}'")
        known = {
            "family",
            "samples",
            "seed",
            "rel_tol",
            "dims",
            "nu_values",
            "theta_high",
            "eta1",
            "eta3",
        }
        unknown = set(doc) - known
        if unknown:
            raise SchemaError(f"unknown sweep config fields: {sorted(unknown)}")
        kwargs = dict(doc)
        if "dims" in kwargs:
            kwargs["dims"] = tuple(int(d) for d in kwargs["dims"])
        if "nu_values" in kwargs:
            kwargs["nu_values"] = tuple(int(n) for n in kwargs["nu_values"])
        try:
            return SweepConfig(**kwargs)
        except TypeError as exc:
            raise SchemaError(f"bad sweep config: {exc}") from exc


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one sample of one sweep."""
    return np.random.default_rng((int(seed), int(index)))


def _ratio_columns(n_parties: int) -> list[str]:
    return [f"ratio_party{p}" for p in range(n_parties)]


def _sweep_rotated_domino(cfg: SweepConfig) -> tuple[list[str], list[list]]:
    header = [
        "sample",
        "theta1",
        "theta2",
        "theta3",
        "theta4",
        "theta_min",
        *_ratio_columns(2),
        "lambda_hat",
        "verdict",
    ]
    rows = []
    for s in range(cfg.samples):
        rng = sample_rng(cfg.seed, s)
        # theta_high - U[0, theta_high) lands in (0, theta_high]
        theta = tuple(cfg.theta_high - rng.uniform(0.0, cfg.theta_high) for _ in range(4))
        channel = rotated_domino_channel(RotatedDominoParams(theta))
        verdict = gate_channel(channel, rel_tol=cfg.rel_tol)
        rows.append(
            [
                s,
                *theta,
                min(theta),
                *[r.ratio for r in verdict.reports],
                verdict.lambda_hat,
                verdict.verdict,
            ]
        )
    return header, rows


def _sweep_random_unitary(cfg: SweepConfig) -> tuple[list[str], list[list]]:
    n_parties = len(cfg.dims)
    header = ["sample", "nu", *_ratio_columns(n_parties), "lambda_hat", "verdict"]
    rows = []
    flat = 0
    for nu in cfg.nu_values:
        for _ in range(cfg.samples):
            rng = sample_rng(cfg.seed, flat)
            channel = random_unitary_channel(cfg.dims, nu, rng)
            verdict = gate_channel(channel, rel_tol=cfg.rel_tol)
            rows.append(
                [flat, nu, *[r.ratio for r in verdict.reports], verdict.lambda_hat, verdict.verdict]
            )
            flat += 1
    return header, rows


def _sweep_usd(cfg: SweepConfig) -> tuple[list[str], list[list]]:
    header = [
        "sample",
        "alpha1_abs",
        "beta1_abs",
        "alpha3_abs",
        "beta3_abs",
        "eta1",
        "eta3",
        *_ratio_columns(2),
        "lambda_hat",
        "verdict",
    ]
    rows = []
    for s in range(cfg.samples):
        rng = sample_rng(cfg.seed, s)
        params = sample_usd_params(rng, cfg.eta1, cfg.eta3)
        channel = usd_channel(params)
        verdict = gate_channel(channel, rel_tol=cfg.rel_tol)
        rows.append(
            [
                s,
                abs(params.alpha1),
                abs(params.beta1),
                abs(params.alpha3),
                abs(params.beta3),
                params.eta1,
                params.eta3,
                *[r.ratio for r in verdict.reports],
                verdict.lambda_hat,
                verdict.verdict,
            ]
        )
    return header, rows


_RUNNERS = {
    "rotated_domino": _sweep_rotated_domino,
    "random_unitary": _sweep_random_unitary,
    "usd": _sweep_usd,
}


def run_sweep(cfg: SweepConfig) -> tuple[list[str], list[list]]:
    """Evaluate a sweep; returns (header, rows) in deterministic order."""
    return _RUNNERS[cfg.family](cfg)


def write_csv_atomic(path, header: list[str], rows: list[list]) -> None:
    """Write a CSV to a temp file in the same directory, then rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
