"""Seeded parameter sweeps over the example families, emitted as CSV rows.

Every sample draws its own generator from (seed, sample index), so rows are
reproducible independently of evaluation order.  A family's sampler yields
runs of rows with their (B, N, d_out, D) Kraus stack, built in one array
pass, and each run is gated as one stack when its rows are read: a sweep
holds one run at a time, so its memory does not grow with ``samples``.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .gate import DEFAULT_NULLSPACE_RTOL, STACK_BYTES, _gate_stack, valid_rel_tol
from .channels import SchemaError
from .zoo import random_unitary_kraus, rotated_domino_kraus, sample_usd_params, usd_kraus, valid_usd_priors


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
        if self.seed < 0:
            raise SchemaError(f"seed must be nonnegative, got {self.seed}")
        if not valid_rel_tol(self.rel_tol):
            raise SchemaError(f"rel_tol must be a finite number in (0, 1), got {self.rel_tol!r}")
        if not 0.0 < self.theta_high <= math.pi / 4.0:
            raise SchemaError("theta_high must lie in (0, pi/4]")
        if self.family == "random_unitary":
            if not self.nu_values:
                raise SchemaError("random_unitary sweeps need a nonempty 'nu_values'")
            if any(n < 1 for n in self.nu_values):
                raise SchemaError("nu_values must be positive")
            if len(self.dims) < 2 or any(d < 1 for d in self.dims):
                raise SchemaError("dims must list at least two positive party dimensions")
        if self.family == "usd" and not valid_usd_priors(self.eta1, self.eta3):
            raise SchemaError("usd priors must satisfy eta1 > 0, eta3 > 0 and 2*eta1 + eta3 < 1")

    @staticmethod
    def from_dict(doc: dict) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise SchemaError("sweep config must be a JSON object")
        for key in ("family", "samples", "seed"):
            if key not in doc:
                raise SchemaError(f"sweep config missing field '{key}'")
        unknown = set(doc) - {f.name for f in fields(SweepConfig)}
        if unknown:
            raise SchemaError(f"unknown sweep config fields: {sorted(unknown)}")
        kwargs = dict(doc)
        for key in ("samples", "seed"):
            if not _is_int(kwargs[key]):
                raise SchemaError(f"sweep config field '{key}' must be an integer")
        for key in ("dims", "nu_values"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)) or not all(map(_is_int, kwargs[key])):
                    raise SchemaError(f"sweep config field '{key}' must be a list of integers")
                kwargs[key] = tuple(kwargs[key])
        for key in ("rel_tol", "theta_high", "eta1", "eta3"):
            if key in kwargs and not (_is_int(kwargs[key]) or isinstance(kwargs[key], float)):
                raise SchemaError(f"sweep config field '{key}' must be a real number")
        return SweepConfig(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one sample of one sweep."""
    return np.random.default_rng((int(seed), int(index)))


def _runs(count: int, n_kraus: int, dim: int):
    """Bounds (lo, hi) of the runs of ``count`` rows of N Kraus operators on dimension D: as many
    rows as fit one stack (``gate.STACK_BYTES``) when each keeps only its N products K_i^dag K_i,
    as measurements do; the gate cuts each run into stacks, which may span its product chunks."""
    step = max(1, STACK_BYTES // (np.dtype(complex).itemsize * n_kraus * dim * dim))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _rotated_domino_samples(cfg: SweepConfig):
    for lo, hi in _runs(cfg.samples, 9, 9):
        # theta_high - U[0, theta_high) lands in (0, theta_high]
        draws = [sample_rng(cfg.seed, s).uniform(0.0, cfg.theta_high, 4) for s in range(lo, hi)]
        theta = cfg.theta_high - np.array(draws)
        yield np.column_stack([theta, theta.min(axis=1)]).tolist(), rotated_domino_kraus(theta)


def _random_unitary_samples(cfg: SweepConfig):
    flat = 0
    for nu, repeats in groupby(cfg.nu_values):
        count = cfg.samples * len(list(repeats))
        for lo, hi in _runs(count, nu, math.prod(cfg.dims)):
            rngs = [sample_rng(cfg.seed, flat + s) for s in range(lo, hi)]
            yield [(nu,)] * (hi - lo), random_unitary_kraus(cfg.dims, nu, rngs)
        flat += count


def _usd_samples(cfg: SweepConfig):
    for lo, hi in _runs(cfg.samples, 5, 4):
        rngs = (sample_rng(cfg.seed, s) for s in range(lo, hi))
        params = [sample_usd_params(rng, cfg.eta1, cfg.eta3) for rng in rngs]
        values = [(*map(abs, (p.alpha1, p.beta1, p.alpha3, p.beta3)), p.eta1, p.eta3) for p in params]
        yield values, usd_kraus(params)


# Family -> (parameter columns, input dims (None: the config's), sampler yielding
# runs (parameter values per row, Kraus stack)).
_FAMILY_TABLE = {
    "rotated_domino": (
        ("theta1", "theta2", "theta3", "theta4", "theta_min"),
        (3, 3),
        _rotated_domino_samples,
    ),
    "random_unitary": (("nu",), None, _random_unitary_samples),
    "usd": (
        ("alpha1_abs", "beta1_abs", "alpha3_abs", "beta3_abs", "eta1", "eta3"),
        (2, 2),
        _usd_samples,
    ),
}

FAMILIES = tuple(_FAMILY_TABLE)


def run_sweep(cfg: SweepConfig) -> tuple[list[str], Iterator[list]]:
    """Evaluate a sweep; returns (header, rows) in deterministic order.

    The header follows from the config.  ``rows`` is an iterator that gates each run of the
    family's sampler as one Kraus stack when its first row is read, with the stacked scan even
    for a run of one row, so a row does not depend on ``samples``.  Each row is the sample index,
    the family's parameter values, one ratio per party, ``lambda_hat`` and the verdict; rows equal
    those of ``gate_channels`` on the same samples bit for bit, and of gating each sample alone to
    rounding.  Rows are read from the gate's columns (``gate.StackColumns``), so no verdict object
    is built.
    """
    columns, dims, _ = _FAMILY_TABLE[cfg.family]
    ratio_columns = [f"ratio_party{p}" for p in range(len(dims or cfg.dims))]
    return ["sample", *columns, *ratio_columns, "lambda_hat", "verdict"], chain.from_iterable(_gated_runs(cfg))


def _gated_runs(cfg: SweepConfig):
    """The rows of each run of ``cfg``'s sampler as one list, gated when the run is reached."""
    _, dims, samples = _FAMILY_TABLE[cfg.family]
    first = 0
    for values, kraus in samples(cfg):
        names = [f"{cfg.family} sample {i}" for i in range(first, first + len(kraus))]
        gated = _gate_stack(kraus, dims or cfg.dims, names, cfg.rel_tol)
        cells = zip(values, gated.ratio.T.tolist(), gated.lambda_hat.tolist(), gated.verdict.tolist())
        yield [[i, *value, *ratios, lam, verdict] for i, (value, ratios, lam, verdict) in enumerate(cells, first)]
        del gated, cells  # the zip holds the run's column lists: free them before the next run is gated
        first += len(kraus)


def write_csv_atomic(path, header: list[str], rows: Iterable[list]) -> None:
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
