#!/usr/bin/env python3
"""Reproduce the figure data sweeps as CSV files.

Emits three datasets into --outdir:

  rotated_domino.csv   lambda_hat vs theta_min over random rotation angles
  usd.csv              lambda_hat vs amplitude magnitudes for the
                       unambiguous-discrimination family
  random_unitary.csv   per-party ratios across the N_u = 2 .. D+2 transition
                       for two qubits and qubit-qutrit

Default sample counts are desk scale (200 / 20 seeds); --full-scale bumps
them to 10000 / 100.  Plotting is left to the reader; the CSVs carry every
column needed for any projection.
"""

import argparse
from pathlib import Path

from loccgate import SweepConfig, run_sweep, write_csv_atomic


def figure_configs(samples: int, seeds: int, seed: int) -> dict[str, list[SweepConfig]]:
    """The sweep configs behind each figure CSV, by file name.

    ``samples`` counts the samples per continuous family, ``seeds`` the
    seeds per random-unitary N_u value, and ``seed`` is the master seed.
    """
    return {
        "rotated_domino.csv": [SweepConfig(family="rotated_domino", samples=samples, seed=seed)],
        "usd.csv": [SweepConfig(family="usd", samples=samples, seed=seed + 1)],
        "random_unitary.csv": [
            SweepConfig(
                family="random_unitary",
                samples=seeds,
                seed=seed + 2,
                dims=dims,
                nu_values=tuple(range(2, dims[0] * dims[1] + 3)),
            )
            for dims in ((2, 2), (2, 3))
        ],
    }


def figure_table(configs: list[SweepConfig]) -> tuple[list[str], list[list]]:
    """(header, rows) of one figure CSV: one config's sweep as it is, or the
    transition study, which concatenates its dimension pairs behind a dims
    column."""
    if len(configs) == 1:
        return run_sweep(configs[0])
    table_header, table_rows = None, []
    for cfg in configs:
        header, rows = run_sweep(cfg)
        header = ["dims", *header]
        if table_header is None:
            table_header = header
        elif header != table_header:
            # [2,3] and [2,2] have the same party count, columns must agree
            raise RuntimeError("transition sweep column mismatch")
        label = "x".join(map(str, cfg.dims))
        table_rows.extend([label, *row] for row in rows)
    return table_header, table_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data", help="output directory (created if missing)")
    parser.add_argument("--samples", type=int, default=200, help="samples per continuous family")
    parser.add_argument("--seeds", type=int, default=20, help="seeds per random-unitary N_u value")
    parser.add_argument("--seed", type=int, default=20240, help="master seed")
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="use the full experiment scale (10000 samples, 100 seeds)",
    )
    args = parser.parse_args()

    samples = 10000 if args.full_scale else args.samples
    seeds = 100 if args.full_scale else args.seeds
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for filename, configs in figure_configs(samples, seeds, args.seed).items():
        header, rows = figure_table(configs)
        write_csv_atomic(outdir / filename, header, rows)
        print(f"wrote {outdir / filename} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
