#!/usr/bin/env python3
"""Print one sha256 per gate output, to check that a change leaves every output byte-identical.

The outputs are the desk-scale figure CSVs of run_figure_sweeps.py at master
seeds 1, 7 and 511, and the verdict JSON (``gate_channel(...).to_dict()``)
of the bell and domino channels and of five large random-unitary channels
at seeds 1 and 2.  --full-scale adds the three full-scale figure CSVs at
the default master seed.  Run it before and after a change and diff the
output:

    PYTHONPATH=src python scripts/output_digest.py [--full-scale]
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from loccgate import (
    bell_channel,
    domino_channel,
    gate_channel,
    random_unitary_channel,
    sample_rng,
    write_csv_atomic,
)
from run_figure_sweeps import figure_configs, figure_table

DESK_SEEDS = (1, 7, 511)
VERDICT_SEEDS = (1, 2)
# The heavy cases of bench/workloads.py: (name, party dims, N_u), channel i at a seed
# drawn from sample_rng(seed, i)
LARGE_CASES = (
    ("ru2x2x2_8", (2, 2, 2), 8),
    ("ru3x3_11", (3, 3), 11),
    ("ru2x2x2_12", (2, 2, 2), 12),
    ("ru4x4_18", (4, 4), 18),
    ("ru2x2x2x2_20", (2, 2, 2, 2), 20),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def figure_digests(outdir: Path, label: str, samples: int, seeds: int, seed: int):
    for filename, configs in figure_configs(samples, seeds, seed).items():
        write_csv_atomic(outdir / filename, *figure_table(configs))
        yield sha256((outdir / filename).read_bytes()), f"{label}/{filename}"


def verdict_digest(channel) -> str:
    return sha256(json.dumps(gate_channel(channel).to_dict()).encode())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full-scale", action="store_true", help="add the full-scale figure CSVs")
    args = parser.parse_args()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in DESK_SEEDS:
            lines += figure_digests(Path(tmp), f"desk-seed{seed}", 200, 20, seed)
        if args.full_scale:
            lines += figure_digests(Path(tmp), "full-scale", 10000, 100, 20240)
    lines.append((verdict_digest(bell_channel()), "bell.json"))
    lines.append((verdict_digest(domino_channel()), "domino.json"))
    for seed in VERDICT_SEEDS:
        for i, (name, dims, nu) in enumerate(LARGE_CASES):
            channel = random_unitary_channel(dims, nu, sample_rng(seed, i))
            lines.append((verdict_digest(channel), f"seed{seed}/{name}.json"))
    for digest, label in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
