"""The desk figures and the named verdicts, pinned against the seed path.

The seed path is the package's first source (``src`` at commit 1b6637a, the
initial commit's).  ``tests/data/seed_path`` holds what it gave: the desk
figure CSVs of scripts/run_figure_sweeps.py at master seed 1 (640 rows) and
the verdict fields of bell, domino and the benchmark's five large
random-unitary channels at seeds 1 and 2.  They were made once from git
history, from the repository root:

    seed=$(mktemp -d) && git archive 1b6637a src scripts | tar -x -C "$seed"
    PYTHONPATH=$seed/src python $seed/scripts/run_figure_sweeps.py --seed 1 --outdir tests/data/seed_path
    PYTHONPATH=$seed/src python tests/test_seed_path.py > tests/data/seed_path/verdicts.json

Verdicts, nullities, |S| and parameter columns must match exactly.  Ratios
and lambda_hat must match to 1e-14 absolute, near the measured rounding
level: a small lambda_hat carries the Gram's absolute rounding, so some
differ from the seed path by more than 1e-12 relative.  The desk test
prints how many.
"""

import csv
import importlib.util
import json
from pathlib import Path

from loccgate import bell_channel, domino_channel, gate_channel, random_unitary_channel, sample_rng, write_csv_atomic

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "seed_path"
_SPEC = importlib.util.spec_from_file_location("run_figure_sweeps", ROOT / "scripts" / "run_figure_sweeps.py")
figure_sweeps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(figure_sweeps)

# The heavy cases of bench/workloads.py: (name, party dims, N_u), channel i at sample_rng(seed, i)
HEAVY_CASES = (
    ("ru2x2x2_8", (2, 2, 2), 8),
    ("ru3x3_11", (3, 3), 11),
    ("ru2x2x2_12", (2, 2, 2), 12),
    ("ru4x4_18", (4, 4), 18),
    ("ru2x2x2x2_20", (2, 2, 2, 2), 20),
)
RATIO_ABS_TOL = 1e-14


def named_verdicts() -> dict:
    """Verdict, per-party nullity and per-party |S| of each named channel."""
    channels = {"bell": bell_channel(), "domino": domino_channel()}
    for seed in (1, 2):
        for i, (name, dims, nu) in enumerate(HEAVY_CASES):
            channels[f"seed{seed}/{name}"] = random_unitary_channel(dims, nu, sample_rng(seed, i))
    verdicts = {name: gate_channel(channel) for name, channel in channels.items()}
    return {name: {"verdict": v.verdict,
                   "nullity": [r.nullspace_dim for r in v.reports],
                   "pair_count": [r.pair_count for r in v.reports]} for name, v in verdicts.items()}


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def test_desk_figures_match_the_seed_path(tmp_path):
    compared = over = 0
    worst = 0.0
    for filename, configs in figure_sweeps.figure_configs(200, 20, 1).items():
        write_csv_atomic(tmp_path / filename, *figure_sweeps.figure_table(configs))
        header, rows = read_csv(tmp_path / filename)
        seed_header, seed_rows = read_csv(DATA / filename)
        assert header == seed_header and len(rows) == len(seed_rows), filename
        for column, name in enumerate(header):
            got, want = [row[column] for row in rows], [row[column] for row in seed_rows]
            if not (name.startswith("ratio_") or name == "lambda_hat"):
                assert got == want, (filename, name)
                continue
            for g, w in zip(map(float, got), map(float, want)):
                worst = max(worst, abs(g - w))
                if abs(w) >= 1e-10:
                    compared += 1
                    over += abs(g - w) > 1e-12 * abs(w)
    print(f"{over} of {compared} ratio and lambda_hat values at or above 1e-10 differ from the seed path "
          f"by more than 1e-12 relative; worst absolute difference {worst:.1e}")
    assert compared > 0 and worst <= RATIO_ABS_TOL


def test_named_verdicts_match_the_seed_path():
    assert named_verdicts() == json.loads((DATA / "verdicts.json").read_text())


if __name__ == "__main__":
    print(json.dumps(named_verdicts(), indent=1))
