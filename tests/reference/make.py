"""Write tests/reference/shipped.json, the committed results of the shipped
configs that tier-1's test_shipped_configs_write_strict_json compares its runs
against.

For each of bench/configs/*.json and demos/configs/*.json it runs evolve and
verify at the config's own resolution, each of which must exit 0, and records
the evolution.csv columns per output time, the lowest ten eigenvalues of
spectrum.json and summary.json's spectral residuals.  Every value is written
with its shortest round-tripping repr.  Run it from any directory, after a
change that moves a result on purpose, and quote the largest change it makes:

    python tests/reference/make.py

It imports kimdiff from this checkout's src/ and writes only shipped.json.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from kimdiff.cli import main  # noqa: E402

COLUMNS = ("t", "a", "b", "q_l1", "mass_total", "psi_mass", "radon_to_limit")
N_LAMBDA = 10


def reference(config):
    """The recorded results of one config file."""
    with tempfile.TemporaryDirectory() as out:
        for command in ("evolve", "verify"):
            if main([command, "--config", str(config), "--out", out]) != 0:
                sys.exit(f"{command} on {config} did not exit 0")
        with open(Path(out) / "evolution.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        spectrum = json.loads((Path(out) / "spectrum.json").read_text())
        summary = json.loads((Path(out) / "summary.json").read_text())
    return {
        "columns": {key: [float(row[key]) for row in rows] for key in COLUMNS},
        "lambda": spectrum["lambda"][:N_LAMBDA],
        "residuals": summary["residuals"],
    }


def make():
    configs = sorted([*ROOT.glob("bench/configs/*.json"), *ROOT.glob("demos/configs/*.json")])
    table = {str(path.relative_to(ROOT).with_suffix("")): reference(path) for path in configs}
    target = Path(__file__).with_name("shipped.json")
    target.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} configs to {target}")


if __name__ == "__main__":
    make()
