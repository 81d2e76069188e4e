#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, with the output check.

    python3 bench/report.py --seed 0 --seconds 30

Runs ``bench/run.py --trace 0`` once per workload, each in its own process so
that peak memory is per workload, and prints one table.  ``fail_ratio`` and
the FD gaps are shown here although the result line leaves them out (see
README.md).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("spectral_evolve", "fd_verify", "atom_verify")
ROWS = (  # (name, unit, where it comes from)
    ("run_ms_p50", "ms", "metric"),
    ("run_ms_tail", "ms", "metric"),
    ("setup_s", "s", "metric"),
    ("peak_rss_mb", "MB", "metric"),
    ("fail_ratio", "1", "detail"),
    ("route_gap", "1", "metric"),
    ("mass_span", "1", "metric"),
    ("fd_l1_gap", "1", "detail"),
    ("fd_ab_gap", "1", "detail"),
)


def run_workload(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    for workload in WORKLOADS:
        detail, result = run_workload(workload, args.seed, args.seconds)
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, unit, source in ROWS:
            value = result["metrics"][name]["value"] if source == "metric" else detail[name]
            shown = "n/a (no FD run)" if value is None else f"{value:.6g} {unit}"
            note = ""
            if name == "run_ms_tail":
                note = f"  (p{detail['tail_percentile']:.0f} of {detail['tail_samples']} calls)"
            print(f"  {name:12s} {shown}{note}")
        if detail["first_violation"]:
            print(f"  first violation: {detail['first_violation']}")
        for problem in detail["problems"]:
            print(f"  output check: {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
