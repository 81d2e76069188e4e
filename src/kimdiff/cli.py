"""Command-line entry points.

Subcommands: spectrum, fixation, evolve, verify, bessel-check, plot.
Exit codes: 0 success, 1 input error, 2 invariant tolerance violated.
"""

import argparse
import csv
import json
import sys

from .fixation import fixation_profile
from .scenario import (
    ConfigError,
    emit_plot_data,
    load_scenario,
    run_scenario,
    run_verify,
)
from .spectral import bessel_comparison, build_basis


def _add_common(sub):
    sub.add_argument("--config", help="scenario config JSON")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--modes", type=int, help="override spectral mode count")
    sub.add_argument("--grid", type=int, help="override output sampling grid size")
    sub.add_argument("--cells", type=int, help="override FD cell count")
    sub.add_argument("--dt", type=float, help="override FD time step")
    sub.add_argument("--s", type=float, help="smoothness exponent for decay bounds")
    for name in ("mass-drift", "psi-mass-drift", "route-agreement",
                 "positivity", "fd-l1", "fd-ab"):
        sub.add_argument(f"--tol-{name}", type=float, help=f"{name} tolerance")


def _overrides(args):
    tols = {}
    for name in ("mass_drift", "psi_mass_drift", "route_agreement",
                 "positivity", "fd_l1", "fd_ab"):
        val = getattr(args, f"tol_{name}", None)
        if val is not None:
            tols[name] = val
    return {
        "modes": args.modes,
        "grid": args.grid,
        "cells": args.cells,
        "dt": args.dt,
        "s": args.s,
        "tolerances": tols,
    }


def _scenario_or_default(args):
    if args.config:
        return load_scenario(args.config, out_dir=args.out, overrides=_overrides(args))
    cfg = {
        "schema": 1,
        "name": "neutral-default",
        "model": {"preset": "kimura", "eta": 0.0, "beta": 0.0},
        "initial": {"density": "uniform"},
        "times": [0.1, 0.5, 1.0, 2.0],
    }
    return load_scenario(cfg, out_dir=args.out or "kimdiff-results",
                         overrides=_overrides(args))


def _cmd_spectrum(args):
    scenario = _scenario_or_default(args)
    from .scenario import _spectrum_payload, _write_json

    basis = build_basis(scenario.model, scenario.modes, scenario.grid)
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(scenario.out_dir / "spectrum.json",
                _spectrum_payload(scenario, basis))
    if args.csv:
        with open(scenario.out_dir / "eigenfunctions.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x"] + [f"phi{j}" for j in range(basis.n_modes)])
            for i, x in enumerate(basis.interior_grid):
                writer.writerow([x] + list(basis.eigenfunctions[i, :]))
    print(f"wrote {scenario.out_dir / 'spectrum.json'}")
    return 0


def _cmd_fixation(args):
    scenario = _scenario_or_default(args)
    profile = fixation_profile(scenario.model, args.points)
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    path = scenario.out_dir / "fixation.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "psi"])
        writer.writerows(zip(profile.grid, profile.values))
    print(f"wrote {path}")
    return 0


def _cmd_evolve(args):
    if not args.config:
        raise ConfigError("evolve requires --config")
    return run_scenario(args.config, out_dir=args.out, overrides=_overrides(args))


def _cmd_verify(args):
    if not args.config:
        raise ConfigError("verify requires --config")
    status = run_verify(args.config, out_dir=args.out, overrides=_overrides(args))
    print("verify:", "PASS" if status == 0 else "FAIL (see verify.json)")
    return status


def _cmd_bessel(args):
    scenario = _scenario_or_default(args)
    mode_list = [int(m) for m in args.bessel_modes.split(",")]
    n_modes = max(scenario.modes, max(mode_list) + 1)
    basis = build_basis(scenario.model, n_modes, scenario.grid)
    results = [
        {"mode": j, "sup_error": bessel_comparison(scenario.model, basis, j)}
        for j in mode_list
    ]
    payload = {
        "comparison": results,
        "decreasing": all(
            a["sup_error"] > b["sup_error"] for a, b in zip(results, results[1:])
        ),
    }
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    path = scenario.out_dir / "bessel.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _cmd_plot(args):
    plots = emit_plot_data(args.results)
    print(f"wrote {plots}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kimdiff",
        description="Degenerate forward-equation solver with absorbing "
        "endpoint masses: spectral route, fixation probabilities, and a "
        "finite-difference cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues, mode masses, diagnostics")
    _add_common(p)
    p.add_argument("--csv", action="store_true", help="also dump eigenfunction samples")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("fixation", help="fixation probability as CSV")
    _add_common(p)
    p.add_argument("--points", type=int, default=2049, help="grid size")
    p.set_defaults(func=_cmd_fixation)

    p = sub.add_parser("evolve", help="run a scenario end to end")
    _add_common(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("verify", help="spectral vs finite-difference verdict")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bessel-check", help="endpoint asymptotics comparison")
    _add_common(p)
    p.add_argument("--bessel-modes", default="4,8,16",
                   help="comma-separated mode indices")
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser("plot", help="emit plot-ready CSV and SVG charts")
    p.add_argument("--results", required=True, help="scenario results directory")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
