"""Command-line entry points.

Subcommands: spectrum, fixation, evolve, verify, bessel-check, plot.
Exit codes: 0 success, 1 input error, 2 invariant tolerance violated.
"""

import argparse
import sys

from .fixation import fixation_profile
from .scenario import (
    DEFAULT_TOLERANCES,
    DEFAULTS,
    ConfigError,
    emit_plot_data,
    load_scenario,
    run_scenario,
    run_verify,
    write_bessel,
    write_fixation,
    write_spectrum,
)
from .spectral import build_basis


def _add_common(sub):
    sub.add_argument("--config", help="scenario config JSON")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--modes", type=int, help="override spectral mode count")
    sub.add_argument("--grid", type=int, help="override output sampling grid size")
    sub.add_argument("--cells", type=int, help="override FD cell count")
    sub.add_argument("--dt", type=float, help="override FD time step")
    sub.add_argument("--s", type=float, help="smoothness exponent for decay bounds")
    for name in DEFAULT_TOLERANCES:
        flag = name.replace("_", "-")
        sub.add_argument(f"--tol-{flag}", type=float, help=f"{flag} tolerance")


_DEFAULT_SCENARIO = {
    "schema": 1,
    "name": "neutral-default",
    "model": {"preset": "kimura", "eta": 0.0, "beta": 0.0},
    "initial": {"density": "uniform"},
    "times": [0.1, 0.5, 1.0, 2.0],
}


def _scenario(args):
    """Load the --config scenario with the flags that are set laid over it.
    Without --config, spectrum, fixation and bessel-check load a neutral
    default written to kimdiff-results."""
    if not args.config and args.command in ("evolve", "verify"):
        raise ConfigError(f"{args.command} requires --config")
    flags = vars(args)
    overrides = {key: flags[key] for key in (*DEFAULTS, "out")}
    tolerances = {key: flags[f"tol_{key}"] for key in DEFAULT_TOLERANCES}
    if any(value is not None for value in tolerances.values()):
        # only then: else a config's tolerances that are not an object would be hidden
        overrides["tolerances"] = tolerances
    return load_scenario(args.config or _DEFAULT_SCENARIO, overrides)


def _cmd_spectrum(args):
    scenario = _scenario(args)
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    basis = build_basis(scenario.model, scenario.modes, scenario.grid)
    print(f"wrote {write_spectrum(scenario.out_dir, scenario.model, basis, args.csv)}")
    return 0


def _cmd_fixation(args):
    scenario = _scenario(args)
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    profile = fixation_profile(scenario.model, scenario.grid + 1)
    print(f"wrote {write_fixation(scenario.out_dir, profile)}")
    return 0


def _cmd_evolve(args):
    return run_scenario(_scenario(args))


def _cmd_verify(args):
    status = run_verify(_scenario(args))
    print("verify:", "PASS" if status == 0 else "FAIL (see verify.json)")
    return status


def _cmd_bessel(args):
    scenario = _scenario(args)
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    mode_list = [int(m) for m in args.bessel_modes.split(",")]
    n_modes = max(scenario.modes, max(mode_list) + 1)
    basis = build_basis(scenario.model, n_modes, scenario.grid)
    print(f"wrote {write_bessel(scenario.out_dir, scenario.model, basis, mode_list)}")
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

    p = sub.add_parser("fixation", help="fixation probability on grid + 1 points, as CSV")
    _add_common(p)
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
