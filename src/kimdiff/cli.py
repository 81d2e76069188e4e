"""Command-line entry points.

Subcommands: spectrum, fixation, evolve, verify, bessel-check.
Exit codes: 0 success, 1 input or usage error, 2 invariant tolerance violated.
"""

import argparse
import functools
import sys

from .fixation import fixation_profile
from .scenario import (
    DEFAULT_TOLERANCES,
    DEFAULTS,
    ConfigError,
    load_scenario,
    run_scenario,
    run_verify,
    write_bessel,
    write_fixation,
    write_spectrum,
)
from .spectral import build_basis


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
    basis = build_basis(scenario.model, scenario.modes, scenario.grid)
    print(f"wrote {write_spectrum(scenario.out_dir, basis, args.csv)}")
    return 0


def _cmd_fixation(args):
    scenario = _scenario(args)
    profile = fixation_profile(scenario.model)
    print(f"wrote {write_fixation(scenario.out_dir, profile, scenario.grid)}")
    return 0


def _cmd_evolve(args):
    return run_scenario(_scenario(args))


def _cmd_verify(args):
    status = run_verify(_scenario(args))
    print("verify:", "PASS" if status == 0 else "FAIL (see verify.json)")
    return status


def _cmd_bessel(args):
    mode_list = []
    for item in args.bessel_modes.split(","):
        try:
            mode_list.append(int(item))
        except ValueError:
            raise ConfigError(f"--bessel-modes: {item!r} is not a mode index") from None
    scenario = _scenario(args)
    n_modes = max(scenario.modes, max(mode_list) + 1)
    basis = build_basis(scenario.model, n_modes, scenario.grid)
    try:
        path = write_bessel(scenario.out_dir, scenario.model, basis, mode_list)
    except ValueError as exc:  # a mode outside the comparison's regime
        raise ConfigError(f"--bessel-modes: {exc}") from None
    print(f"wrote {path}")
    return 0


@functools.cache  # one parser per process: main may run many times in one
def build_parser():
    parser = argparse.ArgumentParser(
        prog="kimdiff",
        description="Degenerate forward-equation solver with absorbing "
        "endpoint masses: spectral route, fixation probabilities, and a "
        "finite-difference cross-check.",
    )
    # the flags every scenario subcommand shares; a flag's number is read like
    # the config value it replaces, by the config reader
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config JSON")
    common.add_argument("--out", help="output directory")
    for name in DEFAULTS:
        common.add_argument(f"--{name}", type=float, help=f"override config key {name}")
    for name in DEFAULT_TOLERANCES:
        flag = name.replace("_", "-")
        common.add_argument(f"--tol-{flag}", type=float, help=f"{flag} tolerance")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in [
        ("spectrum", _cmd_spectrum, "eigenvalues, mode masses, diagnostics"),
        ("fixation", _cmd_fixation, "fixation probability on grid + 1 points, as CSV"),
        ("evolve", _cmd_evolve, "run a scenario end to end"),
        ("verify", _cmd_verify, "spectral vs finite-difference verdict"),
        ("bessel-check", _cmd_bessel, "endpoint asymptotics comparison"),
    ]:
        sub.add_parser(command, parents=[common], help=help_text).set_defaults(func=func)
    sub.choices["spectrum"].add_argument("--csv", action="store_true",
                                         help="also dump eigenfunction samples")
    sub.choices["bessel-check"].add_argument("--bessel-modes", default="4,8,16",
                                             help="comma-separated mode indices")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:  # a ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a resolution whose arrays cannot be allocated
        print(f"error: {str(exc) or 'out of memory'}; lower modes, grid or cells",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
