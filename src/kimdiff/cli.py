"""Command-line entry points.

Subcommands: evolve, verify; each runs the scenario file given by --config.
Exit codes: 0 success, 1 input or usage error, 2 invariant tolerance violated.
"""

import argparse
import functools
import sys

from .scenario import load_scenario, run_scenario, run_verify


def _cmd_evolve(args):
    return run_scenario(load_scenario(args.config, args.out))


def _cmd_verify(args):
    status = run_verify(load_scenario(args.config, args.out))
    print("verify:", "PASS" if status == 0 else "FAIL (see verify.json)")
    return status


@functools.cache  # one parser per process: main may run many times in one
def build_parser():
    parser = argparse.ArgumentParser(
        prog="kimdiff",
        description="Degenerate forward-equation solver with absorbing "
        "endpoint masses: spectral route, fixation probabilities, and a "
        "finite-difference cross-check.",
    )
    # every scenario value is a config key; --out only relocates the artifacts
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario config JSON")
    common.add_argument("--out", help="output directory, in place of the config's out")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in [
        ("evolve", _cmd_evolve, "run a scenario end to end"),
        ("verify", _cmd_verify, "spectral vs finite-difference verdict"),
    ]:
        sub.add_parser(command, parents=[common], help=help_text).set_defaults(func=func)
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
