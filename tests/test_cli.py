"""The command line: every test runs cli.main or python -m kimdiff.cli.

Two tables hold the outcomes of whole runs, one harness each.  EXITS_ONE
lists the inputs on which a command exits 1 with one error line naming what
it needs, nothing on stdout, no traceback and no file made.  EXITS_ZERO is
the regression table of configs that pass: each row runs its commands,
which exit 0 with no violation, and hands the artifacts, JSON strictly
parsed, to the row's check.  A fix adds its probe to one of the two with
its exact outcome.  Each row names the test it is collected as, so that a
row keeps the test id it had as a test function of its own.
"""

import csv
import json
import os
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import decay_bound_constants, demo_config

import kimdiff
from kimdiff import _csvtext, cli, evolution, fixation, scenario
from kimdiff._quadrature import gauss01
from kimdiff.cli import main
from kimdiff.fixation import FixationProfile
from kimdiff.scenario import ConfigError, load_scenario

ROOT = Path(__file__).resolve().parents[1]
# the shipped configs' results, written by tests/reference/make.py
SHIPPED = json.loads((ROOT / "tests" / "reference" / "shipped.json").read_text())


def _python(*args, check=False):
    """Run python with the package under test on its path."""
    src = Path(kimdiff.__file__).parents[1]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check,
                          env={**os.environ, "PYTHONPATH": str(src)})


def _finite_json(path):
    """Parse a JSON artifact, failing on Infinity and NaN."""
    def reject(constant):
        raise AssertionError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def _read_rows(path):
    """The rows of a CSV artifact, each a dict of floats by column."""
    with open(path) as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


def _tests(run, rows):
    """The test functions of a table of (name, id, *values) rows: one per name,
    which runs run(tmp_path, monkeypatch, capsys, *values) on each of its rows
    under the row's id, or with no id if it has one row and that row none."""
    tests = {}
    for name in dict.fromkeys(row[0] for row in rows):
        params = [pytest.param(values, id=row_id) for each, row_id, *values in rows if each == name]
        if params[0].id is None:
            def test(tmp_path, monkeypatch, capsys, values=params[0].values[0]):
                run(tmp_path, monkeypatch, capsys, *values)
        else:
            @pytest.mark.parametrize("values", params)
            def test(tmp_path, monkeypatch, capsys, values):
                run(tmp_path, monkeypatch, capsys, *values)
        tests[name] = test
    # globals().update would silently replace a test of the same name
    shadowed = sorted(tests.keys() & globals().keys())
    assert not shadowed, f"table tests shadow {shadowed}"
    return tests


def test_determinism(tmp_path):
    path, trees = demo_config(tmp_path), []
    for root in (tmp_path / "o1", tmp_path / "o2"):
        assert main(["evolve", "--config", str(path), "--out", str(root)]) == 0
        trees.append({str(p.relative_to(root)): p.read_bytes()
                      for p in root.rglob("*") if p.is_file()})
    assert {"spectrum.json", "fixation.csv", "evolution.csv", "summary.json",
            "profiles/q_t0.1.csv", "profiles/q_t2.csv"} <= trees[0].keys()
    assert trees[0] == trees[1]
    summary = json.loads(trees[0]["summary.json"])
    assert summary["a_inf"] == pytest.approx(0.5, abs=1e-9)
    assert summary["b_inf"] == pytest.approx(0.5, abs=1e-9)
    assert summary["violations"] == []
    assert json.loads(trees[0]["spectrum.json"])["lambda"][0] == pytest.approx(2.0, rel=1e-6)


def _flat(value):
    """The initial block of a density equal to value on [0, 1], whose mass it is."""
    return {"density": {"x": [0, 1], "values": [value, value]}}


def _steep():
    """The initial block of samples from 1e307 down to 0 over [0, 0.01]: the
    slope between them, -1e309, passes the double range; the mass is 5e304."""
    return {"density": {"x": [0, 0.01, 1], "values": [1e307, 0, 0]}}


DEFAULT_RESOLUTION = {"modes": None, "grid": None, "cells": None}
DEMO = "<demo config>"  # a command line's stand-in for the demo config's path
TMP = "<tmp>"  # and for the test's directory, under which a row's files are made
CMD = "<command>"  # and for the command, which a row runs as each of its commands
INPUT_ERRORS = "test_cli_input_errors_exit_one_without_traceback"
EVOLVE, VERIFY, BOTH = ("evolve",), ("verify",), ("evolve", "verify")


def _exits_one(label, config, message, fresh=False, commands=("verify",), name=INPUT_ERRORS):
    """A row of EXITS_ONE, whose id is label-message with the first command in
    place of CMD, or none if label is None.  A tuple config is a command line,
    led by a dict of the files to make first (None for a directory); a dict
    is laid over the demo config, and text is the config file.  The row runs
    once per command, in a new interpreter through python -m kimdiff.cli if
    fresh, else through cli.main."""
    row_id = None if label is None else f"{label}-{message.replace(CMD, commands[0])}"
    return name, row_id, config, message, fresh, commands


def _malformed(number, field, extra, detail="", commands=("verify",)):
    """A row of EXITS_ONE whose config names field; its id is field-extra<number>."""
    return ("test_malformed_field_exits_one_and_names_it", f"{field}-extra{number}", extra,
            f"config field '{field}'{detail}", False, commands)


def _kimura_bump(beta):
    """Kimura eta = 0 with bump(0.5, 0.3) data at the default resolution."""
    return {"model": {"preset": "kimura", "eta": 0.0, "beta": beta},
            "initial": {"density": "bump(0.5, 0.3)"}, **DEFAULT_RESOLUTION}


# (initial, times, first safe time, estimate): 64 modes fail at t = 0.001, and 256 pass
EARLY_TIMES = [
    ({"atoms": [[0.3, 1.0]]}, [0.001, 0.1, 1.0], 0.1, "6.09e+00"),
    # symmetric data: the last mode is 0, the one before it is not
    ({"density": "bump(0.5,0.01)"}, [0.001, 0.5, 1.0], 0.5, "6.29e+00"),
]

EXITS_ONE = [
    # the gates' thresholds are constants: a tolerances object is an unknown key
    _malformed(0, "tolerances", {"tolerances": {"fd_l1": 1e-3}}),
    _malformed(2, "modes", {"modes": "many"}),
    _malformed(3, "grid", {"grid": "fine"}),
    _malformed(4, "cells", {"cells": [256]}),
    # the smoothness index and the FD step are not settable: the D_1 norm, the cell width
    _malformed(5, "s", {"s": 1.0}),
    _malformed(8, "times", {"times": [0.1, "later"]}),
    _malformed(9, "dt", {"dt": 0.001}),
    # Psi dips to 1e-5: xi = Pi / Psi peaks too sharply for the Xi table
    _malformed(11, "model.psi/pi", {"model": {"psi": [0.05001, -0.2, 0.2], "pi": [1, 3]}}),
    _malformed(12, "times", {"times": [1.0]}),
    _malformed(56, "times", {"times": [1.0, 0.5]}),
    _malformed(13, "times", {"times": [0.1, float("nan")]}),
    _malformed(14, "times", {"times": [0.1, float("inf")]}),
    # 1.0 and 1.0000001 would both write profiles/q_t1.csv
    _malformed(15, "times", {"times": [0.5, 1.0, 1.0000001, 2.0], "modes": 16, "grid": 256,
                             "cells": 128}),
    # a negative sample between samples 1e-5 apart, which no probe grid meets
    _malformed(16, "initial", {"initial": {"density": {
        "x": [0, 0.50001, 0.50002, 0.50003, 1], "values": [1, 1, -5, 1, 1]}}}),
    # integer fields are finite, integral and not booleans
    _malformed(17, "modes", {"modes": float("inf")}),
    _malformed(18, "grid", {"grid": float("inf")}),
    _malformed(19, "cells", {"cells": float("inf")}),
    _malformed(21, "modes", {"modes": True}),
    _malformed(22, "modes", {"modes": 64.5}),
    # every block knows its keys, including the keys of the chosen model form
    _malformed(23, "mdoes", {"mdoes": 256}),
    _malformed(24, "model.bta", {"model": {"preset": "kimura", "bta": 5}}),
    _malformed(25, "model.psi", {"model": {"preset": "kimura", "psi": [1.0]}}),
    _malformed(26, "model.preset", {"model": {"preset": "wright", "beta": 1.0}}),
    _malformed(27, "initial.atom", {"initial": {"atom": [[0.5, 1]]}}),
    _malformed(28, "initial.density.weights", {"initial": {"density": {
        "x": [0, 1], "values": [1, 1], "weights": [1, 1]}}}),
    _malformed(29, "initial.density", {"initial": {"density": 5}}),
    _malformed(30, "initial", {"initial": {"density": "bump(0.5, 0)"}}),
    # every config number goes through the one reader
    _malformed(31, "schema", {"schema": True}),
    _malformed(32, "times", {"times": [True, 2]}),
    _malformed(33, "model.eta", {"model": {"preset": "kimura", "eta": "2"}}),
    _malformed(34, "model.beta", {"model": {"preset": "kimura", "beta": True}}),
    _malformed(35, "model.beta", {"model": {"preset": "kimura", "beta": float("inf")}}),
    _malformed(36, "model.psi", {"model": {"psi": ["1"], "pi": [0.0]}}),
    _malformed(37, "model.pi", {"model": {"psi": [1.0], "pi": [False]}}),
    _malformed(38, "initial.a0", {"initial": {"a0": True, "density": "uniform"}}),
    _malformed(39, "initial.b0", {"initial": {"b0": "0.1", "density": "uniform"}}),
    _malformed(40, "initial.atoms", {"initial": {"atoms": [[0.5, True]]}}),
    _malformed(41, "initial.atoms", {"initial": {"atoms": [[0.5, 1.0, 2.0]]}}),
    _malformed(42, "initial.density.x", {"initial": {"density": {"x": [0, "1"],
                                                                 "values": [1, 1]}}}),
    _malformed(43, "initial.density.values", {"initial": {"density": {"x": [0, 1],
                                                                      "values": [1, True]}}}),
    _malformed(44, "name", {"name": 5}),
    # an object where a number or a string belongs is read, not laid over the default
    _malformed(46, "modes", {"modes": {"n": 256}}),
    _malformed(48, "out", {"out": {"dir": "x"}}),
    _malformed(49, "name", {"name": {}}),
    _malformed(50, "tolerances", {"tolerances": 5}),
    # Psi = (x - 0.50005)^2 - 1e-10 is negative on an interval of width 2e-5 only
    _malformed(51, "model.psi/pi", {"model": {"psi": [0.50005**2 - 1e-10, -1.0001, 1.0],
                                              "pi": [0.0]}}),
    # the config reader alone holds the grid's floor: build_basis takes no grid,
    # and the grid only samples fixation.csv
    _malformed(52, "grid", {"grid": 32}, ": must be at least 64", ("evolve", "verify")),
    _malformed(53, "schema", {"schema": 99}),
    _malformed(54, "times", {"times": []}),
    _exits_one("[1, 2]", "[1, 2]", "config field 'top level': expected an object"),
    _exits_one("config2", {"out": 5}, "config field 'out': expected a string"),
    # every scenario value is a config key: a flag for one is unknown
    _exits_one("config3", ("evolve", "--config", DEMO, "--modes", "32"),
               "unrecognized arguments: --modes 32"),
    _exits_one("config4", ("verify", "--config", DEMO, "--tol-fd-l1", "1e-3"),
               "unrecognized arguments: --tol-fd-l1 1e-3"),
    _exits_one("config6", (), "the following arguments are required: command", fresh=True),
    # an --out that names a file, or a path under one
    _exits_one("config7", ("evolve", "--config", DEMO, "--out", DEMO),
               f"config field 'out': cannot create directory {DEMO}: File exists"),
    # deleted subcommands: evolve writes spectrum.json and fixation.csv, demo 02
    # eigenfunctions.csv, demo 05 bessel.json and demo 06 the former plot's figures
    _exits_one("config8", ("spectrum",), "invalid choice: 'spectrum'"),
    _exits_one("config9", ("fixation",), "invalid choice: 'fixation'"),
    _exits_one("config10", ("bessel-check",), "invalid choice: 'bessel-check'"),
    _exits_one("config20", ("plot", "--results", TMP), "invalid choice: 'plot'"),
    _exits_one("config11", ("verify", "--config", DEMO, "--out", f"{DEMO}/sub"),
               f"config field 'out': cannot create directory {DEMO}/sub: Not a directory"),
    # a config path that is a directory, under a file, or not text
    _exits_one("config12", ("evolve", "--config", "."), "cannot read config .: Is a directory"),
    _exits_one("config13", ("evolve", "--config", f"{DEMO}/x"),
               f"cannot read config {DEMO}/x: Not a directory"),
    _exits_one('{"schema": 1\xff}', b'{"schema": 1\xff}', "is not UTF-8 text: invalid start byte"),
    # an artifact path that is a directory; the files written before the
    # failed one are removed
    _exits_one("config15", ({"out/spectrum.json": None}, "evolve", "--config", DEMO),
               f"config field 'out': cannot write {TMP}/out/spectrum.json: Is a directory"),
    _exits_one("config16", ({"out/verify.json": None}, "verify", "--config", DEMO),
               f"config field 'out': cannot write {TMP}/out/verify.json: Is a directory"),
    # a file where the profiles directory belongs: every directory is made
    # before the first artifact is written
    _exits_one(None, ({"out/profiles": ""}, "evolve", "--config", DEMO),
               f"config field 'out': cannot create directory {TMP}/out/profiles: File exists",
               name="test_file_in_place_of_the_profiles_directory_exits_one"),
    # an --out that no directory can have: the writer makes each artifact's
    # directory, and maps any error in making it to one naming 'out'
    _exits_one("config22", ("evolve", "--config", DEMO, "--out", f"{TMP}/{'a' * 300}"),
               f"config field 'out': cannot create directory {TMP}/{'a' * 300}: "
               "File name too long"),
    _exits_one("config23", ("evolve", "--config", DEMO, "--out", f"{TMP}/x/{'b' * 300}/y"),
               f"config field 'out': cannot create directory {TMP}/x/{'b' * 300}: "
               "File name too long"),
    # petabyte arrays pass no address space, so these fail at once, allocating nothing
    _exits_one("config24", {"grid": 1e17}, "error: Unable to allocate 711. PiB for an array"),
    _exits_one("config25", {"modes": 1e15}, "; lower modes, grid or cells\n"),
    # an empty out, say from an unset shell variable, would name the working directory
    _exits_one("config26", {"out": ""}, "config field 'out': expected a non-empty path"),
    _exits_one("config27", ("evolve", "--config", DEMO, "--out", ""),
               "config field 'out': expected a non-empty path"),
    # every command runs one scenario file
    _exits_one("config28", (CMD,), "the following arguments are required: --config",
               commands=("evolve", "verify")),
    # the last artifact: spectrum.json, fixation.csv, evolution.csv and the
    # profiles are written before it, and removed again
    _exits_one("config30", ({"out/summary.json": None}, "evolve", "--config", DEMO),
               f"config field 'out': cannot write {TMP}/out/summary.json: Is a directory"),
    _exits_one("config31", ({"tol.json": '{"schema": 1, "tolerances": {"fd_l1": 1e-3}}'},
                            "evolve", "--config", f"{TMP}/tol.json"),
               "config field 'tolerances': unknown key"),
    # a mass whose series and trapezoid sums pass the double range: verify
    # passed with NaN gaps, evolve wrote a NaN slope
    _exits_one("config32", {"initial": _flat(1.7e308), **DEFAULT_RESOLUTION},
               "config field 'initial': total initial mass must be positive and at most "
               "1.12e+307, got 1.7e+308"),
    # evolve passes this mass; the FD cell sums, about mass x cells, would
    # pass the double range and wrote Infinity into verify.json
    _exits_one("config34", {"initial": _flat(1e306), **DEFAULT_RESOLUTION},
               "error: initial: interior mass 1e+306 passes 1.71e+302, the most the "
               "finite-difference sums hold at cells=1024\n"),
    # samples whose slope passes the double range: evolve passes (EXITS_ZERO's
    # finite-norm rows), and the FD sums cannot hold the mass
    _exits_one("config35", {"initial": _steep(), "times": [0.1, 1], **DEFAULT_RESOLUTION},
               "error: initial: interior mass 5e+304 passes 1.71e+302, the most the "
               "finite-difference sums hold at cells=1024\n"),
    # a mass whose gate thresholds, down to 1e-8 of it, underflow: both
    # commands exited 2 on roundoff gaps
    _exits_one("config36", {"initial": _flat(1e-316)},
               "config field 'initial': total initial mass must be at least 9.33e-302, "
               "got 1e-316", commands=("evolve", "verify")),
    # Psi = x - 2 is negative on all of [0, 1]
    _exits_one("config37", {"model": {"psi": [-2.0, 1.0], "pi": [0.0]}},
               "config field 'model.psi/pi': diffusion factor positivity violated",
               commands=("evolve",)),
    # 1e400 parses as inf; the model must not see it
    _exits_one("config38", '{"schema": 1, "model": {"preset": "kimura", "beta": 1e400}, '
                           '"times": [0.1, 1]}',
               "error: config field 'model.beta': expected a finite number, got inf\n"),
    # the message from the time on: the estimate is eigh's roundoff, which the BLAS sets
    *(("test_selection_past_roundoff_names_time_and_xi_range", f"{beta}-{xi_range}",
       _kimura_bump(beta), f"at t=0.1 exceeds 1e-06 of the initial mass: Xi ranges over "
       f"{xi_range} on [0, 1], and the eigenmodes grow like e^(Xi range / 2); the first safe "
       "requested time is t=0.5\n", False, BOTH)
      for beta, xi_range in [(150.0, "[0, 150]"), (200.0, "[0, 200]"), (-200.0, "[-200, 0]")]),
    # Psi dips to 0.005: the tables resolve Xi, but Xi spans about 200, so the
    # modes reach e^100 and rounding swamps the series at every requested time
    ("test_series_roundoff_exits_one_and_names_time", None,
     {"model": {"psi": [0.055, -0.2, 0.2], "pi": [1, 3]}},
     "at t=0.1 exceeds 1e-06 of the initial mass: Xi ranges over [0, 199.9] on [0, 1], and the "
     "eigenmodes grow like e^(Xi range / 2); no requested time is safe\n", False, BOTH),
    *(("test_early_time_exits_one_naming_modes", f"initial{k}-times{k}-{safe:g}-{estimate}",
       {"initial": initial, "times": times, **DEFAULT_RESOLUTION},
       f"error: series truncation estimate {estimate} at t=0.001 exceeds 1e-06 of the initial "
       f"mass: raise modes (modes=64); the first safe requested time is t={safe:g}\n", False,
       EVOLVE) for k, (initial, times, safe, estimate) in enumerate(EARLY_TIMES)),
]


def _run_exits_one(tmp_path, monkeypatch, capsys, config, message, fresh, commands):
    path = demo_config(tmp_path, **(config if isinstance(config, dict) else {}))
    if isinstance(config, dict):
        config = (CMD, "--config", DEMO)
    elif not isinstance(config, tuple):
        config = ({"text.json": config}, CMD, "--config", f"{TMP}/text.json")
    made, argv = (config[0], config[1:]) if config and isinstance(config[0], dict) else ({}, config)
    for name, text in made.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    for command in commands:
        def fill(text):
            return text.replace(DEMO, str(path)).replace(TMP, str(tmp_path)).replace(CMD, command)
        args = [fill(arg) for arg in argv]
        if fresh:  # a real process's output, through the module entry
            run = _python("-W", "error", "-m", "kimdiff.cli", *args)
            status, out, err = run.returncode, run.stdout, run.stderr
        else:  # a traceback would raise out of main
            status, (out, err) = main(args), capsys.readouterr()
        assert status == 1 and out == ""
        assert fill(message) in err and "Traceback" not in err
        # one error line, after argparse's usage where argparse raised it
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert err.count("\n") == 1 or err.startswith("usage:")
        # a run that fails leaves what was there: no file or directory that it made
        assert sorted(tmp_path.rglob("*")) == before


globals().update(_tests(_run_exits_one, EXITS_ONE))


def test_main_parses_each_call_alone(monkeypatch, capsys):
    # both commands take the same two flags, and the parser is built once per
    # process; what one call parsed does not leak into the next, of either command
    loaded = []

    def record(config, out):
        loaded.append((config, out))
        raise ConfigError("recorded")

    monkeypatch.setattr(cli, "load_scenario", record)
    calls = [("evolve", "a.json", "elsewhere"), ("verify", "b.json", None),
             ("verify", "c.json", "there"), ("evolve", "d.json", None)]
    for command, config, out in calls:
        assert main([command, "--config", config, *(("--out", out) if out else ())]) == 1
    assert loaded == [(config, out) for _, config, out in calls]
    assert capsys.readouterr().err == "error: recorded\n" * 4
    options = {option for action in cli.build_parser()._actions if action.dest == "command"
               for sub in action.choices.values() for each in sub._actions
               for option in each.option_strings}
    assert options == {"-h", "--help", "--config", "--out"}
    assert cli.build_parser() is cli.build_parser()


def _recorded(monkeypatch, owner, name, record):
    """Wrap owner.name so that each call appends record(args, result) to the
    list returned."""
    seen, original = [], getattr(owner, name)

    def wrapped(*args):
        result = original(*args)
        seen.append(record(args, result))
        return result

    monkeypatch.setattr(owner, name, wrapped)
    return seen


@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_commands_evaluate_only_what_they_write(tmp_path, monkeypatch, command):
    # both commands evaluate the series once, at the scenario times; the weak
    # form is checked at t = 0 from the coefficients.  Each builds psi's table
    # once, evaluates the limits once and psi twice: on the initial measure's
    # rule nodes for the limits, then on the solution grid; evolve samples psi
    # once more, for fixation.csv, and builds the identity table (the one
    # reader of the drift on the basis's nodes) for spectrum.json; verify does
    # neither.  evolve formats the floats of all its CSV files in one call, the
    # profiles' shared grid once; JSON floats are json's own text
    runs = _recorded(monkeypatch, evolution, "solutions_at", lambda args, result: result)
    limits = _recorded(monkeypatch, evolution, "limit_masses", lambda args, result: result)
    tables = _recorded(monkeypatch, fixation, "fixation_profile",
                       lambda args, result: (args[0], result))
    drifts = _recorded(monkeypatch, kimdiff.CoefficientModel, "drift", lambda args, result: args[1])
    psi_points = _recorded(monkeypatch, FixationProfile, "__call__",
                           lambda args, result: np.asarray(args[1]))
    formatted = _recorded(monkeypatch, _csvtext, "repr_fields", lambda args, result: len(args[0]))
    path = demo_config(tmp_path)
    assert main([command, "--config", str(path)]) == 0
    assert (len(runs), len(limits)) == (1, 1)
    basis, model = runs[0].coeffs.basis, runs[0].coeffs.basis.model
    assert len(tables) == 1 and tables[0][0] is model and tables[0][1] is model.fixation
    assert sum(np.array_equal(x, basis.quad_nodes) for x in drifts) == (command == "evolve")
    expected = [gauss01(64)[0], runs[0].grid]  # the uniform density's single panel, the grid
    if command == "evolve":
        expected.append(np.linspace(0.0, 1.0, 1025))
    assert len(psi_points) == len(expected)
    assert all(map(np.array_equal, psi_points, expected))
    times = len(load_scenario(path).times)
    # the grid, a profile per time, fixation.csv's two columns and evolution.csv's eight
    assert formatted == ([1026 * (1 + times) + 2 * 1025 + 8 * times]
                         if command == "evolve" else [])


_SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_cli_commands_load_scipy_only_where_needed(tmp_path):
    # every CLI call pays the import, and scipy would be most of it: neither
    # the import nor evolve loads it
    path = demo_config(tmp_path)
    out = tmp_path / "out"
    code = (
        "import sys; from kimdiff.cli import main; print(["
        f"main(['evolve', '--config', {str(path)!r}])]); "
        f"print({_SCIPY_LOADED})"
    )
    assert _python("-c", code, check=True).stdout.splitlines()[-2:] == ["[0]", "[]"]
    # the FD oracle loads scipy on first use
    _python("-m", "kimdiff.cli", "verify", "--config", str(path), check=True)
    verdict = json.loads((out / "verify.json").read_text())
    assert verdict["pass"]
    # one real limit solve, then 10 complex contour solves per time: the
    # neutral model takes the fewest contour nodes, 20
    assert [row["fd_solves"] for row in verdict["comparison"]] == [11, 21, 31, 41]


@pytest.mark.parametrize("times, cells", [
    pytest.param([0.1, 1e300], 128, id="1e300"),
    pytest.param([0.1, 1e308], 128, id="1e308"),
    pytest.param([0.1, 1e5], 256, id="1e5"),
])
def test_verify_far_output_times_exit_zero(tmp_path, times, cells):
    # the FD oracle takes no time steps: each time is one contour sum of 10
    # solves on this neutral model, after the one for its limits, so even
    # t = 1e308 costs what t = 1 does, in solves as in wall time
    path = demo_config(tmp_path, times=times, cells=cells)
    start = time.perf_counter()
    assert main(["verify", "--config", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    verdict = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert [row["t"] for row in verdict["comparison"]] == times
    assert [row["fd_solves"] for row in verdict["comparison"]] == [11, 21]


def test_overtight_tolerance_exits_two(tmp_path, monkeypatch):
    # the FD oracle is exact in time, and on the neutral leading mode its
    # gaps are roundoff's and the 20-node contour's, 4e-13 to 3e-12
    monkeypatch.setitem(scenario.TOLERANCES, "fd_l1", 1e-14)
    monkeypatch.setitem(scenario.TOLERANCES, "fd_ab", 1e-14)
    assert main(["verify", "--config", str(demo_config(tmp_path))]) == 2
    verdict = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert not verdict["pass"]
    assert any(v.startswith("spectral vs FD density gap")
               and v.endswith("exceeds 1.0e-14 x initial interior mass")
               for v in verdict["violations"])
    assert any(v.startswith("spectral vs FD boundary-mass gap")
               and v.endswith("exceeds 1.0e-14 x initial mass") for v in verdict["violations"])


def test_fd_gates_name_a_nan_gap(tmp_path, monkeypatch):
    # max(a_diff, b_diff) drops a NaN in b_diff; np.maximum keeps it
    def nan_gaps(fd_states, positive):
        return [scenario.fd.ComparisonRow(t, np.nan, 0.0, np.nan, 0) for t in positive.t]

    monkeypatch.setattr(scenario.fd, "compare_with_spectral", nan_gaps)
    path = demo_config(tmp_path, times=[0.1, 1.0])
    assert main(["verify", "--config", str(path)]) == 2
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["violations"] == [
        f"spectral vs FD {gap} nan at t={t} exceeds 1.0e-03 x initial {mass}"
        for t in ("0.1", "1") for gap, mass in (("density gap", "interior mass"),
                                                ("boundary-mass gap", "mass"))]


@pytest.mark.parametrize("model, trimmed", [
    # a top coefficient below 2^-53 of the largest moves no value on [0, 1],
    # but would overflow numpy's companion matrix when the roots are found
    pytest.param({"psi": [1], "pi": [1, 1, 1e-320]}, {"psi": [1], "pi": [1, 1]}, id="pi"),
    pytest.param({"psi": [1, 0, 1, 1e-320], "pi": [1]}, {"psi": [1, 0, 1], "pi": [1]}, id="psi"),
])
def test_negligible_top_coefficient_runs_as_the_trimmed_model(tmp_path, model, trimmed):
    # both commands exit 0 with warnings as errors, and write what the model
    # without the negligible coefficient writes
    for name, block in (("tiny", model), ("trimmed", trimmed)):
        path = demo_config(tmp_path, model=block, out=str(tmp_path / name),
                           initial={"density": "uniform"}, times=[0.1, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [main([command, "--config", str(path)])
                    for command in ("evolve", "verify")] == [0, 0]
    files = sorted(p.relative_to(tmp_path / "tiny") for p in (tmp_path / "tiny").rglob("*.*"))
    assert len(files) == 7
    for name in files:
        assert (tmp_path / "tiny" / name).read_bytes() == (tmp_path / "trimmed" / name).read_bytes()


def _projection_on_the_basis_rule(basis, init):
    """The projection before per-panel rules: for the density, the Gauss rule
    on [0, 1] of a basis of n_modes + 32 polynomials (232 nodes at 64 modes),
    the size every basis had then; exact mode values at the atoms."""
    def modes(x):
        return np.exp(-0.5 * basis.model.xi_integral(x))[:, None] * basis.mode_values(x)

    nodes, weights = gauss01(2 * (basis.n_modes + 32) + 40)
    values = (weights * init.density_samples(nodes)) @ modes(nodes)
    for x, mass in init.atoms:
        values = values + mass * modes(np.array([x]))[0]
    return evolution.SpectralCoefficients(values, basis, init)


@pytest.mark.parametrize("initial", [
    pytest.param({"density": "bump(0.5,0.01)"}, id="initial0"),
    pytest.param({"density": {"x": [0.2, 0.5, 0.8], "values": [1, 2, 1]}}, id="initial1"),
    pytest.param("atom_verify", id="atom_verify"),
])
def test_initial_term_gate_names_a_wrong_projection(tmp_path, monkeypatch, initial):
    # the mass, moment and route gates pass these coefficients; the initial
    # term of the weak form (1.6e-2, 3.2e-3 and 7.6e-8 of int chi_0) does not
    if initial == "atom_verify":
        path = ROOT / "bench" / "configs" / "atom_verify.json"
    else:
        path = demo_config(tmp_path, initial=initial, times=[0.1, 0.5, 1.0],
                           modes=None, grid=None, cells=None)
    monkeypatch.setattr(evolution, "project_initial", _projection_on_the_basis_rule)
    out = tmp_path / "old"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residuals"]["initial_residual"] > 1e-8
    [violation] = summary["violations"]
    assert violation.startswith("weak-form residual at t=0 ") and "'initial'" in violation



def _grid_read_as_an_integer(art):
    # "grid": 1e3 runs as "grid": 1000 does, and --help still exits 0
    assert 1 + len(_read_rows(art["fixation.csv"])) == 1 + 1001
    assert _python("-m", "kimdiff.cli", "--help").returncode == 0


def _profiles_q_t0_and_q_t1(art):
    assert {name for name in art if name.startswith("profiles/")} == {"profiles/q_t0.csv",
                                                                      "profiles/q_t1.csv"}


def _radon_counts_interior_atoms(art):
    # uniform density and an atom of mass 0.5: at t = 0 the measure lies a
    # distance of twice its interior mass 1.5 from the limit
    rows = _read_rows(art["evolution.csv"])
    radon = [row["radon_to_limit"] for row in rows]
    assert radon[0] == pytest.approx(3.0, abs=1e-12)
    assert radon[0] > radon[1] > radon[2]
    # the q_l1 column stays the density's norm
    assert rows[0]["q_l1"] == pytest.approx(1.0, abs=1e-12)


def _limit_constant(c_inf, art):
    # the leading term Q_0 c_0 of the interior mass, and no fit in the summary
    assert art["summary.json"]["C_inf"] == c_inf
    assert "slope" not in art["summary.json"]


def _decay_rate_from_what_is_left(art):
    # by t = 400 the density underflows to 0 (the suite runs with warnings as
    # errors): strict JSON in the summary, and the rows where q_l1 is left
    # still give the decay rate -lambda_0
    rows = [(row["t"], row["q_l1"]) for row in _read_rows(art["evolution.csv"])]
    t, l1 = np.array([row for row in rows if row[1] > 0.0]).T
    assert len(t) == 2
    assert np.polyfit(t, np.log(l1), 1)[0] == pytest.approx(-2.0, rel=1e-6)


def _one_mode(art):
    # one mode passes the truncation gate at late times, and no artifact reads
    # a second one: the decay bound's tail, which does, is spectrum.json's to form
    assert len(art["spectrum.json"]["lambda"]) == 1
    assert art["summary.json"]["smoothness"] == {"initial_norm": pytest.approx(1.0 / np.sqrt(3.0)),
                                                 "norm_time": 0.0}


def _neutral_uniform_exact(art):
    # Psi = 1, Pi = 0 and uniform data, the leading mode alone: q = e^(-2t) on
    # [0, 1], each end absorbs half of the interior mass lost, 1 - e^(-2t), and
    # lambda_j = (j + 1)(j + 2).  Every value is within 1e-12 of these (the
    # largest gap, 1.8e-13, is on the mass and radon columns and the
    # profiles); the t = 0 row holds the data exactly
    rows = _read_rows(art["evolution.csv"])
    t = np.array([row["t"] for row in rows])
    decay = np.exp(-t) ** 2  # e^(-2t), which does not overflow at t = 1e308
    exact = {"a": 0.1 + (1.0 - decay) / 2, "b": 0.05 + (1.0 - decay) / 2, "q_l1": decay,
             "mass_total": 1.15, "psi_mass": 0.55, "radon_to_limit": 2.0 * decay}
    for key, want in exact.items():
        np.testing.assert_allclose([row[key] for row in rows], want, rtol=0, atol=1e-12,
                                   err_msg=key)
    profiles = {time: [row["q"] for row in _read_rows(art[f"profiles/q_t{time:g}.csv"])]
                for time in t}
    for (time, profile), want in zip(profiles.items(), decay):
        np.testing.assert_allclose(profile, want, rtol=0, atol=1e-12, err_msg=f"q at t={time:g}")
    assert set(profiles[0.0]) == {1.0}
    assert (rows[0]["a"], rows[0]["b"], rows[0]["trunc_error"]) == (0.1, 0.05, 0.0)
    j = np.arange(24)
    np.testing.assert_allclose(art["spectrum.json"]["lambda"], (j + 1) * (j + 2), rtol=1e-12)
    summary, verdict = art["summary.json"], art["verify.json"]
    assert [summary[key] for key in ("a_inf", "b_inf", "C_inf")] == pytest.approx(
        [0.6, 0.55, 1.0], rel=0, abs=1e-12)
    assert summary["smoothness"] == {"initial_norm": pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12),
                                     "norm_time": 0.0}
    residuals = [*summary["residuals"].values(), *verdict["spectral_residuals"].values(),
                 verdict["fd_mass_drift"]]
    assert max(map(abs, residuals)) <= 1e-12


def _psi_min_first_gaps(art):
    # FD's a and b gaps read 1.1e-10 and 1.3e-12 at t = 0.1; the later ones
    # (up to 2.4e-7 in a at t = 2) fall fourfold per doubling of cells, FD's own
    first = art["verify.json"]["comparison"][0]
    assert first["t"] == 0.1
    assert max(first["a_diff"], first["b_diff"]) <= 1e-8


def _endpoint_roundoff(art):
    # the endpoint masses are inert, yet their roundoff reaches the route gap
    # (1.53e-5 at 1e11) and the FD boundary-mass gap (1.95e-3 at 1e13); both
    # gates scale with the initial mass, the density gap with the initial
    # interior mass, which the endpoint masses leave at 1
    verdict = art["verify.json"]
    assert verdict["spectral_residuals"]["route_agreement_max"] > 1e-5
    assert max(row["q_l1_diff"] for row in verdict["comparison"]) <= 1.5e-6


def _bump_left_by_t_half(art):
    assert art["verify.json"]["comparison"][0]["b_diff"] <= 1e-10


def _density_gap_of_atom(mass, art):
    # the problem is linear: the FD density gap of an atom at 0.5 is its mass
    # times that of a unit atom, 1.2778e-6 at t = 0.1, and the gate scales
    # with the mass
    gap = art["verify.json"]["comparison"][0]["q_l1_diff"]
    assert gap == pytest.approx(mass * 1.2778331e-6, rel=1e-6)


def _initial_residual(art):
    # the t = 0 row counts an atom through the initial measure itself
    for artifact, field in (("summary.json", "residuals"), ("verify.json", "spectral_residuals")):
        if artifact in art:
            residual = art[artifact][field]["initial_residual"]
            assert isinstance(residual, float) and 0.0 <= residual < 1e-11


def _initial_moments(limits, a_first, art):
    summary, rows = art["summary.json"], _read_rows(art["evolution.csv"])
    assert (summary["a_inf"], summary["b_inf"]) == pytest.approx(limits, abs=1e-11)
    assert [row["t"] for row in rows] == [0.1, 0.5, 1.0]
    assert all(row["a"] >= 0.0 and row["b"] >= 0.0 for row in rows)
    if a_first is not None:
        assert rows[0]["a"] == pytest.approx(a_first, abs=5e-10)


def _finite_norm(norm, art):
    assert art["summary.json"]["smoothness"]["initial_norm"] == pytest.approx(norm, rel=1e-13)


def _limits_hold_the_whole_mass(art):
    # a0, the bump's 1 and the atom's 0.3
    summary = art["summary.json"]
    assert summary["a_inf"] + summary["b_inf"] == pytest.approx(1.4, abs=1e-7)


def _psi_endpoints_exact_and_monotone(art):
    # fixation.csv pins psi(0) = 0 and psi(1) = 1
    x, psi = np.array([(row["x"], row["psi"]) for row in _read_rows(art["fixation.csv"])]).T
    assert np.array_equal(x, np.linspace(0.0, 1.0, 513))
    assert psi[0] == 0.0
    assert psi[-1] == 1.0
    assert np.all(np.diff(psi) > 0)
    assert np.all((psi >= 0) & (psi <= 1))


# rows (name, id, overlay, commands, check): overlay is laid over the demo config
EXITS_ZERO = [
    ("test_integral_float_grid_reads_as_an_integer", None, {"grid": 1e3}, EVOLVE,
     _grid_read_as_an_integer),
    ("test_negative_zero_time_names_its_profile_q_t0", None,
     {"times": [-0.0, 1.0], "modes": 16, "grid": 256, "cells": 128}, EVOLVE,
     _profiles_q_t0_and_q_t1),
    ("test_radon_to_limit_at_time_zero_counts_interior_atoms", None,
     {"initial": {"density": "uniform", "atoms": [[0.3, 0.5]]}, "times": [0.0, 0.1, 1.0],
      **DEFAULT_RESOLUTION}, EVOLVE, _radon_counts_interior_atoms),
    # no interior mass: no leading-mode content
    ("test_boundary_masses_only_write_zero_limit_constant", None,
     {"initial": {"a0": 0.3, "b0": 0.7}}, EVOLVE, partial(_limit_constant, 0.0)),
    # Q_0 c_0 needs no second time: the uniform density's is 1
    ("test_one_positive_time_writes_the_limit_constant", None, {"times": [0.0, 1.0]}, EVOLVE,
     partial(_limit_constant, pytest.approx(1.0, abs=1e-9))),
    ("test_fully_decayed_times_write_valid_json", None, {"times": [0.1, 1.0, 400.0]}, EVOLVE,
     _decay_rate_from_what_is_left),
    ("test_one_mode_passes_both_commands", None,
     {"modes": 1, "times": [20, 50], "grid": None, "cells": None}, BOTH, _one_mode),
    # t = 1e308 takes the path of t = inf, e^(-lambda t) = 0, with no overflow
    # warning, which the suite would raise as an error
    ("test_neutral_uniform_matches_its_exact_solution", None,
     {"initial": {"a0": 0.1, "b0": 0.05, "density": "uniform"},
      "times": [0.0, 1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 20.0, 1e308]}, BOTH,
     _neutral_uniform_exact),
    # Psi = 0.255 - x + x^2, least 0.005 at x = 1/2, on the selection_bump demo
    # data at 64 modes: at N = modes + 32 its density dipped to -1.4e-5 at
    # t = 0.1 (exit 2); the Galerkin size now grows to the ceiling N = 320
    ("test_psi_min_model_passes_both_commands", None,
     {"model": {"psi": [0.255, -1, 1], "pi": [0]}, "initial": {"density": "bump(0.4, 0.2)"},
      "modes": 64, "grid": None, "cells": None}, BOTH, _psi_min_first_gaps),
    *(("test_large_endpoint_mass_passes_both_commands", str(a0),
       {"initial": {"a0": a0, "density": "uniform"}, **DEFAULT_RESOLUTION}, BOTH,
       _endpoint_roundoff) for a0 in (1e11, 1e13)),
    # beta = 120 on 128 cells: the mesh passes the cell-Peclet check, so the
    # FD operator is monotone and e^(tL) keeps the density nonnegative; by
    # t = 0.5 the bump has left for x = 1 on both routes
    ("test_boundary_layer_on_128_cells_verifies", None,
     {**_kimura_bump(120.0), "times": [0.5, 1], "cells": 128}, BOTH, _bump_left_by_t_half),
    *(("test_interior_mass_scales_the_density_gate", f"atom-mass-{mass:g}",
       {"initial": {"atoms": [[0.5, mass]]}, "times": [0.1, 1], **DEFAULT_RESOLUTION}, VERIFY,
       partial(_density_gap_of_atom, mass)) for mass in (50.0, 1000.0)),
    *(("test_interior_atom_with_one_positive_time_passes", command,
       {"times": [0.0, 1.0], "initial": {"atoms": [[0.3, 1.0]]}, **DEFAULT_RESOLUTION},
       (command,), _initial_residual) for command in BOTH),
    *(("test_initial_moments_verify_at_default_resolution", row_id,
       {"initial": {"density": density}, "times": [0.1, 0.5, 1.0], **DEFAULT_RESOLUTION}, BOTH,
       partial(_initial_moments, limits, a_first)) for row_id, density, limits, a_first in [
          # linear between the samples: b_inf is the exact first moment 241/600
          ("density0-limits0-None", {"x": [0, 0.3, 0.6, 1], "values": [0, 2, 1, 0]},
           (329 / 600, 241 / 600), None),
          # zero outside the samples, so the mass is 0.9
          ("density1-limits1-None", {"x": [0.2, 0.5, 0.8], "values": [1, 2, 1]}, (0.45, 0.45),
           None),
          # a narrow bump: FD Richardson from 2048 and 4096 cells gives a(0.1) = 1.66507e-3
          ("bump(0.5,0.01)-limits2-0.001665073", "bump(0.5,0.01)", (0.5, 0.5), 1.665073e-3),
          # narrower than a cell: sampled at the FD's cell centres they lost their
          # mass, and verify exited 2 on density gaps up to 1 at t = 0.1
          ("bump-on-a-face", "bump(0.5, 0.0001)", (0.5, 0.5), None),
          ("box-in-a-cell", {"x": [0.5, 0.5001], "values": [1e4, 1e4]}, (0.49995, 0.50005),
           None),
          ("bump-across-a-face", "bump(0.3, 0.0004)", (0.7, 0.3), None)]),
    *(("test_large_mass_writes_a_finite_norm", row_id, {"initial": initial, "grid": None, **extra},
       EVOLVE, partial(_finite_norm, norm)) for row_id, initial, extra, norm in [
          # the norm is taken at t = 0.1, so the atom's terms decay
          ("atom", {"atoms": [[0.5, 1e200]]}, {"times": [0.1, 1], "modes": None},
           9.402937236948766e199),
          # the squares of the terms would pass the double range
          ("sampled", {"density": {"x": [0, 0.45, 0.55, 1], "values": [1e307, 1e307, 0, 0]}},
           {"model": {"preset": "kimura", "eta": 1.0, "beta": -0.5}, "modes": 256,
            "times": [0.01, 1]}, 9.369107652598404e306),
          # 1/sqrt(3) of the mass: evolve holds it, verify exits 1 (EXITS_ONE)
          ("flat", _flat(1e306), {"times": [0.1, 1], "modes": None, "cells": None},
           1e306 / np.sqrt(3.0)),
          # verify exits 1 on the FD sums (EXITS_ONE)
          ("steep", _steep(), {"times": [0.1, 1], "modes": None}, 5.30991491087243e305)]),
    ("test_scenario_config_with_selection_and_atoms", None,
     {"name": "selection-bump", "model": {"preset": "kimura", "eta": 1.0, "beta": -0.5},
      "initial": {"a0": 0.1, "b0": 0.0, "density": "bump(0.4, 0.2)", "atoms": [[0.7, 0.3]]}},
     EVOLVE, _limits_hold_the_whole_mass),
    *(("test_strong_selection_verifies_at_default_resolution", str(beta), _kimura_bump(beta),
       VERIFY, None) for beta in (40.0, -40.0, 60.0, -60.0, 100.0, -100.0)),
    *(("test_early_time_passes_at_256_modes", f"initial{k}",
       {"initial": initial, "times": times, **DEFAULT_RESOLUTION, "modes": 256}, EVOLVE, None)
      for k, (initial, times, _, _) in enumerate(EARLY_TIMES)),
    # a Kimura scenario whose fixation.csv holds psi at grid + 1 points
    ("test_endpoints_exact_and_monotone", None,
     {"model": {"preset": "kimura", "eta": 1.5, "beta": -0.7}, "times": [0.1, 1.0],
      "modes": 16, "grid": 512, "cells": None}, EVOLVE, _psi_endpoints_exact_and_monotone),
]


def _run_exits_zero(tmp_path, monkeypatch, capsys, overlay, commands, check):
    path, out = demo_config(tmp_path, **overlay), tmp_path / "out"
    for command in commands:
        assert main([command, "--config", str(path)]) == 0
    # every artifact by its path under out: JSON parsed, failing on Infinity
    # and NaN; a CSV file as its path, which a check reads with _read_rows
    art = {str(p.relative_to(out)): _finite_json(p) if p.suffix == ".json" else p
           for p in sorted(out.rglob("*")) if p.is_file()}
    for command in commands:
        assert art[{"evolve": "summary.json", "verify": "verify.json"}[command]]["violations"] == []
    if check is not None:
        check(art)


globals().update(_tests(_run_exits_zero, EXITS_ZERO))


@pytest.mark.parametrize("config", ["bench/configs/atom_verify", "bench/configs/fd_verify",
                                    "bench/configs/spectral_evolve",
                                    "demos/configs/neutral_uniform",
                                    "demos/configs/selection_bump"])
def test_shipped_configs_write_strict_json(tmp_path, config):
    # json writes NaN and Infinity, which strict parsers reject; the benchmark
    # counts a call as failed on any exit other than 0 or any listed violation
    reference = SHIPPED[config]
    path = ROOT / f"{config}.json"
    for command in ("evolve", "verify"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    summary, verdict, spectrum = (_finite_json(tmp_path / name)
                                  for name in ("summary.json", "verify.json", "spectrum.json"))
    assert summary["violations"] == verdict["violations"] == []
    # the artifacts hold what the run computes and checks, and nothing that
    # evolution.csv and spectrum.json already give
    assert set(summary) == {"schema", "name", "residuals", "tolerances", "violations",
                            "a_inf", "b_inf", "C_inf", "smoothness"}
    assert set(summary["smoothness"]) == {"initial_norm", "norm_time"}
    assert set(spectrum) == {"lambda", "Q", "identity_residuals"}
    assert set(verdict) == {"schema", "name", "spectral_residuals", "tolerances",
                            "violations", "comparison", "fd_mass_drift", "pass"}
    assert summary["residuals"]["initial_residual"] < 1e-11
    # the FD's initial mass is exact but for the spectral rule's 2e-12 on the bumps
    assert verdict["fd_mass_drift"] <= 1e-10
    if config.startswith("bench/"):
        # the FD oracle is exact in time, so the gaps are its mesh's error:
        # 1.3e-11 on the neutral data and 1.4e-6 on the bumps.  It solves once
        # for its limits and N / 2 times per output time, N = 20 contour nodes
        # on the neutral model and 22 on Kimura (1, -0.5): 11 to t = 0.1 and
        # 51 to t = 3 (fd_verify's last time), 12 and 45 to t = 2
        rows = verdict["comparison"]
        assert max(row["q_l1_diff"] for row in rows) <= (1e-7 if "fd_" in config else 3e-6)
        assert [rows[0]["fd_solves"], rows[-1]["fd_solves"]] == (
            [11, 51] if "fd_" in config else [12, 45])
    # the committed results (tests/reference/make.py): each evolution.csv
    # column and the lowest ten eigenvalues within 1e-10 of their largest
    # magnitude, and the residuals, mass gaps near roundoff, within 1e-10 of
    # the mass column's
    with open(tmp_path / "evolution.csv") as fh:
        table = list(csv.DictReader(fh))
    got = {key: [float(row[key]) for row in table] for key in reference["columns"]}
    got["lambda"] = spectrum["lambda"][:len(reference["lambda"])]
    for key, want in [*reference["columns"].items(), ("lambda", reference["lambda"])]:
        np.testing.assert_allclose(got[key], want, rtol=0, atol=1e-10 * np.max(np.abs(want)),
                                   err_msg=key)
    keys = sorted(reference["residuals"])
    np.testing.assert_allclose([summary["residuals"][key] for key in keys],
                               [reference["residuals"][key] for key in keys],
                               rtol=0, atol=1e-10 * np.max(reference["columns"]["mass_total"]))
    # the decay theorem, radon(t) <= 2 e^(-lambda_0 (t - norm_time)) ||mu||_D1 (C + tail)
    # from the norm's time on, with lambda_0, C and tail from spectrum.json;
    # the largest ratio is 0.94, on the neutral configs
    smoothness = summary["smoothness"]
    c0, tail = decay_bound_constants(spectrum["lambda"], spectrum["Q"])
    assert 0.0 < tail < c0
    rows = [row for row in table
            if float(row["t"]) > 0.0 and float(row["t"]) >= smoothness["norm_time"]]
    assert rows
    for row in rows:
        bound = (2.0 * np.exp(-spectrum["lambda"][0] * (float(row["t"]) - smoothness["norm_time"]))
                 * smoothness["initial_norm"] * (c0 + tail))
        assert float(row["radon_to_limit"]) <= bound


def test_atom_data_take_the_norm_at_the_first_positive_time(tmp_path):
    # an atom's D_1 norm is infinite, and its truncation grew with the modes
    # (13.84, 37.24 and 101.71 at 32, 64 and 128); from t = 0.1 on it converges
    path = ROOT / "bench" / "configs" / "atom_verify.json"
    norms = []
    for modes in (64, 128):
        out, config = tmp_path / str(modes), tmp_path / f"{modes}.json"
        config.write_text(json.dumps({**json.loads(path.read_text()), "modes": modes}))
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        smoothness = _finite_json(out / "summary.json")["smoothness"]
        assert smoothness["norm_time"] == 0.1
        norms.append(smoothness["initial_norm"])
    assert norms[1] == pytest.approx(norms[0], rel=1e-8)
