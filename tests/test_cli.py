import csv
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import kimdiff
from kimdiff import evolution, scenario
from kimdiff._quadrature import gauss01
from kimdiff.cli import main
from kimdiff.fixation import FixationProfile
from kimdiff.scenario import (
    ConfigError,
    emit_plot_data,
    load_scenario,
    run_scenario,
)


def demo_config(tmp_path, **extra):
    cfg = {
        "schema": 1,
        "name": "neutral-uniform",
        "model": {"preset": "kimura", "eta": 0.0, "beta": 0.0},
        "initial": {"a0": 0.0, "b0": 0.0, "density": "uniform", "atoms": []},
        "times": [0.1, 0.5, 1.0, 2.0],
        "modes": 24,
        "grid": 1024,
        "cells": 256,
        "out": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_scenario_demo(tmp_path):
    path = demo_config(tmp_path)
    status = run_scenario(load_scenario(path))
    assert status == 0
    out = tmp_path / "out"
    for name in ("spectrum.json", "fixation.csv", "evolution.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["a_inf"] == pytest.approx(0.5, abs=1e-9)
    assert summary["b_inf"] == pytest.approx(0.5, abs=1e-9)
    assert summary["violations"] == []
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert spectrum["lambda"][0] == pytest.approx(2.0, rel=1e-6)
    # per-time density profiles
    assert (out / "profiles" / "q_t0.1.csv").exists()


def test_invalid_psi_exits_one(tmp_path, capsys):
    path = demo_config(tmp_path, model={"psi": [-2.0, 1.0], "pi": [0.0]})
    status = main(["evolve", "--config", str(path)])
    assert status == 1
    assert "positivity" in capsys.readouterr().err


def test_malformed_config_reports_field(tmp_path):
    path = demo_config(tmp_path, times=[])
    with pytest.raises(ConfigError, match="times"):
        load_scenario(path)
    path2 = demo_config(tmp_path, schema=99)
    with pytest.raises(ConfigError, match="schema"):
        load_scenario(path2)
    path3 = demo_config(tmp_path, times=[0.5, 1.0, 1.0000001, 2.0])
    with pytest.raises(ConfigError, match=r"1\.0 and 1\.0000001 share .*q_t1\.csv"):
        load_scenario(path3)


@pytest.mark.parametrize("field, extra", [
    ("tolerances.mass_drfit", {"tolerances": {"mass_drfit": 1.0}}),
    ("tolerances.fd_l1", {"tolerances": {"fd_l1": "big"}}),
    ("modes", {"modes": "many"}),
    ("grid", {"grid": "fine"}),
    ("cells", {"cells": [256]}),
    ("s", {"s": "one"}),
    ("s", {"s": -1.0}),
    ("tolerances.route_agreement", {"tolerances": {"route_agreement": "nan"}}),
    ("times", {"times": [0.1, "later"]}),
    ("dt", {"dt": 0}),
    ("dt", {"dt": -0.0005}),
    # Psi dips to 1e-5: xi = Pi / Psi peaks too sharply for the Xi table
    ("model.psi/pi", {"model": {"psi": [0.05001, -0.2, 0.2], "pi": [1, 3]}}),
    ("times", {"times": [1.0]}),
    ("times", {"times": [0.1, float("nan")]}),
    ("times", {"times": [0.1, float("inf")]}),
    # 1.0 and 1.0000001 would both write profiles/q_t1.csv
    ("times", {"times": [0.5, 1.0, 1.0000001, 2.0], "modes": 16, "grid": 256,
               "cells": 128}),
    # a negative sample between samples 1e-5 apart, which no probe grid meets
    ("initial", {"initial": {"density": {"x": [0, 0.50001, 0.50002, 0.50003, 1],
                                         "values": [1, 1, -5, 1, 1]}}}),
    # integer fields are finite, integral and not booleans; s is finite
    ("modes", {"modes": float("inf")}),
    ("grid", {"grid": float("inf")}),
    ("cells", {"cells": float("inf")}),
    ("s", {"s": float("inf")}),
    ("modes", {"modes": True}),
    ("modes", {"modes": 64.5}),
    # every block knows its keys, including the keys of the chosen model form
    ("mdoes", {"mdoes": 256}),
    ("model.bta", {"model": {"preset": "kimura", "bta": 5}}),
    ("model.psi", {"model": {"preset": "kimura", "psi": [1.0]}}),
    ("model.preset", {"model": {"preset": "wright", "beta": 1.0}}),
    ("initial.atom", {"initial": {"atom": [[0.5, 1]]}}),
    ("initial.density.weights", {"initial": {"density": {
        "x": [0, 1], "values": [1, 1], "weights": [1, 1]}}}),
    ("initial.density", {"initial": {"density": 5}}),
    ("initial", {"initial": {"density": "bump(0.5, 0)"}}),
    # every config number goes through the one reader
    ("schema", {"schema": True}),
    ("times", {"times": [True, 2]}),
    ("model.eta", {"model": {"preset": "kimura", "eta": "2"}}),
    ("model.beta", {"model": {"preset": "kimura", "beta": True}}),
    ("model.beta", {"model": {"preset": "kimura", "beta": float("inf")}}),
    ("model.psi", {"model": {"psi": ["1"], "pi": [0.0]}}),
    ("model.pi", {"model": {"psi": [1.0], "pi": [False]}}),
    ("initial.a0", {"initial": {"a0": True, "density": "uniform"}}),
    ("initial.b0", {"initial": {"b0": "0.1", "density": "uniform"}}),
    ("initial.atoms", {"initial": {"atoms": [[0.5, True]]}}),
    ("initial.atoms", {"initial": {"atoms": [[0.5, 1.0, 2.0]]}}),
    ("initial.density.x", {"initial": {"density": {"x": [0, "1"], "values": [1, 1]}}}),
    ("initial.density.values", {"initial": {"density": {"x": [0, 1],
                                                        "values": [1, True]}}}),
    ("name", {"name": 5}),
    ("out", {"out": 5}),
    # an object where a number or a string belongs is read, not laid over the default
    ("modes", {"modes": {"n": 256}}),
    ("dt", {"dt": {}}),
    ("out", {"out": {"dir": "x"}}),
    ("name", {"name": {}}),
    ("tolerances", {"tolerances": 5}),
])
def test_malformed_field_exits_one_and_names_it(tmp_path, capsys, field, extra):
    path = demo_config(tmp_path, **extra)
    assert main(["verify", "--config", str(path)]) == 1
    assert f"config field '{field}'" in capsys.readouterr().err


def test_overlong_number_exits_one_and_names_it(tmp_path, capsys):
    # 1e400 parses as inf; the model must not see it
    path = tmp_path / "beta.json"
    text = demo_config(tmp_path).read_text().replace('"beta": 0.0', '"beta": 1e400')
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 1
    assert "config field 'model.beta'" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    # 128 cells do not resolve the boundary layer of beta = 120
    ({"model": {"preset": "kimura", "eta": 0.0, "beta": 120.0},
      "initial": {"density": "bump(0.5, 0.3)"}, "times": [0.5, 1], "cells": 128,
      "modes": None, "grid": None}, "below zero at cells=128; raise cells"),
    ("[1, 2]", "config field 'top level': expected an object"),
    ({"out": 5}, "config field 'out': expected a string"),
])
def test_cli_input_errors_exit_one_without_traceback(tmp_path, config, message):
    if isinstance(config, dict):
        path = demo_config(tmp_path, **config)
    else:
        path = tmp_path / "text.json"
        path.write_text(config)
    run = _python("-m", "kimdiff.cli", "verify", "--config", str(path))
    assert run.returncode == 1
    assert message in run.stderr and "Traceback" not in run.stderr


def test_two_times_starting_at_zero_run(tmp_path):
    path = demo_config(tmp_path, times=[0.0, 1.0], modes=16, grid=256, cells=128)
    assert main(["verify", "--config", str(path)]) == 0


def test_negative_zero_time_names_its_profile_q_t0(tmp_path):
    path = demo_config(tmp_path, times=[-0.0, 1.0], modes=16, grid=256, cells=128)
    assert main(["evolve", "--config", str(path)]) == 0
    profiles = {p.name for p in (tmp_path / "out" / "profiles").iterdir()}
    assert profiles == {"q_t0.csv", "q_t1.csv"}


def _csv_writer_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def test_csv_writer_matches_csv_module(tmp_path):
    names = ["a", "b", "scaled_q_l1", "q_l1", "a", "b", "b"]
    t = np.array([0.0, -0.0, 5e-324, 1e300, np.nan, 0.1, 1e16])
    value = np.array([-3.25e-7, 1.0 / 3.0, -0.0, 2.0, 1e-5, -np.inf, 12345.678])
    count = np.arange(-3, 4)
    cases = [
        (["series", "t", "value", "n"], [names, t, value, count],
         zip(names, t, value, count)),
        # the string column as plot writes it, a numpy string array
        (["series", "value"], [np.array(names[:1]), value[:1]], [(names[0], value[0])]),
        # a column formatted once and shared, next to a plain list of floats
        (["t", "value"], [scenario._csv_fields(t), value.tolist()], zip(t, value)),
    ]
    for header, columns, rows in cases:
        path = tmp_path / "fast.csv"
        scenario._write_csv(path, header, columns)
        assert path.read_bytes() == _csv_writer_bytes(header, rows)


def _field(text):
    try:
        return float(text)
    except ValueError:
        return text


def test_every_csv_artifact_has_csv_writer_bytes(tmp_path):
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(demo_config(tmp_path))]) == 0
    assert main(["plot", "--results", str(out)]) == 0
    assert main(["spectrum", "--modes", "16", "--grid", "512", "--out", str(out),
                 "--csv"]) == 0
    paths = sorted(out.rglob("*.csv"))
    assert {p.name for p in paths} >= {"fixation.csv", "evolution.csv", "q_t0.1.csv",
                                       "series.csv", "eigenfunctions.csv"}
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        # float repr round-trips, so this pins every field's text
        expected = _csv_writer_bytes(header, ([_field(v) for v in row] for row in rows))
        assert path.read_bytes() == expected, path.name


@pytest.mark.parametrize("command, series_calls", [("evolve", 2), ("verify", 1)])
def test_commands_evaluate_only_what_they_write(tmp_path, monkeypatch, command,
                                                series_calls):
    # both commands evaluate the series at the scenario times; only evolve
    # adds the 129-time weak-form sweep.  Each evaluates the limits once and
    # psi twice: on the initial measure's rule nodes for the limits, then on
    # the solution grid
    calls = {"solutions_at": 0, "limit_masses": 0}
    grids = []
    for name in calls:
        original = getattr(evolution, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            result = _original(*args)
            if _name == "solutions_at":
                grids.append(result.grid)
            return result

        monkeypatch.setattr(evolution, name, counted)
    psi_points = []
    original_psi = FixationProfile.__call__

    def counted_psi(self, x):
        psi_points.append(np.asarray(x))
        return original_psi(self, x)

    monkeypatch.setattr(FixationProfile, "__call__", counted_psi)
    path = demo_config(tmp_path)
    assert sum(t > 0 for t in load_scenario(path).times) >= 2
    assert main([command, "--config", str(path)]) == 0
    assert calls == {"solutions_at": series_calls, "limit_masses": 1}
    rule_nodes, _ = gauss01(64)  # the uniform density's single panel
    assert len(psi_points) == 2
    assert np.array_equal(psi_points[0], rule_nodes)
    assert np.array_equal(psi_points[1], grids[0])


@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_interior_atom_with_one_positive_time_passes(tmp_path, command):
    # the t = 0 row counts the atom through the initial measure itself
    path = demo_config(
        tmp_path, initial={"atoms": [[0.3, 1.0]]}, times=[0.0, 1.0],
        modes=None, grid=None, cells=None,
    )
    assert main([command, "--config", str(path)]) == 0


def test_series_roundoff_exits_one_and_names_time(tmp_path, capsys):
    # Psi dips to 0.005: the tables resolve Xi, but Xi spans about 200, so the
    # modes reach e^100 and rounding swamps the series at every requested time
    path = demo_config(tmp_path, model={"psi": [0.055, -0.2, 0.2], "pi": [1, 3]})
    assert main(["evolve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "series roundoff estimate" in err and "at t=0.1 " in err
    assert "[0, 199.9]" in err
    assert "no requested time is safe" in err


def kimura_bump_config(tmp_path, beta):
    """Kimura eta = 0 with bump(0.5, 0.3) data at the default resolution."""
    return demo_config(
        tmp_path, model={"preset": "kimura", "eta": 0.0, "beta": beta},
        initial={"density": "bump(0.5, 0.3)"}, modes=None, grid=None, cells=None,
    )


@pytest.mark.parametrize("beta", [40.0, -40.0, 60.0, -60.0, 100.0, -100.0])
def test_strong_selection_verifies_at_default_resolution(tmp_path, beta):
    assert main(["verify", "--config", str(kimura_bump_config(tmp_path, beta))]) == 0


@pytest.mark.parametrize("beta, xi_range", [
    (150.0, "[0, 150]"), (200.0, "[0, 200]"), (-200.0, "[-200, 0]"),
])
def test_selection_past_roundoff_names_time_and_xi_range(tmp_path, capsys, beta, xi_range):
    assert main(["verify", "--config", str(kimura_bump_config(tmp_path, beta))]) == 1
    err = capsys.readouterr().err
    assert "series roundoff estimate" in err and "at t=0.1 " in err
    assert f"Xi ranges over {xi_range}" in err
    assert "the first safe requested time is t=0.5" in err


def test_fully_decayed_times_write_valid_json(tmp_path):
    # by t = 400 the density underflows to 0: no log(0) in the slope fit, no
    # exp overflow in the rescaled norm, and strict JSON in the summary
    path = demo_config(tmp_path, times=[0.1, 1.0, 400.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path)]) == 0
        assert main(["plot", "--results", str(tmp_path / "out")]) == 0

    def reject(name):
        raise ValueError(f"non-finite number {name} in the artifact")

    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["slope"] == pytest.approx(-2.0, rel=1e-6)
    series = (tmp_path / "out" / "plots" / "series.csv").read_text()
    assert "nan" not in series and "inf" not in series


def _python(*args):
    """Run python with the package under test on its path."""
    src = Path(kimdiff.__file__).parents[1]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def _fresh_python(*args):
    """_python that must exit 0; returns stdout."""
    out = _python(*args)
    out.check_returncode()
    return out.stdout


_SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_cli_import_leaves_out_scipy():
    # every CLI call pays the import, and scipy would be most of it
    code = (f"import sys, kimdiff; print({_SCIPY_LOADED}); "
            f"import kimdiff.cli; print({_SCIPY_LOADED})")
    assert _fresh_python("-c", code).split() == ["[]", "[]"]


def test_cli_commands_load_scipy_only_where_needed(tmp_path):
    path = demo_config(tmp_path)
    out = tmp_path / "out"
    code = (
        "import sys; from kimdiff.cli import main; print(["
        f"main(['evolve', '--config', {str(path)!r}]), "
        f"main(['spectrum', '--out', {str(tmp_path / 's')!r}]), "
        f"main(['fixation', '--out', {str(tmp_path / 'f')!r}]), "
        f"main(['plot', '--results', {str(out)!r}])]); "
        f"print({_SCIPY_LOADED})"
    )
    assert _fresh_python("-c", code).splitlines()[-2:] == ["[0, 0, 0, 0]", "[]"]
    # the FD oracle and the Bessel comparison load scipy on first use
    _fresh_python("-m", "kimdiff.cli", "verify", "--config", str(path))
    _fresh_python("-m", "kimdiff.cli", "bessel-check", "--out", str(tmp_path / "b"))
    assert json.loads((out / "verify.json").read_text())["pass"]
    assert json.loads((tmp_path / "b" / "bessel.json").read_text())["decreasing"]


def test_verify_step_budget_exits_one_and_names_times(tmp_path, capsys):
    # at cells=256 the FD oracle would step 2.6e7 times, for about an hour
    path = demo_config(tmp_path, times=[0.1, 1e5])
    start = time.perf_counter()
    assert main(["verify", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "times" in err and "cells=256" in err


def test_overtight_tolerance_exits_two(tmp_path):
    path = demo_config(tmp_path)
    status = main(
        ["verify", "--config", str(path), "--tol-fd-l1", "1e-12", "--tol-fd-ab", "1e-12"]
    )
    assert status == 2
    verdict = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert not verdict["pass"]
    assert verdict["violations"]


def gate(loaded, report=(0.0, 0.0, 0.0), a=np.zeros(4), b=np.zeros(4),
         density=np.zeros((4, 5))):
    """_gate's violations for a loaded scenario and made-up results at t = 0, 0.1,
    0.5 and 1; report holds the mass span, fixation-moment span and route
    gap."""
    sols = evolution.Solutions(
        t=np.array([0.0, 0.1, 0.5, 1.0]), grid=np.linspace(0.0, 1.0, 5),
        density=np.array(density), a=np.array(a), b=np.array(b),
        trunc_error=np.zeros(4),
    )
    mass_span, psi_mass_span, route_gap = report
    report = evolution.ConservationReport(0.0, 0.0, mass_span, psi_mass_span, None, None,
                                          route_gap)
    return scenario._gate(loaded, {"report": report, "solutions": sols})


def test_gate_names_first_dip_after_the_initial_row(tmp_path):
    # the raw t = 0 density is not gated; the first positive time below the
    # positivity slack is named, once
    density = [[-1.0] * 5, [0.0, 0.1, 0.2, 0.1, 0.0],
               [0.0, -1e-3, 0.0, 0.0, 0.0], [0.0, -2e-3, 0.0, 0.0, 0.0]]
    assert gate(load_scenario(demo_config(tmp_path)), density=density) == [
        "density at t=0.5 dips to -1.000e-03, below the positivity slack -1.0e-08"
    ]


@pytest.mark.parametrize("a0, report, expected", [
    (0.0, (2e-5, 0.0, 0.0),
     ["mass conservation span 2.000e-05 exceeds 1.0e-05 x initial mass"]),
    (0.0, (0.0, 3e-5, 0.0),
     ["fixation-moment span 3.000e-05 exceeds 1.0e-05 x initial mass"]),
    (0.0, (0.0, 0.0, 4e-5),
     ["boundary-mass route disagreement 4.000e-05 exceeds 1.0e-05"]),
    # mass 2: the spans scale with the initial mass, the route gap does not
    (1.0, (1.5e-5, 2.5e-5, 1.5e-5),
     ["fixation-moment span 2.500e-05 exceeds 1.0e-05 x initial mass",
      "boundary-mass route disagreement 1.500e-05 exceeds 1.0e-05"]),
    # the route gap is absolute, so it may equal its tolerance
    (0.0, (9.9e-6, 9.9e-6, 1e-5), []),
])
def test_gate_names_each_conservation_violation(tmp_path, a0, report, expected):
    path = demo_config(tmp_path, initial={"a0": a0, "density": "uniform"})
    a = np.full(4, a0)
    assert gate(load_scenario(path), report, a=a) == expected


@pytest.mark.parametrize("a, b, expected", [
    # b falls between t = 0.1 and t = 0.5; a falls by less than the slack
    ([0.0, 0.1, 0.2, 0.2 - 5e-9], [0.0, 0.3, 0.3 - 1e-6, 0.4],
     ["absorbed mass b changes by -1.000e-06 at t=0.5, "
      "below the positivity slack -1.0e-08"]),
    ([0.0, -2e-8, 0.1, 0.2], [0.0, 0.3, 0.3, -1.0],
     ["absorbed mass a is -2.000e-08 at t=0.1, below the positivity slack -1.0e-08",
      "absorbed mass b is -1.000e+00 at t=1, below the positivity slack -1.0e-08"]),
])
def test_gate_names_negative_or_falling_absorbed_mass(tmp_path, a, b, expected):
    assert gate(load_scenario(demo_config(tmp_path)), a=a, b=b) == expected


@pytest.mark.parametrize("density, limits, a_first", [
    # linear between the samples: b_inf is the exact first moment 241/600
    ({"x": [0, 0.3, 0.6, 1], "values": [0, 2, 1, 0]}, (329 / 600, 241 / 600), None),
    # zero outside the samples, so the mass is 0.9
    ({"x": [0.2, 0.5, 0.8], "values": [1, 2, 1]}, (0.45, 0.45), None),
    # a narrow bump: FD Richardson from 2048 and 4096 cells gives a(0.1) = 1.66507e-3
    ("bump(0.5,0.01)", (0.5, 0.5), 1.665073e-3),
])
def test_initial_moments_verify_at_default_resolution(tmp_path, density, limits,
                                                       a_first):
    path = demo_config(tmp_path, initial={"density": density}, times=[0.1, 0.5, 1.0],
                       modes=None, grid=None, cells=None)
    pieces = scenario.compute_pipeline(load_scenario(path))
    assert pieces["coeffs"].limits == pytest.approx(limits, abs=1e-11)
    sols = pieces["solutions"]
    assert np.all(sols.a >= 0.0) and np.all(sols.b >= 0.0)
    if a_first is not None:
        assert sols.a[0] == pytest.approx(a_first, abs=5e-10)
    assert main(["verify", "--config", str(path)]) == 0


def test_verify_demo_passes(tmp_path):
    path = demo_config(tmp_path)
    status = main(["verify", "--config", str(path)])
    assert status == 0
    verdict = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert verdict["pass"]
    assert verdict["fd_mass_drift"] <= 1e-10
    for row in verdict["comparison"]:
        assert row["q_l1_diff"] <= 1e-3


def test_plot_emission(tmp_path):
    path = demo_config(tmp_path)
    run_scenario(load_scenario(path))
    status = main(["plot", "--results", str(tmp_path / "out")])
    assert status == 0
    plots = tmp_path / "out" / "plots"
    svgs = sorted(p.name for p in plots.glob("*.svg"))
    assert svgs == ["a.svg", "b.svg", "q_l1.svg", "scaled_q_l1.svg"]
    assert (plots / "series.csv").exists()
    # monotone a(t) series
    rows = (tmp_path / "out" / "evolution.csv").read_text().strip().splitlines()[1:]
    a_vals = [float(r.split(",")[1]) for r in rows]
    assert np.all(np.diff(a_vals) > 0)


def test_plot_missing_results(tmp_path, capsys):
    status = main(["plot", "--results", str(tmp_path / "nothing")])
    assert status == 1
    assert "missing" in capsys.readouterr().err


def test_determinism(tmp_path):
    path = demo_config(tmp_path, out=str(tmp_path / "o1"))
    run_scenario(load_scenario(path))
    path2 = demo_config(tmp_path, out=str(tmp_path / "o2"))
    run_scenario(load_scenario(path2))
    trees = [{str(p.relative_to(root)): p.read_bytes()
              for p in root.rglob("*") if p.is_file()}
             for root in (tmp_path / "o1", tmp_path / "o2")]
    assert {"fixation.csv", "profiles/q_t2.csv", "summary.json"} <= trees[0].keys()
    assert trees[0] == trees[1]


def test_json_round_trip(tmp_path):
    path = demo_config(tmp_path)
    run_scenario(load_scenario(path))
    for name in ("spectrum.json", "summary.json"):
        payload = json.loads((tmp_path / "out" / name).read_text())
        assert json.loads(json.dumps(payload)) == payload


def test_cli_overrides(tmp_path):
    path = demo_config(tmp_path)
    status = main(
        ["evolve", "--config", str(path), "--modes", "16", "--grid", "512",
         "--out", str(tmp_path / "alt")]
    )
    assert status == 0
    spectrum = json.loads((tmp_path / "alt" / "spectrum.json").read_text())
    assert len(spectrum["lambda"]) == 16


def test_load_scenario_lays_set_overrides_over_the_config(tmp_path):
    path = demo_config(tmp_path, tolerances={"fd_l1": 5e-3, "positivity": 1e-7})
    loaded = load_scenario(path, {"modes": 16, "grid": None, "out": str(tmp_path / "alt"),
                                  "tolerances": {"fd_l1": 2e-3, "fd_ab": None}})
    assert (loaded.modes, loaded.grid, loaded.cells) == (16, 1024, 256)
    assert loaded.out_dir == tmp_path / "alt"
    assert loaded.tolerances == {**scenario.DEFAULT_TOLERANCES, "fd_l1": 2e-3,
                                 "positivity": 1e-7}


def test_evolve_at_zero_smoothness_writes_no_decay_bound(tmp_path):
    path = demo_config(tmp_path, s=0)
    assert main(["evolve", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    coeffs = scenario.compute_pipeline(load_scenario(path))["coeffs"]
    smoothness = summary["smoothness"]
    # the H^0 norm of the coefficients; the bound needs s > 0
    assert smoothness.pop("initial_norm") == pytest.approx(np.linalg.norm(coeffs.values),
                                                           rel=1e-14)
    assert smoothness == {"s": 0.0, "decay_bound_constant": None, "decay_bound_tail": None}


def test_scenario_config_with_selection_and_atoms(tmp_path):
    path = demo_config(
        tmp_path,
        name="selection-bump",
        model={"preset": "kimura", "eta": 1.0, "beta": -0.5},
        initial={"a0": 0.1, "b0": 0.0, "density": "bump(0.4, 0.2)",
                 "atoms": [[0.7, 0.3]]},
    )
    scenario = load_scenario(path)
    assert scenario.initial.total_mass() == pytest.approx(1.4, abs=1e-7)
    status = run_scenario(scenario)
    assert status == 0


def test_default_config_subcommands(tmp_path):
    assert main(["spectrum", "--modes", "16", "--grid", "512",
                 "--out", str(tmp_path / "s"), "--csv"]) == 0
    assert (tmp_path / "s" / "eigenfunctions.csv").exists()
    # fixation samples psi on the grid + 1 points of the output grid
    assert main(["fixation", "--grid", "64", "--out", str(tmp_path / "f")]) == 0
    lines = (tmp_path / "f" / "fixation.csv").read_text().strip().splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == 1 + 65
    assert main(["bessel-check", "--grid", "2048", "--out", str(tmp_path / "b")]) == 0
    payload = json.loads((tmp_path / "b" / "bessel.json").read_text())
    assert payload["decreasing"] is True
