import json

import numpy as np
import pytest

from kimdiff.cli import main
from kimdiff.scenario import ConfigError, emit_plot_data, load_scenario, run_scenario


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
    status = run_scenario(path)
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


def test_overtight_tolerance_exits_two(tmp_path):
    path = demo_config(tmp_path)
    status = main(
        ["verify", "--config", str(path), "--tol-fd-l1", "1e-12", "--tol-fd-ab", "1e-12"]
    )
    assert status == 2
    verdict = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert not verdict["pass"]
    assert verdict["violations"]


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
    run_scenario(path)
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
    run_scenario(path)
    path2 = demo_config(tmp_path, out=str(tmp_path / "o2"))
    run_scenario(path2)
    for name in ("evolution.csv", "spectrum.json", "summary.json"):
        assert (tmp_path / "o1" / name).read_bytes() == (
            tmp_path / "o2" / name
        ).read_bytes()


def test_json_round_trip(tmp_path):
    path = demo_config(tmp_path)
    run_scenario(path)
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
    assert main(["fixation", "--points", "65", "--out", str(tmp_path / "f")]) == 0
    lines = (tmp_path / "f" / "fixation.csv").read_text().strip().splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == 66
    assert main(["bessel-check", "--grid", "2048", "--out", str(tmp_path / "b")]) == 0
    payload = json.loads((tmp_path / "b" / "bessel.json").read_text())
    assert payload["decreasing"] is True
