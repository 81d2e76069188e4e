"""The scenario module called directly: the config reader, the artifact
writer and the gates, without the command line."""

import io
import json

import numpy as np
import pytest
from conftest import csv_writer_bytes, demo_config

from kimdiff import evolution, scenario
from kimdiff.fixation import fixation_profile
from kimdiff.scenario import load_scenario


def test_csv_writer_matches_csv_module(tmp_path):
    t = np.array([0.0, -0.0, 5e-324, 1e300, np.nan, np.inf, 1e16])
    value = np.array([-3.25e-7, 1.0 / 3.0, -0.0, 2.0, 1e-5, -np.inf, 12345.678])
    # t in two files: a column shared by several files is formatted once
    files = [(tmp_path / "a.csv", ["t", "value"], [t, value]), (tmp_path / "b.csv", ["t"], [t])]
    scenario._write_artifacts(files)
    for path, header, columns in files:
        assert path.read_bytes() == csv_writer_bytes(header, zip(*columns))


@pytest.mark.parametrize("payload", [
    pytest.param({}, id="payload0"),
    pytest.param({"empty": np.empty(0), "list": [], "n": 3, "none": None, "flag": True,
                  "text": "a\nb"}, id="payload1"),
    pytest.param({"nested": {"b": {"c": [1, 2.5]}, "a": [], "d": {}}, "x": -0.0}, id="payload2"),
    pytest.param({"values": np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5,
                                      0.1, np.nan, np.inf, -np.inf, -1.0 / 3.0]),
                  "one": np.array([1e300]), "shared": [np.nan, -np.inf, 1e16]}, id="payload3"),
])
def test_json_writer_matches_json_dump(tmp_path, payload):
    path = tmp_path / "out.json"
    scenario._write_artifacts([(path, payload)])
    plain = {key: value.tolist() if isinstance(value, np.ndarray) else value
             for key, value in payload.items()}
    expected = io.StringIO()
    json.dump(plain, expected, indent=2, sort_keys=True)
    assert path.read_bytes() == (expected.getvalue() + "\n").encode()


def test_load_scenario_lays_set_overrides_over_the_config(tmp_path):
    # out replaces the config's; a null reads as absent, in a nested block too
    path = demo_config(tmp_path, grid=None, model={"preset": "kimura", "eta": 1.0, "beta": None})
    loaded = load_scenario(path, str(tmp_path / "alt"))
    assert (loaded.modes, loaded.grid, loaded.cells) == (24, 2048, 256)
    assert loaded.out_dir == tmp_path / "alt"
    assert load_scenario(path).out_dir == tmp_path / "out"
    assert loaded.model.pi_coeffs == (0.0, 1.0)  # beta = 0


def gate(loaded, report=(0.0, 0.0, 0.0), a=np.zeros(4), b=np.zeros(4),
         density=np.zeros((4, 5)), limits=(1.0, 1.0), initial_residual=0.0):
    """_gate's violations for a loaded scenario and made-up results at t = 0, 0.1,
    0.5 and 1; report holds the mass span, fixation-moment span and route
    gap, limits the limits of a and b (those of endpoint masses alone),
    initial_residual the weak-form defect at t = 0."""
    coeffs = evolution.SpectralCoefficients(np.zeros(1), None, evolution.InitialMeasure(*limits),
                                            fixation_profile(loaded.model))
    sols = evolution.Solutions(
        t=np.array([0.0, 0.1, 0.5, 1.0]), grid=np.linspace(0.0, 1.0, 5),
        density=np.array(density), a=np.array(a), b=np.array(b),
        trunc_error=np.zeros(4), coeffs=coeffs,
    )
    mass_span, psi_mass_span, route_gap = report
    report = evolution.ConservationReport(0.0, 0.0, mass_span, psi_mass_span, None, None,
                                          route_gap)
    return scenario._gate(loaded, {"report": report, "solutions": sols,
                                   "initial_residual": initial_residual})


def test_gate_names_first_dip_after_the_initial_row(tmp_path):
    # the raw t = 0 density is not gated; the first positive time below the
    # positivity slack is named, once
    density = [[-1.0] * 5, [0.0, 0.1, 0.2, 0.1, 0.0],
               [0.0, -1e-3, 0.0, 0.0, 0.0], [0.0, -2e-3, 0.0, 0.0, 0.0]]
    assert gate(load_scenario(demo_config(tmp_path)), density=density) == [
        "density at t=0.5 dips to -1.000e-03, below the positivity slack -1.0e-08"
    ]
    density[1][2] = np.nan
    assert gate(load_scenario(demo_config(tmp_path)), density=density) == [
        "density at t=0.1 dips to nan, below the positivity slack -1.0e-08"
    ]


@pytest.mark.parametrize("a0, report, expected", [
    pytest.param(0.0, (2e-5, 0.0, 0.0),
                 ["mass conservation span 2.000e-05 exceeds 1.0e-05 x initial mass"],
                 id="0.0-report0-expected0"),
    pytest.param(0.0, (0.0, 3e-5, 0.0),
                 ["fixation-moment span 3.000e-05 exceeds 1.0e-05 x initial mass"],
                 id="0.0-report1-expected1"),
    pytest.param(0.0, (0.0, 0.0, 4e-5),
                 ["boundary-mass route disagreement 4.000e-05 exceeds 1.0e-05 x initial mass"],
                 id="0.0-report2-expected2"),
    # mass 2: the spans and the route gap scale with the initial mass
    pytest.param(1.0, (1.5e-5, 2.5e-5, 1.5e-5),
                 ["fixation-moment span 2.500e-05 exceeds 1.0e-05 x initial mass"],
                 id="1.0-report3-expected3"),
    # the uniform density's mass is 1 to roundoff: gaps just below it pass
    pytest.param(0.0, (9.9e-6, 9.9e-6, 9.9e-6), [], id="0.0-report4-expected4"),
    # mass 2: a route gap past twice its tolerance
    pytest.param(1.0, (0.0, 0.0, 2.5e-5),
                 ["boundary-mass route disagreement 2.500e-05 exceeds 1.0e-05 x initial mass"],
                 id="1.0-report5-expected5"),
    # a NaN is no number at most its tolerance
    pytest.param(0.0, (np.nan, 0.0, 0.0), ["mass conservation span nan exceeds 1.0e-05 x "
                                           "initial mass"], id="nan-span"),
    pytest.param(0.0, (0.0, 0.0, np.nan), ["boundary-mass route disagreement nan exceeds "
                                           "1.0e-05 x initial mass"], id="nan-route-gap"),
])
def test_gate_names_each_conservation_violation(tmp_path, a0, report, expected):
    path = demo_config(tmp_path, initial={"a0": a0, "density": "uniform"})
    a = np.full(4, a0)
    assert gate(load_scenario(path), report, a=a) == expected


@pytest.mark.parametrize("a, b, expected", [
    # b falls between t = 0.1 and t = 0.5; a falls by less than the slack
    pytest.param([0.0, 0.1, 0.2, 0.2 - 5e-9], [0.0, 0.3, 0.3 - 1e-6, 0.4],
                 ["absorbed mass b changes by -1.000e-06 at t=0.5, "
                  "below the positivity slack -1.0e-08"], id="a0-b0-expected0"),
    pytest.param([0.0, -2e-8, 0.1, 0.2], [0.0, 0.3, 0.3, -1.0],
                 ["absorbed mass a is -2.000e-08 at t=0.1, below the positivity slack -1.0e-08",
                  "absorbed mass b is -1.000e+00 at t=1, below the positivity slack -1.0e-08"],
                 id="a1-b1-expected1"),
    pytest.param([0.0, 0.1, np.nan, 0.2], [0.0, 0.3, 0.3, 0.4],
                 ["absorbed mass a is nan at t=0.5, below the positivity slack -1.0e-08"],
                 id="nan-mass"),
])
def test_gate_names_negative_or_falling_absorbed_mass(tmp_path, a, b, expected):
    assert gate(load_scenario(demo_config(tmp_path)), a=a, b=b) == expected


@pytest.mark.parametrize("a, b, expected", [
    # b passes its limit by more than the slack from t = 0.5 on, a by less
    pytest.param([0.0, 0.2, 0.5 + 5e-9, 0.5 + 5e-9], [0.0, 0.3, 0.5 + 2e-6, 0.5 + 3e-6],
                 ["absorbed mass b exceeds its limit 0.5 by 2.000e-06 at t=0.5, "
                  "above the positivity slack 1.0e-08"], id="a0-b0-expected0"),
    # one violation per mass: a falls at t = 0.5 after passing its limit at t = 0.1
    pytest.param([0.0, 0.6, 0.55, 0.55], [0.0, 0.1, 0.2, 0.3],
                 ["absorbed mass a exceeds its limit 0.5 by 1.000e-01 at t=0.1, "
                  "above the positivity slack 1.0e-08"], id="a1-b1-expected1"),
])
def test_gate_names_absorbed_mass_above_its_limit(tmp_path, a, b, expected):
    loaded = load_scenario(demo_config(tmp_path))
    assert gate(loaded, a=a, b=b, limits=(0.5, 0.5)) == expected


def test_gate_names_the_initial_term_above_its_limit(tmp_path):
    loaded = load_scenario(demo_config(tmp_path))
    assert gate(loaded, initial_residual=1e-8) == []
    for residual, text in ((2e-8, "2.000e-08"), (np.nan, "nan")):
        assert gate(loaded, initial_residual=residual) == [
            f"weak-form residual at t=0 {text} exceeds 1.0e-08 x the chi_0 moment of 'initial'"]
