"""Scenario configs and the end-to-end runner.

A scenario is one JSON file: model block, initial measure, output times,
resolutions.  Running it produces machine-readable artifacts
(spectrum JSON, fixation CSV, evolution CSV plus per-time profiles, summary
JSON, optionally a cross-solver verdict) in one output directory, so a single
config reproduces every figure.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _csvtext, evolution, fd
from .fixation import fixation_profile
from .model import CoefficientModel, make_kimura
from .spectral import build_basis, eigenvalue_growth

SCHEMA_VERSION = 1

DEFAULTS = {"modes": 64, "grid": 2048, "cells": 1024}
TOLERANCES = {  # the gates' thresholds, each a fraction of the mass it scales with
    "mass_drift": 1e-5,  # mass span, of the initial mass
    "psi_mass_drift": 1e-5,  # fixation-moment span, of the initial mass
    "route_agreement": 1e-5,  # boundary-mass route gap, of the initial mass
    "positivity": 1e-8,  # slack of density and absorbed masses, of the initial mass
    "fd_l1": 1e-3,  # spectral vs FD density gap, of the initial interior mass
    "fd_ab": 1e-3,  # spectral vs FD boundary-mass gap, of the initial mass
    "initial_residual": 1e-8,  # weak-form defect at t = 0, of the chi_0 moment of the data
}
_KEYS = ("schema", "name", "model", "initial", "times", "out", *DEFAULTS)


class ConfigError(ValueError):
    """Malformed scenario configuration; message carries the field path."""


@dataclass
class Scenario:
    name: str
    model: CoefficientModel
    initial: evolution.InitialMeasure
    times: tuple
    modes: int
    grid: int
    cells: int
    out_dir: Path


def _fail(path, msg):
    raise ConfigError(f"config field '{path}': {msg}")


def _block(path, value, keys):
    """The config object at path, checked to be an object with known keys."""
    if not isinstance(value, dict):
        _fail(path or "top level", f"expected an object, got {value!r:.60}")
    for key in value:
        if key not in keys:
            _fail(f"{path}.{key}" if path else key,
                  f"unknown key (known: {', '.join(keys)})")
    return value


def _number(path, value, kind=float, minimum=None):
    """Read a config number: finite, not a boolean or a string, integral if
    kind is int, and at least minimum; -0.0 reads as 0.0."""
    number = np.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value) + 0.0
        except OverflowError:  # an integer past the float range
            pass
    if not np.isfinite(number) or kind is int and number % 1:
        noun = "integer" if kind is int else "number"
        _fail(path, f"expected a finite {noun}, got {value!r:.60}")
    if minimum is not None and number < minimum:
        _fail(path, f"must be at least {minimum}, got {number:g}")
    return kind(number)


def _numbers(path, value, length=None, minimum=None):
    """Read a config list of numbers, of any length or of the given one."""
    if not isinstance(value, list) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        _fail(path, f"expected a list of {count}numbers, got {value!r:.60}")
    return [_number(path, item, minimum=minimum) for item in value]


def _overlay(base, top):
    """base with the non-None values of top laid over it; an object of top
    is laid over an object of base, or over nothing, key by key."""
    merged = dict(base)
    for key, value in top.items():
        under = merged.get(key, {})
        if isinstance(value, dict) and isinstance(under, dict):
            value = _overlay(under, value)
        if value is not None:
            merged[key] = value
    return merged


def _model_from_config(block):
    kimura = isinstance(block, dict) and "preset" in block
    keys = ("preset", "eta", "beta") if kimura else ("psi", "pi")
    _block("model", block, keys)
    if kimura:
        if block["preset"] != "kimura":
            _fail("model.preset", f"expected 'kimura', got {block['preset']!r:.60}")
        build, path = make_kimura, "model"
        args = [_number(f"model.{key}", block.get(key, 0.0)) for key in keys[1:]]
    else:
        if not {"psi", "pi"} <= block.keys():
            _fail("model", 'needs {"preset": "kimura", ...} or {"psi": [...], "pi": [...]}')
        build, path = CoefficientModel, "model.psi/pi"
        args = [tuple(_numbers(f"model.{key}", block[key])) for key in keys]
    try:
        return build(*args)
    except ValueError as exc:
        _fail(path, str(exc))


def _initial_from_config(block):
    _block("initial", block, ("a0", "b0", "density", "atoms"))
    density = block.get("density")
    if isinstance(density, dict):
        _block("initial.density", density, ("x", "values"))
        if not {"x", "values"} <= density.keys():
            _fail("initial.density", "sampled density needs 'x' and 'values'")
        density = tuple(_numbers(f"initial.density.{key}", density[key])
                        for key in ("x", "values"))
    elif not (density is None or isinstance(density, str)):
        _fail("initial.density", f"expected a name, samples or null, got {density!r:.60}")
    a0, b0 = (_number(f"initial.{key}", block.get(key, 0.0)) for key in ("a0", "b0"))
    atoms = block.get("atoms", [])
    if not isinstance(atoms, list):
        _fail("initial.atoms", f"expected a list of [x, mass] pairs, got {atoms!r:.60}")
    atoms = [_numbers("initial.atoms", atom, length=2) for atom in atoms]
    try:
        return evolution.InitialMeasure(a0=a0, b0=b0, density=density, atoms=atoms)
    except ValueError as exc:
        _fail("initial", str(exc))


def load_scenario(config, out=None):
    """Parse and validate a scenario from a JSON path or a dict.

    The config is laid over the defaults once and the result parsed: a null
    reads as absent, in a nested block too.  out, when given, replaces the
    config's "out"."""
    if isinstance(config, (str, Path)):
        path = Path(config)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:  # a directory, a path under a file, no permission
            raise ConfigError(f"cannot read config {path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        name = path.stem
    else:
        raw, name = config, "scenario"
    base = {"name": name, "out": "kimdiff-results", **DEFAULTS}
    cfg = _overlay(base, _block("", raw, _KEYS))
    if out is not None:
        cfg["out"] = out
    if _number("schema", cfg.get("schema"), int) != SCHEMA_VERSION:
        _fail("schema", f"expected {SCHEMA_VERSION}, got {cfg['schema']!r}")
    for key in ("name", "out"):
        if not isinstance(cfg[key], str):
            _fail(key, f"expected a string, got {cfg[key]!r:.60}")
    if not cfg["out"]:  # Path("") is the working directory
        _fail("out", "expected a non-empty path")

    times = tuple(_numbers("times", cfg.get("times"), minimum=0.0))
    if len(times) < 2:
        _fail("times", f"at least two output times are required, got {len(times)}")
    # profile files are named by %g of t, so only neighbours can share one
    for a, b in zip(times, times[1:]):
        if b <= a:
            _fail("times", "times must increase strictly")
        if f"{a:g}" == f"{b:g}":
            _fail("times", f"{a!r} and {b!r} share the profile file q_t{a:g}.csv")

    return Scenario(
        name=cfg["name"],
        model=_model_from_config(cfg.get("model", {})),
        initial=_initial_from_config(cfg.get("initial", {})),
        times=times,
        modes=_number("modes", cfg["modes"], int, minimum=1),
        grid=_number("grid", cfg["grid"], int, minimum=64),
        cells=_number("cells", cfg["cells"], int, minimum=128),
        out_dir=Path(cfg["out"]),
    )


def _lines(fields):
    """One CSV line per row of the equal-height field matrices: the fields'
    nonzero bytes joined by commas, then CRLF; built as one byte table whose
    zero padding is dropped at once."""
    table = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields) + 1), np.uint8)
    at = 0
    for field in fields:
        table[:, at:at + field.shape[1]] = field
        at += field.shape[1] + 1
        table[:, at - 1] = ord(",")
    table[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return table.tobytes().translate(None, b"\0")


def _write_artifacts(files):
    """Make the directories of the artifact files, then write the files in
    order: a CSV (path, header, columns) triple, whose columns are
    equal-length 1-D float arrays, gets the bytes of csv.writer, and a JSON
    (path, payload) pair those of json.dump(payload, indent=2,
    sort_keys=True) and a newline, a numpy value written as its tolist().
    One _csvtext.repr_fields call formats the columns of all the CSV files,
    each array object once.  A directory that cannot be made, or a path that
    cannot be written, such as a directory, raises a ConfigError naming 'out'
    and the path, once every file and directory that this call made is removed."""
    made = []  # the paths this call may make, each before its parent
    try:
        for directory in dict.fromkeys(Path(file[0]).parent for file in files):
            made[:0] = [d for d in (directory, *directory.parents) if not os.path.lexists(d)]
            directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _remove(made)
        _fail("out", f"cannot create directory {exc.filename}: {exc.strerror}")
    columns = {id(a): a for file in files if len(file) == 3 for a in file[2]}
    text = {}
    if columns:
        ends = np.cumsum([len(a) for a in columns.values()])[:-1]
        formatted = _csvtext.repr_fields(np.concatenate(list(columns.values())))
        text = dict(zip(columns, np.split(formatted, ends)))
    for file in files:
        if len(file) == 2:
            body = json.dumps(file[1], indent=2, sort_keys=True,
                              default=lambda value: value.tolist()).encode() + b"\n"
        else:
            body = f"{','.join(file[1])}\r\n".encode() + _lines([text[id(c)] for c in file[2]])
        if not os.path.lexists(file[0]):
            made.insert(0, Path(file[0]))
        try:
            with open(file[0], "wb") as fh:
                fh.write(body)
        except OSError as exc:
            _remove(made)
            _fail("out", f"cannot write {file[0]}: {exc.strerror}")


def _remove(paths):
    """Remove those of paths that exist, in order: a file, or an empty directory."""
    for path in filter(os.path.lexists, paths):
        (os.rmdir if path.is_dir() else os.remove)(path)


def compute_pipeline(scenario):
    """Run the spectral pipeline for a scenario; returns a dict of what both
    evolve and verify write that the records do not carry: the solutions at the
    scenario times (their coeffs carry basis, measure, profile and limits),
    their conservation report and their weak-form defect at t = 0."""
    profile = fixation_profile(scenario.model)
    coeffs = evolution.project_initial(build_basis(scenario.model, scenario.modes),
                                       scenario.initial, profile)
    n = scenario.grid  # the profiles' closed grid, i / (n + 1) for i = 0..n + 1
    x = np.concatenate(([0.0], np.arange(1, n + 1) * (1.0 / (n + 1)), [1.0]))
    sols = evolution.solutions_at(coeffs, scenario.times, x)
    return {
        "initial_residual": evolution.initial_residual(coeffs),
        "solutions": sols,
        "report": evolution.conservation_residuals(sols),
    }


def _exceeds(what, value, key, scale, at="", per="initial mass"):
    """A list of the violation naming value, or none if it is at most TOLERANCES[key] x scale."""
    if value <= TOLERANCES[key] * scale:
        return []
    return [f"{what} {value:.3e}{at} exceeds {TOLERANCES[key]:.1e} x {per}"]


def _gate(scenario, pieces):
    mass0 = scenario.initial.total_mass()
    report = pieces["report"]
    violations = [
        *_exceeds("mass conservation span", report.mass_span, "mass_drift", mass0),
        *_exceeds("fixation-moment span", report.psi_mass_span, "psi_mass_drift", mass0),
        *_exceeds("boundary-mass route disagreement", report.route_gap, "route_agreement", mass0),
        # evolution.initial_residual is already relative
        *_exceeds("weak-form residual at t=0", pieces["initial_residual"], "initial_residual",
                  1.0, per="the chi_0 moment of 'initial'"),
    ]
    # the checks below are negated, so that a NaN fails them as it fails _exceeds
    floor = -TOLERANCES["positivity"] * mass0
    sols = pieces["solutions"]
    positive = sols[sols.t > 0]
    low = positive.density.min(axis=1)
    dips = np.flatnonzero(~(low >= floor))
    if dips.size:
        violations.append(
            f"density at t={positive.t[dips[0]]:g} dips to {low[dips[0]]:.3e}, "
            f"below the positivity slack {floor:.1e}"
        )
    # nonnegative, nondecreasing and at most its limit
    for name, mass, limit in zip("ab", (sols.a, sols.b), sols.coeffs.limits):
        step = np.diff(mass, prepend=mass[0])
        over = mass - limit
        for i in np.flatnonzero(~((mass >= floor) & (step >= floor) & (over <= -floor)))[:1]:
            slack = f"below the positivity slack {floor:.1e}"
            if not mass[i] >= floor:
                what = f"is {mass[i]:.3e}"
            elif not step[i] >= floor:
                what = f"changes by {step[i]:.3e}"
            else:
                what = f"exceeds its limit {limit:.6g} by {over[i]:.3e}"
                slack = f"above the positivity slack {-floor:.1e}"
            violations.append(f"absorbed mass {name} {what} at t={sols.t[i]:g}, {slack}")
    return violations


def _verdict(scenario, pieces, residuals_key, residuals=None, violations=()):
    """The fields that summary.json and verify.json share: the schema, the
    name, the tolerances, _gate's violations followed by the given ones, and
    under residuals_key the given residuals with the four spectral ones."""
    report = pieces["report"]
    return {
        "schema": SCHEMA_VERSION,
        "name": scenario.name,
        residuals_key: {
            **(residuals or {}),
            "mass_span": report.mass_span,
            "psi_mass_span": report.psi_mass_span,
            "route_agreement_max": report.route_gap,
            "initial_residual": pieces["initial_residual"],
        },
        "tolerances": TOLERANCES,
        "violations": _gate(scenario, pieces) + list(violations),
    }


def run_scenario(scenario):
    """Run a loaded scenario and write all artifacts into its out_dir.

    Returns 0 on success and 2 when an invariant tolerance is violated
    (artifacts are still written, with the violations recorded in the
    summary).  Unresolvable inputs raise ValueError, which the CLI maps to
    exit 1.
    """
    pieces = compute_pipeline(scenario)
    sols = pieces["solutions"]
    coeffs, positive = sols.coeffs, sols[sols.t > 0]
    basis = coeffs.basis
    decay = evolution.decay_diagnostics(positive) if len(positive) > 1 else None

    # an atom's D_1 norm is infinite: atom data take it at the first positive time
    norm_time = float(positive.t[0]) if scenario.initial.atoms else 0.0
    c0, c0_tail = evolution.radon_bound_constant(basis)  # before any artifact

    out = scenario.out_dir
    report = pieces["report"]
    profiles_dir = out / "profiles"
    drifts = {"mass_drift": report.mass_drift, "psi_mass_drift": report.psi_mass_drift}
    summary = {
        **_verdict(scenario, pieces, "residuals", drifts),
        "lambda0": float(basis.eigenvalues[0]),
        "a_inf": coeffs.limits[0],
        "b_inf": coeffs.limits[1],
        "C_inf": None if decay is None else decay.c_inf,
        "slope": None if decay is None else decay.slope,
        "smoothness": {
            "initial_norm": evolution.ds_norm(coeffs, norm_time),
            "norm_time": norm_time,
            "decay_bound_constant": c0,
            "decay_bound_tail": c0_tail,
        },
    }
    x = np.linspace(0.0, 1.0, scenario.grid + 1)  # fixation.csv's grid + 1 points
    psi = coeffs.profile(x)
    psi[0], psi[-1] = 0.0, 1.0  # pinned at the ends
    # every artifact of the run in one text pass; the profiles share one grid column
    _write_artifacts([
        (out / "spectrum.json", {
            "lambda": basis.eigenvalues, "Q": basis.mode_masses,
            "K_estimate": eigenvalue_growth(basis)[0] if basis.n_modes >= 16 else None,
            "identity_residuals": basis.identity_residuals}),
        (out / "fixation.csv", ["x", "psi"], [x, psi]),
        *((profiles_dir / f"q_t{sol.t:g}.csv", ["x", "q"], [sols.grid, sol.density])
          for sol in sols),
        (out / "evolution.csv",
         ["t", "a", "b", "q_l1", "mass_total", "psi_mass", "radon_to_limit",
          "trunc_error"],
         [sols.t, sols.a, sols.b, sols.density_l1(), report.mass_values,
          report.psi_mass_values,
          evolution.radon_distance_to_limit(sols),
          sols.trunc_error]),
        (out / "summary.json", summary),
    ])
    return 2 if summary["violations"] else 0


def run_verify(scenario):
    """Paired spectral / finite-difference run of a loaded scenario, with a
    JSON verdict in its out_dir.

    Gates on the cross-solver gaps and the spectral invariants; exit status 2
    on any violation, 0 otherwise."""
    pieces = compute_pipeline(scenario)
    sols = pieces["solutions"]
    positive = sols[sols.t > 0]
    fd_states = fd.solve_fd(scenario.model, scenario.initial, positive.t, scenario.cells)
    comparison = fd.compare_with_spectral(fd_states, positive)
    mass0 = scenario.initial.total_mass()
    interior0 = scenario.initial.interior_mass()
    fd_drift = max(abs(st.total_mass() - mass0) for st in fd_states)

    violations = []
    for row in comparison:
        at = f" at t={row.t:g}"
        violations += _exceeds("spectral vs FD density gap", row.q_l1_diff, "fd_l1", interior0,
                               at, "initial interior mass")
        # np.maximum, unlike max, keeps a NaN in either gap
        violations += _exceeds("spectral vs FD boundary-mass gap",
                               np.maximum(row.a_diff, row.b_diff), "fd_ab", mass0, at)

    verdict = _verdict(scenario, pieces, "spectral_residuals", violations=violations)
    verdict.update({
        "comparison": [row._asdict() for row in comparison],
        "fd_mass_drift": fd_drift,
        "pass": not verdict["violations"],
    })
    _write_artifacts([(scenario.out_dir / "verify.json", verdict)])
    return 2 if verdict["violations"] else 0
