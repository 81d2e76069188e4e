"""Scenario configs, the end-to-end runner, and plot-data emission.

A scenario is one JSON file: model block, initial measure, output times,
resolutions, tolerances.  Running it produces machine-readable artifacts
(spectrum JSON, fixation CSV, evolution CSV plus per-time profiles, summary
JSON, optionally a cross-solver verdict) in one output directory, so a single
config reproduces every figure.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _csvtext, evolution, fd
from .fixation import fixation_profile
from .model import CoefficientModel, make_kimura
from .spectral import bessel_comparison, build_basis, eigenvalue_growth

SCHEMA_VERSION = 1

DEFAULTS = {"modes": 64, "grid": 2048, "cells": 1024, "dt": None, "s": 1.0}
DEFAULT_TOLERANCES = {
    "mass_drift": 1e-5,
    "psi_mass_drift": 1e-5,
    "route_agreement": 1e-5,
    "positivity": 1e-8,
    "fd_l1": 1e-3,
    "fd_ab": 1e-3,
}
_INITIAL_TOL = 1e-8  # the largest evolution.initial_residual that _gate passes
_KEYS = ("schema", "name", "model", "initial", "times", "out", *DEFAULTS, "tolerances")


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
    dt: float
    s: float
    tolerances: dict
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


def load_scenario(config, overrides=None):
    """Parse and validate a scenario from a JSON path or a dict.

    overrides has the shape of a config; its non-None values, such as the
    CLI flags, are laid over the config, the two over the defaults, and the
    result is parsed once.  A null reads as absent."""
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
    base = {"name": name, "out": "kimdiff-results", **DEFAULTS,
            "tolerances": DEFAULT_TOLERANCES}
    cfg = _overlay(base, _overlay(_block("", raw, _KEYS), overrides or {}))
    if _number("schema", cfg.get("schema"), int) != SCHEMA_VERSION:
        _fail("schema", f"expected {SCHEMA_VERSION}, got {cfg['schema']!r}")
    for key in ("name", "out"):
        if not isinstance(cfg[key], str):
            _fail(key, f"expected a string, got {cfg[key]!r:.60}")

    times = tuple(_numbers("times", cfg.get("times"), minimum=0.0))
    if len(times) < 2:
        _fail("times", f"at least two output times are required, got {len(times)}")
    # profile files are named by %g of t, so only neighbours can share one
    for a, b in zip(times, times[1:]):
        if b <= a:
            _fail("times", "times must increase strictly")
        if f"{a:g}" == f"{b:g}":
            _fail("times", f"{a!r} and {b!r} share the profile file q_t{a:g}.csv")

    cells = _number("cells", cfg["cells"], int, minimum=128)
    dt = None if cfg["dt"] is None else _number("dt", cfg["dt"])
    if dt is not None and not 0.0 < dt <= 1.0 / cells:
        _fail("dt", f"must be positive and at most the cell width 1/{cells}, got {dt}")
    tolerances = _block("tolerances", cfg["tolerances"], DEFAULT_TOLERANCES)
    return Scenario(
        name=cfg["name"],
        model=_model_from_config(cfg.get("model", {})),
        initial=_initial_from_config(cfg.get("initial", {})),
        times=times,
        modes=_number("modes", cfg["modes"], int, minimum=1),
        grid=_number("grid", cfg["grid"], int, minimum=64),
        cells=cells,
        dt=dt,
        s=_number("s", cfg["s"], minimum=0.0),
        tolerances={key: _number(f"tolerances.{key}", value, minimum=0.0)
                    for key, value in tolerances.items()},
        out_dir=Path(cfg["out"]),
    )


def make_out_dir(out):
    """Create the output directory out; a path that cannot be one raises a
    ConfigError naming 'out' and the path."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        _fail("out", f"cannot create directory {exc.filename}: {exc.strerror}")


def _create(path, mode="w"):
    """Open an artifact path for writing; a path that cannot be written, such
    as a directory, raises a ConfigError naming 'out' and the path."""
    try:
        return open(path, mode)
    except OSError as exc:
        _fail("out", f"cannot write {path}: {exc.strerror}")


def _csv_fields(column):
    """The CSV text of each value of a column, as the nonzero bytes of each
    row of a uint8 matrix: a float as repr writes it (see _csvtext), any
    other value as str.  A matrix, such as the text _write_artifacts made for
    a float column, passes through."""
    column = np.asarray(column)
    if column.ndim == 2:
        return column
    if column.dtype.kind == "f":
        return _csvtext.repr_fields(column)
    text = np.char.encode(column.astype(str))
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _lines(fields, end):
    """One line per row of the equal-height field matrices: the fields'
    nonzero bytes joined by commas, then the two bytes of end; built as one
    byte table whose zero padding is dropped at once."""
    table = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields) + 1), np.uint8)
    at = 0
    for field in fields:
        table[:, at:at + field.shape[1]] = field
        at += field.shape[1] + 1
        table[:, at - 1] = ord(",")
    table[:, -2:] = np.frombuffer(end, np.uint8)
    return table.tobytes().translate(None, b"\0")


def _json_text(payload, text):
    """The bytes of json.dump(payload, indent=2, sort_keys=True) and a
    newline, the list of each top-level float array from its repr_fields
    matrix in text (by id), where repr's nan and inf read NaN and Infinity."""
    items = []
    for key in sorted(payload):
        value = payload[key]
        if id(value) not in text:
            value = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ").encode()
        elif not len(value):
            value = b"[]"
        else:
            fields = np.pad(text[id(value)], ((0, 0), (4, 0)), constant_values=ord(" "))
            lines = _lines([fields], b",\n")[:-2].replace(b"nan", b"NaN")
            value = b"[\n%s\n  ]" % lines.replace(b"inf", b"Infinity")
        items.append(b"  %s: %s" % (json.dumps(key).encode(), value))
    return b"{\n%s\n}\n" % b",\n".join(items) if items else b"{}\n"


def _write_artifacts(files):
    """Write artifact files in order: a CSV (path, header, equal-length
    columns) triple gets the bytes of csv.writer, a JSON (path, payload)
    pair those of _json_text.  A CSV column holds numbers, strings that need
    no quoting, or _csv_fields' matrix for it.  One _csvtext.repr_fields
    call formats the float array columns and top-level float arrays of all
    the files, each array object once."""
    floats = {id(a): a for file in files for a in (file[2] if len(file) == 3 else file[1].values())
              if isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind == "f"}
    text = {}
    if floats:
        ends = np.cumsum([len(a) for a in floats.values()])[:-1]
        formatted = _csvtext.repr_fields(np.concatenate(list(floats.values())))
        text = dict(zip(floats, np.split(formatted, ends)))
    for file in files:
        if len(file) == 2:
            body = _json_text(file[1], text)
        else:
            fields = [_csv_fields(text.get(id(column), column)) for column in file[2]]
            body = f"{','.join(file[1])}\r\n".encode() + _lines(fields, b"\r\n")
        with _create(file[0], "wb") as fh:
            fh.write(body)


def _spectrum_json(out, basis):
    """spectrum.json in out as a (path, payload) pair: eigenvalues, growth
    estimate, mode masses and weak-form identity residuals."""
    return out / "spectrum.json", {
        "lambda": basis.eigenvalues,
        "K_estimate": eigenvalue_growth(basis)[0] if basis.n_modes >= 16 else None,
        "Q": basis.mode_masses,
        "identity_residuals": basis.identity_residuals,
    }


def write_spectrum(out, basis, eigenfunctions=False):
    """Write spectrum.json (see _spectrum_json) into out, plus
    eigenfunctions.csv (samples on the interior grid) on request.  Returns
    the JSON path."""
    files = [_spectrum_json(out, basis)]
    if eigenfunctions:
        files.append((out / "eigenfunctions.csv", ["x"] + [f"phi{j}" for j in range(basis.n_modes)],
                      [basis.interior_grid, *basis.eigenfunctions.T]))
    _write_artifacts(files)
    return files[0][0]


def _fixation_csv(out, profile, grid):
    """fixation.csv in out as a (path, header, columns) triple: psi at the
    grid + 1 uniform points of [0, 1], exactly 0 and 1 at the ends."""
    x = np.linspace(0.0, 1.0, grid + 1)
    psi = profile(x)
    psi[0], psi[-1] = 0.0, 1.0
    return out / "fixation.csv", ["x", "psi"], [x, psi]


def write_fixation(out, profile, grid):
    """Write fixation.csv (see _fixation_csv) into out.  Returns its path."""
    _write_artifacts([_fixation_csv(out, profile, grid)])
    return out / "fixation.csv"


def write_bessel(out, model, basis, modes):
    """Write bessel.json into out, made once every comparison is computed:
    the sup error of the Bessel endpoint asymptotics for each listed mode and
    whether it decreases along the list.  Returns its path."""
    results = [
        {"mode": j, "sup_error": bessel_comparison(model, basis, j)} for j in modes
    ]
    make_out_dir(out)
    path = out / "bessel.json"
    _write_artifacts([(path, {
        "comparison": results,
        "decreasing": all(
            a["sup_error"] > b["sup_error"] for a, b in zip(results, results[1:])
        ),
    })])
    return path


def compute_pipeline(scenario):
    """Run the spectral pipeline for a scenario; returns a dict of the pieces
    that both evolve and verify write: the fixation profile, the basis, the
    coefficients, their weak-form defect at t = 0, the solutions at the
    scenario times, their positive-time view and their conservation report."""
    model, init = scenario.model, scenario.initial
    profile = fixation_profile(model)
    basis = build_basis(model, scenario.modes, scenario.grid)
    coeffs = evolution.project_initial(model, basis, init, profile)
    sols = evolution.solutions_at(model, basis, coeffs, init, scenario.times)
    psi = profile(basis.closed_grid)
    return {
        "profile": profile,
        "basis": basis,
        "coeffs": coeffs,
        "initial_residual": evolution.initial_residual(model, basis, coeffs, init),
        "solutions": sols,
        "positive": sols[sols.t > 0],
        "report": evolution.conservation_residuals(init, sols, coeffs.limits, psi),
    }


def _gate(scenario, pieces):
    tol = scenario.tolerances
    mass0 = scenario.initial.total_mass()
    violations = []
    report = pieces["report"]
    if report.mass_span > tol["mass_drift"] * mass0:
        violations.append(
            f"mass conservation span {report.mass_span:.3e} exceeds "
            f"{tol['mass_drift']:.1e} x initial mass"
        )
    if report.psi_mass_span > tol["psi_mass_drift"] * mass0:
        violations.append(
            f"fixation-moment span {report.psi_mass_span:.3e} exceeds "
            f"{tol['psi_mass_drift']:.1e} x initial mass"
        )
    if report.route_gap > tol["route_agreement"]:
        violations.append(
            f"boundary-mass route disagreement {report.route_gap:.3e} exceeds "
            f"{tol['route_agreement']:.1e}"
        )
    if pieces["initial_residual"] > _INITIAL_TOL:
        violations.append(f"weak-form residual at t=0 {pieces['initial_residual']:.3e} "
                          f"exceeds {_INITIAL_TOL:.0e}: the coefficients miss the moments of 'initial'")
    floor = -tol["positivity"] * mass0
    sols, positive = pieces["solutions"], pieces["positive"]
    low = positive.density.min(axis=1)
    dips = np.flatnonzero(low < floor)
    if dips.size:
        violations.append(
            f"density at t={positive.t[dips[0]]:g} dips to {low[dips[0]]:.3e}, "
            f"below the positivity slack {floor:.1e}"
        )
    # nonnegative, nondecreasing and at most its limit
    for name, mass, limit in zip("ab", (sols.a, sols.b), pieces["coeffs"].limits):
        step = np.diff(mass, prepend=mass[0])
        over = mass - limit
        for i in np.flatnonzero((mass < floor) | (step < floor) | (over > -floor))[:1]:
            slack = f"below the positivity slack {floor:.1e}"
            if mass[i] < floor:
                what = f"is {mass[i]:.3e}"
            elif step[i] < floor:
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
        "tolerances": scenario.tolerances,
        "violations": _gate(scenario, pieces) + list(violations),
    }


def run_scenario(scenario):
    """Run a loaded scenario and write all artifacts into its out_dir.

    Returns 0 on success and 2 when an invariant tolerance is violated
    (artifacts are still written, with the violations recorded in the
    summary).  Unresolvable inputs raise ValueError, which the CLI maps to
    exit 1.
    """
    make_out_dir(scenario.out_dir)
    pieces = compute_pipeline(scenario)
    model, basis, coeffs = scenario.model, pieces["basis"], pieces["coeffs"]
    sols, positive = pieces["solutions"], pieces["positive"]
    decay = evolution.decay_diagnostics(basis, coeffs, positive) if len(positive) > 1 else None

    # before any artifact: a norm or bound beyond the double range exits 1.
    # An atom's D_s norm is infinite: atom data take it at the first positive time
    norm_time = float(positive.t[0]) if scenario.initial.atoms else 0.0
    initial_norm = evolution.ds_norm(coeffs, basis, scenario.s, norm_time)
    if scenario.s > 0:
        c0s, c0s_tail = evolution.radon_bound_constant(basis, scenario.s)
    else:
        c0s = c0s_tail = None

    out = scenario.out_dir
    limits = coeffs.limits
    report = pieces["report"]
    profiles_dir = out / "profiles"
    make_out_dir(profiles_dir)
    drifts = {"mass_drift": report.mass_drift, "psi_mass_drift": report.psi_mass_drift}
    summary = {
        **_verdict(scenario, pieces, "residuals", drifts),
        "lambda0": float(basis.eigenvalues[0]),
        "a_inf": limits[0],
        "b_inf": limits[1],
        "C_inf": None if decay is None else decay.c_inf,
        "slope": None if decay is None else decay.slope,
        "smoothness": {
            "s": scenario.s,
            "initial_norm": initial_norm,
            "norm_time": norm_time,
            "decay_bound_constant": c0s,
            "decay_bound_tail": c0s_tail,
        },
    }
    # every artifact of the run in one text pass; the profiles share one grid column
    _write_artifacts([
        _spectrum_json(out, basis),
        _fixation_csv(out, pieces["profile"], scenario.grid),
        *((profiles_dir / f"q_t{sol.t:g}.csv", ["x", "q"], [sols.grid, sol.density])
          for sol in sols),
        (out / "evolution.csv",
         ["t", "a", "b", "q_l1", "mass_total", "psi_mass", "radon_to_limit",
          "trunc_error"],
         [sols.t, sols.a, sols.b, sols.density_l1(), report.mass_values,
          report.psi_mass_values,
          evolution.radon_distance_to_limit(scenario.initial, sols, limits),
          sols.trunc_error]),
        (out / "summary.json", summary),
    ])
    return 2 if summary["violations"] else 0


def run_verify(scenario):
    """Paired spectral / finite-difference run of a loaded scenario, with a
    JSON verdict in its out_dir.

    Gates on the cross-solver gaps and the spectral invariants; exit status 2
    on any violation, 0 otherwise."""
    make_out_dir(scenario.out_dir)
    pieces = compute_pipeline(scenario)
    positive = pieces["positive"]
    fd_states = fd.evolve_fd(
        scenario.model,
        scenario.initial,
        positive.t,
        scenario.cells,
        dt=scenario.dt,
    )
    comparison = fd.compare_with_spectral(fd_states, positive)
    mass0 = scenario.initial.total_mass()
    fd_drift = max(abs(st.total_mass() - mass0) for st in fd_states)

    tol = scenario.tolerances
    violations = []
    for row in comparison:
        if row.q_l1_diff > tol["fd_l1"]:
            violations.append(
                f"spectral vs FD density gap {row.q_l1_diff:.3e} at t={row.t:g} "
                f"exceeds {tol['fd_l1']:.1e}"
            )
        if max(row.a_diff, row.b_diff) > tol["fd_ab"]:
            violations.append(
                f"spectral vs FD boundary-mass gap {max(row.a_diff, row.b_diff):.3e} "
                f"at t={row.t:g} exceeds {tol['fd_ab']:.1e}"
            )

    verdict = _verdict(scenario, pieces, "spectral_residuals", violations=violations)
    verdict.update({
        "comparison": [row._asdict() for row in comparison],
        "fd_mass_drift": fd_drift,
        "pass": not verdict["violations"],
    })
    _write_artifacts([(scenario.out_dir / "verify.json", verdict)])
    return 2 if verdict["violations"] else 0


# plot emission

def _svg_line_chart(path, xs, ys, title, ylabel):
    """Tiny static SVG line chart; no plotting dependency."""
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + max(abs(y0), 1.0) * 1e-3
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    ticks = []
    for frac in (0.0, 0.5, 1.0):
        tx = x0 + frac * (x1 - x0)
        ty = y0 + frac * (y1 - y0)
        ticks.append(
            f'<text x="{px(tx):.1f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.3g}</text>'
        )
        ticks.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{ty:.3g}</text>'
        )
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{width / 2}" y="24" font-size="14" text-anchor="middle">{title}</text>
<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}"
 fill="none" stroke="#888"/>
{''.join(ticks)}
<text x="{width / 2}" y="{height - 12}" font-size="12" text-anchor="middle">t</text>
<text x="18" y="{height / 2}" font-size="12" text-anchor="middle"
 transform="rotate(-90 18 {height / 2})">{ylabel}</text>
<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>
</svg>
"""
    with _create(path) as fh:
        fh.write(svg)


def emit_plot_data(results_dir):
    """Turn a results directory into plot-ready files.

    Reads evolution.csv and spectrum.json, writes a long-format series CSV
    and one SVG line chart per series (endpoint masses, interior L1 norm,
    and the exponentially rescaled L1 norm)."""
    results = Path(results_dir)
    evo_path = results / "evolution.csv"
    spec_path = results / "spectrum.json"
    for path in (evo_path, spec_path):
        if not path.exists():
            raise FileNotFoundError(f"missing {path}; run a scenario first")
    try:
        lam0 = float(json.loads(spec_path.read_text(encoding="utf-8"))["lambda"][0])
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"{spec_path} has no eigenvalues under 'lambda'") from None
    except (ValueError, OverflowError) as exc:  # not UTF-8, not JSON or not a number
        raise ValueError(f"{spec_path}: {exc}") from None
    try:
        with open(evo_path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except ValueError as exc:  # not UTF-8 text
        raise ValueError(f"{evo_path}: {exc}") from None
    if not rows:
        raise ValueError(f"{evo_path} has no data rows")

    def column(key):
        try:
            return np.array([float(r[key]) for r in rows])
        except KeyError:
            raise ValueError(f"{evo_path} has no column {key!r}") from None
        except TypeError:  # DictReader fills a short row with None
            raise ValueError(f"{evo_path} has a row shorter than its header") from None
        except ValueError as exc:
            raise ValueError(f"{evo_path} column {key!r}: {exc}") from None

    t, a, b, q_l1 = map(column, ("t", "a", "b", "q_l1"))
    series = {"a": a, "b": b, "q_l1": q_l1}
    # exp(lambda_0 t) alone overflows at late times, where q_l1 underflows to 0
    with np.errstate(divide="ignore"):
        series["scaled_q_l1"] = np.exp(lam0 * t + np.log(series["q_l1"]))

    plots = results / "plots"
    make_out_dir(plots)
    for name, vals in series.items():
        _svg_line_chart(
            plots / f"{name}.svg", t, vals, f"{name} vs t", name.replace("_", " ")
        )
    _write_artifacts([(
        plots / "series.csv",
        ["series", "t", "value"],
        [np.repeat(list(series), len(t)), np.tile(t, len(series)),
         np.concatenate(list(series.values()))],
    )])
    return plots
