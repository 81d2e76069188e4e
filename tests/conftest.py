import csv
import io
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

import kimdiff as kd


def closed_grid(n):
    """0, the n interior points i / (n + 1) and 1: the grid that evolve's
    profiles and conservation sums sample."""
    return np.concatenate(([0.0], np.arange(1, n + 1) * (1.0 / (n + 1)), [1.0]))


GRID = closed_grid(2048)  # the default resolution's


@pytest.fixture(scope="session")
def neutral():
    return kd.make_kimura(0.0, 0.0)


@pytest.fixture(scope="session")
def neutral_basis(neutral):
    """Mid-resolution neutral basis shared across tests."""
    return kd.build_basis(neutral, 16)


@pytest.fixture(scope="session")
def selection():
    """Frequency-selection model used by cross-solver scenarios."""
    return kd.make_kimura(1.0, -0.5)


def neutral_mode_exact(j, x):
    """Exact neutral density modes: normalized Jacobi-type polynomials.

    Closed form used as an oracle: eigenvalues (j+1)(j+2), polynomial modes
    with the weight x(1-x); normalization matches the unit weighted norm of
    the eigenfunctions, sign matches a positive slope at 0.
    """
    from scipy.special import eval_jacobi

    gamma = np.sqrt((2 * j + 3) * (j + 2) / (j + 1)) if j else np.sqrt(6.0)
    val = gamma * eval_jacobi(j, 1, 1, 2 * np.asarray(x, float) - 1)
    # eval_jacobi gives value (-1)^j (j+1) at x=0; flip odd modes so the
    # left endpoint value is positive.
    return -val if j % 2 else val


def conservation_route(sol, limits, psi):
    """Boundary masses from the conservation laws at one time, the reference
    the series masses are checked against: a2 = a_inf - integral (1 - psi) q
    and b2 = b_inf - integral psi q, each by np.trapezoid on the solution
    grid.  Returns (a2, b2, max |series mass - route mass|)."""
    a2 = limits[0] - np.trapezoid((1.0 - psi) * sol.density, sol.grid)
    b2 = limits[1] - np.trapezoid(psi * sol.density, sol.grid)
    return a2, b2, max(abs(sol.a - a2), abs(sol.b - b2))


def decay_slope(sols):
    """Least-squares slope of log ||q(t)||_1 against t over a Solutions record."""
    return float(np.polyfit(sols.t, np.log(sols.density_l1()), 1)[0])


def growth_constant(basis):
    """Least-squares slope of lambda_j against j^2 over the top half of the modes."""
    m = basis.n_modes
    j = np.arange(m // 2, m, dtype=float)
    return float(np.polyfit(j**2, basis.eigenvalues[m // 2:], 1)[0])


def decay_bound_constants(lam, Q):
    """The constants (C, tail) of the decay theorem's bound
    radon(t) <= 2 e^(-lambda_0 t) ||mu||_D1 (C + tail), from spectrum.json's
    lambda and Q: C = sqrt(sum Q_j^2 / lambda_j) over the kept modes, and tail
    bounds the rest from the quarter-power decay of the mode masses,
    max |Q_j| lambda_j^(1/4) / ((m - 1) sqrt(2 g^(3/2))), g = lambda_(m-1) / (m - 1)^2."""
    lam, Q = np.asarray(lam, float), np.asarray(Q, float)
    m = len(lam)
    growth = lam[-1] / (m - 1) ** 2
    tail = float(np.max(np.abs(Q) * lam**0.25)) / ((m - 1) * np.sqrt(2.0 * growth**1.5))
    return float(np.sqrt(np.sum(Q**2 / lam))), float(tail)


def demo_function(demo, name):
    """The function called name that demos/<demo>.py defines, loaded without
    running the demo's script body."""
    return runpy.run_path(str(Path(__file__).resolve().parents[1] / "demos" / demo))[name]


def demo_config(tmp_path, **extra):
    """Write the neutral uniform demo scenario, with extra's keys laid over
    it, to tmp_path/demo.json; its artifacts go to tmp_path/out."""
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


def csv_writer_bytes(header, rows):
    """The bytes csv.writer writes for a header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()
