"""Fixation probabilities under drift and selection.

The probability that a mutant starting at frequency x eventually takes over
solves the stationary backward equation with boundary values 0 and 1.  For
the neutral model it is exactly the identity, psi(x) = x; directional
selection bends the curve toward (beta > 0) or away from (beta < 0) early
fixation.  This script tabulates a few profiles and checks them against the
constant-selection closed form and against the backward equation itself;
the tests import backward_residual from it without running the script body.
"""

import numpy as np

import kimdiff as kd


def backward_residual(model, profile, x):
    """Max over the interior points of the uniform grid x of |F psi'' + G psi'|,
    by centered differences of profile at x.  A self-test: small for true
    profiles, order one for anything else."""
    x = np.asarray(x, float)
    v = profile(x)
    h = x[1] - x[0]
    xi = x[1:-1]
    d1 = (v[2:] - v[:-2]) / (2.0 * h)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    return float(np.max(np.abs(model.diffusion(xi) * d2 + model.drift(xi) * d1)))


if __name__ == "__main__":
    cases = {
        "neutral": kd.make_kimura(0.0, 0.0),
        "beta=+1": kd.CoefficientModel((1.0,), (1.0,)),
        "beta=-2": kd.CoefficientModel((1.0,), (-2.0,)),
        "eta=2, beta=-1": kd.make_kimura(2.0, -1.0),
    }

    # each model's psi is a table, built on first read, exact to roundoff at any point of [0, 1]
    profiles = {name: m.fixation for name, m in cases.items()}

    xs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    print("fixation probability psi(x)")
    print("x      " + "  ".join(f"{n:>14s}" for n in profiles))
    for x in xs:
        row = "  ".join(f"{profiles[n](x):14.6f}" for n in profiles)
        print(f"{x:.2f}   {row}")

    # constant selection has the closed form (1 - exp(-beta x)) / (1 - exp(-beta))
    beta = 1.0
    grid = np.linspace(0.0, 1.0, 1025)
    exact = (1 - np.exp(-beta * grid)) / (1 - np.exp(-beta))
    error = np.max(np.abs(profiles["beta=+1"](grid) - exact))
    print(f"\nclosed-form check (beta=1): max error {error:.2e}")

    # the residual of the backward equation on the grid is a built-in self-test
    for name, m in cases.items():
        res = backward_residual(m, profiles[name], grid)
        print(f"backward residual, {name}: {res:.2e}")
