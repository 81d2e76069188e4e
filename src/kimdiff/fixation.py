"""Fixation probability: the nonconstant stationary solution of the backward
equation, normalized to run from 0 at the left endpoint to 1 at the right.

For a model with drift-to-diffusion ratio xi this is

    psi(x) = (1/c) integral_0^x exp(-integral_0^s xi) ds,
    c      = integral_0^1 exp(-integral_0^s xi) ds,

the probability that a mutant starting at frequency x eventually takes over.
psi is tabulated once as a Legendre series, exact to roundoff off its grid.
"""

from dataclasses import dataclass

import numpy as np

from ._quadrature import running_integral_table, table_values


@dataclass
class FixationProfile:
    """Fixation probability sampled on a grid, with its normalization constant.

    grid: strictly increasing points in [0, 1] including both endpoints.
    values: psi at the grid points; exactly 0 and 1 at the ends.
    norm_const: c, the unnormalized total integral (inf if it overflows).
    table: piecewise Legendre table of psi (_quadrature.running_integral_table);
        __call__ evaluates it, as accurate off the grid as on it.
    """

    grid: np.ndarray
    values: np.ndarray
    norm_const: float
    table: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float)
        self.values = np.asarray(self.values, float)

    def __call__(self, x):
        return table_values(self.table, x)


def fixation_profile(model, n_points):
    """Compute the fixation probability on a uniform grid of n_points.

    exp(-Xi), scaled by exp(min Xi) to peak near 1 (finite under strong
    selection, and checked for resolution on the scale of psi), is tabulated
    as a running integral; the grid values are that table's values.
    """
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    grid = np.linspace(0.0, 1.0, int(n_points))
    shift = float(np.min(model.xi_integral(grid)))

    def integrand(s):
        return np.exp(shift - model.xi_integral(s))

    table = running_integral_table(integrand, "the fixation integrand exp(-Xi)")
    total = float(table_values(table, 1.0))
    table /= total
    values = table_values(table, grid)
    values[0] = 0.0
    values[-1] = 1.0
    with np.errstate(over="ignore"):  # c may exceed the double range; psi does not
        c = total * np.exp(-shift)
    return FixationProfile(grid=grid, values=values, norm_const=c, table=table)


def backward_residual(model, profile):
    """Max over interior grid points of |F psi'' + G psi'|, by centered
    differences on the profile grid.  A self-test: small for true profiles,
    order one for anything else."""
    x = profile.grid
    v = profile.values
    h = x[1] - x[0]
    xi = x[1:-1]
    d1 = (v[2:] - v[:-2]) / (2.0 * h)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    return float(np.max(np.abs(model.diffusion(xi) * d2 + model.drift(xi) * d1)))
