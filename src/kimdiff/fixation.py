"""Fixation probability: the nonconstant stationary solution of the backward
equation, normalized to run from 0 at the left endpoint to 1 at the right.

For a model with drift-to-diffusion ratio xi this is

    psi(x) = (1/c) integral_0^x exp(-integral_0^s xi) ds,
    c      = integral_0^1 exp(-integral_0^s xi) ds,

the probability that a mutant starting at frequency x eventually takes over.
psi is tabulated once as a Legendre series, exact to roundoff at any point;
no output grid enters it (scenario.run_scenario samples it for fixation.csv).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from ._quadrature import node_values, running_integral_table, table_values


@dataclass
class FixationProfile:
    """Fixation probability as a table, with its normalization constant.

    norm_const: c, the unnormalized total integral (inf if it overflows).
    table: piecewise Legendre table of psi (_quadrature.running_integral_table);
        __call__ evaluates it at any points of [0, 1].
    """

    norm_const: float
    table: np.ndarray

    def __call__(self, x):
        return table_values(self.table, x)


def fixation_profile(model):
    """Tabulate the fixation probability of a model.

    exp(-Xi) is scaled by exp(min Xi) to peak at 1 (finite under strong
    selection, and checked for resolution on the scale of psi) and tabulated
    as a running integral.  Xi is least at 0, at 1 or where Pi vanishes; the
    real parts of Pi's roots, clipped into [0, 1], include every such point.
    The integrand's samples read Xi on the table nodes from Xi's own table.
    """
    roots = np.clip(P.polyroots(model.pi_coeffs).real, 0.0, 1.0)
    shift = float(np.min(model.xi_integral(np.r_[0.0, 1.0, roots])))
    table = running_integral_table(np.exp(shift - node_values(model.xi_table)),
                                   "the fixation integrand exp(-Xi)")
    total = float(table_values(table, 1.0))
    table /= total
    with np.errstate(over="ignore"):  # c may exceed the double range; psi does not
        c = total * np.exp(-shift)
    return FixationProfile(norm_const=c, table=table)


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
