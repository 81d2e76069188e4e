"""Fixation probability: the nonconstant stationary solution of the backward
equation, normalized to run from 0 at the left endpoint to 1 at the right.

For a model with drift-to-diffusion ratio xi this is

    psi(x) = (1/c) integral_0^x exp(-integral_0^s xi) ds,
    c      = integral_0^1 exp(-integral_0^s xi) ds,

the probability that a mutant starting at frequency x eventually takes over.
CoefficientModel.fixation tabulates psi once per model, on first read, as a
Legendre series exact to roundoff at any point of [0, 1]; no output grid
enters it (scenario.run_scenario samples it for fixation.csv).
"""

from dataclasses import dataclass

import numpy as np

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
    as a running integral (CoefficientModel.xi_bounds gives min Xi).  The
    integrand's samples read Xi on the table nodes from Xi's own table.
    """
    shift = model.xi_bounds()[0]
    table = running_integral_table(np.exp(shift - node_values(model.xi_table)),
                                   "the fixation integrand exp(-Xi)")
    total = float(table_values(table, 1.0))
    table /= total
    with np.errstate(over="ignore"):  # c may exceed the double range; psi does not
        c = total * np.exp(-shift)
    return FixationProfile(norm_const=c, table=table)

