"""Coefficient model for the degenerate forward equation on [0, 1].

The equation's coefficients are kept in factored form

    F(x) = x (1 - x) Psi(x),        G(x) = x (1 - x) Pi(x),

with Psi and Pi polynomials and Psi strictly positive on [0, 1].  Everything
else the solvers need is derived from the factors: the drift-to-diffusion
ratio xi = Pi / Psi, the singular weight 1 / (Psi x (1 - x)), and the running
integral Xi of xi (tabulated once as a piecewise Legendre series on 1024 gaps
and reused everywhere), and the fixation probability psi.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from . import fixation as _fixation
from ._quadrature import TABLE_NODES, running_integral_table, table_values


def _trimmed(coeffs, name):
    """coeffs as floats, without the trailing ones at most 2^-53 of the largest."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError(f"{name} must contain at least one coefficient")
    small = 2.0**-53 * max(abs(c) for c in coeffs)
    while len(coeffs) > 1 and abs(coeffs[-1]) <= small:
        coeffs.pop()
    return tuple(coeffs)


@dataclass
class CoefficientModel:
    """Factored coefficients of the forward equation.

    psi_coeffs, pi_coeffs: polynomial coefficients in ascending-degree order.
    Construction drops trailing coefficients at most 2^-53 of the largest,
    which move no value on [0, 1] but would overflow the companion matrices
    that find the roots; it checks that the diffusion factor is positive
    where it is least, and tabulates Xi as xi_table (_quadrature.running_integral_table),
    which raises ValueError where xi varies too fast for the table.
    """

    psi_coeffs: tuple
    pi_coeffs: tuple
    xi_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.psi_coeffs = _trimmed(self.psi_coeffs, "psi_coeffs")
        self.pi_coeffs = _trimmed(self.pi_coeffs, "pi_coeffs")
        # Psi is least at 0, at 1 or at a root of Psi' (real parts, clipped into [0, 1])
        roots = P.polyroots(P.polyder(self.psi_coeffs)).real
        probe = np.clip(np.r_[0.0, 1.0, roots], 0.0, 1.0)
        vals = P.polyval(probe, self.psi_coeffs)
        if np.min(vals) <= 0.0:
            k = int(np.argmin(vals))
            raise ValueError(
                "diffusion factor positivity violated: Psi(x) <= 0 at "
                f"x = {probe[k]:.6g} (Psi = {vals[k]:.4g}); the equation "
                "requires Psi > 0 on [0, 1]"
            )
        # Xi enters only through e^Xi: its absolute error is a relative one downstream
        self.xi_table = running_integral_table(self.xi(TABLE_NODES), "xi = Pi / Psi")

    @cached_property
    def fixation(self):
        """psi as a FixationProfile (fixation.fixation_profile), built on first read and kept."""
        return _fixation.fixation_profile(self)

    # polynomial factor values

    def psi_at(self, x):
        return P.polyval(np.asarray(x, float), self.psi_coeffs)

    def pi_at(self, x):
        return P.polyval(np.asarray(x, float), self.pi_coeffs)

    def xi(self, x):
        """Drift-to-diffusion ratio Pi(x) / Psi(x)."""
        x = np.asarray(x, float)
        return P.polyval(x, self.pi_coeffs) / P.polyval(x, self.psi_coeffs)

    def diffusion(self, x):
        """F(x) = x (1 - x) Psi(x)."""
        x = np.asarray(x, float)
        return x * (1.0 - x) * self.psi_at(x)

    def drift(self, x):
        """G(x) = x (1 - x) Pi(x)."""
        x = np.asarray(x, float)
        return x * (1.0 - x) * self.pi_at(x)

    def weight(self, x):
        """Singular spectral weight 1 / (Psi(x) x (1 - x)); interior only."""
        x = np.asarray(x, float)
        return 1.0 / (self.psi_at(x) * x * (1.0 - x))

    def xi_integral(self, x):
        """Integral Xi of xi from 0 to x, for x in [0, 1] (scalar or array).

        Evaluates the Legendre table built at construction, to about roundoff.
        """
        out = table_values(self.xi_table, x)
        return float(out) if out.ndim == 0 else out

    def xi_bounds(self):
        """min and max of Xi on [0, 1], where Xi is extremal at 0, 1 or Pi's roots."""
        xi = self.xi_integral(np.r_[0.0, 1.0, np.clip(P.polyroots(self.pi_coeffs).real, 0.0, 1.0)])
        return float(np.min(xi)), float(np.max(xi))


def make_kimura(eta, beta):
    """Model with unit diffusion factor and linear selection Pi(x) = eta x + beta.

    eta = beta = 0 gives the neutral case F(x) = x (1 - x), G = 0.
    """
    return CoefficientModel(psi_coeffs=(1.0,), pi_coeffs=(beta, eta))
