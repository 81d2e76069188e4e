"""Singular Sturm-Liouville eigenproblem behind the forward equation.

Solves the backward form  -(e^Xi u')' = lambda e^Xi u / (Psi x (1 - x)),
with Xi the running integral of xi, for phi = e^(Xi/2) u, by Galerkin on the
trial functions sqrt(Psi) u_n, u_n(x) = P_n(y) - P_{n+2}(y), y = 2x - 1
(J. Shen, SIAM J. Sci. Comput. 15, 1994; C. L. Epstein and R. Mazzeo, SIAM
J. Math. Anal. 42, 2010).  In phi neither Galerkin matrix holds an
exponential, and sqrt(Psi) makes the mass matrix diagonal for every Psi.
Each u_n vanishes at both endpoints and u_n / (x (1 - x)) is again a
polynomial, so the density modes take exact endpoint values, and their
masses and point values are exact up to the truncation, which converges
spectrally.  What e^(Xi/2) still costs is roundoff: the modes grow like
e^(Xi range / 2), which evolution.solutions_at gates.  The basis holds its
model and no output grid: callers sample it at their own points, and only
this module applies sqrt(Psi) and e^(+-Xi/2) between modes and densities.
Rules come from _quadrature.gauss01 and eigh from numpy, so no scipy loads.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import legvander

from ._quadrature import gauss01

@dataclass
class SpectralBasis:
    """Eigenpairs of the weighted eigenproblem and the mode data runs read.

    eigenvalues: lowest modes, ascending.
    coefficients: (N, m) Galerkin coefficients of phi_j / sqrt(Psi) in the
        u_n, phi_j = e^(Xi/2) u_j orthonormal under 1 / (Psi x (1 - x)) and
        signed so the slope at 0 is positive; N = m + 16, 32, ..., 256 from
        the coefficient tail (build_basis).
    model: the CoefficientModel solved, for sqrt(Psi) and e^(Xi/2) at any points.
    quad_nodes, quad_weights: the rule gauss01(2N + 40) on [0, 1] that
        assembled the Galerkin matrices; mode masses reuse it, and projections
        map it onto the initial density's panels (InitialMeasure.integrate).
    density_modes: (len(quad_nodes) + 2, m) q_j on the basis's closed rule,
        x = 0, the Gauss nodes, x = 1; the end rows are exact.
    mode_masses: integrals of the density modes over [0, 1].
    initial_pairings: (4, m) <chi_k, q_j>, chi_k = x (1 - x) P_k(2x - 1) e^(-Xi/2).
    identity_residuals: per mode, the largest scaled defect of the weak-form
        identity over its test functions (see _identity_residuals).
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    model: object
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    density_modes: np.ndarray
    mode_masses: np.ndarray
    initial_pairings: np.ndarray
    identity_residuals: np.ndarray

    @property
    def n_modes(self):
        return len(self.eigenvalues)

    @property
    def endpoint_values(self):
        """(2, m) exact q_j(0) and q_j(1)."""
        return self.density_modes[[0, -1]]

    @property
    def mode_sup(self):
        """max |q_j| over the Gauss nodes and both endpoints."""
        return np.abs(self.density_modes).max(axis=0)

    def density_values(self, weights, x):
        """sum_j weights[r, j] q_j(x) at points x in [0, 1], one row per row of
        the (rows, m) weights."""
        x = np.asarray(x, float)
        return self.series_values(weights, x, _density_scale(self.model, x))

    def mode_values(self, x):
        """Modes phi_j = e^(Xi/2) u_j at points x in [0, 1], shape (len(x), m)."""
        x = np.atleast_1d(np.asarray(x, float))
        scale = x * (1.0 - x) * np.sqrt(self.model.psi_at(x))
        return self.series_values(np.eye(self.n_modes), x, scale).T

    def series_values(self, weights, x, scale):
        """sum_j weights[r, j] phi_j(x) / (sqrt(Psi) x (1 - x)) at points x, times
        scale at x: one row per row of the (rows, m) weights, one product with
        one slope table, the factors f_n of _quotient_factors folded into the
        weights."""
        n_basis = len(self.coefficients)
        folded = (weights @ self.coefficients.T) * _quotient_factors(n_basis)
        return folded @ _legendre_slopes(2.0 * x - 1.0, n_basis + 1)[1:-1] * scale

    def pairings(self, measure):
        """int e^(-Xi/2) phi_j dmeasure for each mode j, from the N moments of
        e^(-Xi/2) sqrt(Psi) u_n that one measure.integrate takes on the basis's rule."""
        n_basis = len(self.coefficients)
        moments = measure.integrate(
            lambda x: (_legendre_slopes(2.0 * x - 1.0, n_basis + 1)[1:-1]
                       * (x * (1.0 - x) * np.exp(-0.5 * self.model.xi_integral(x))
                          * np.sqrt(self.model.psi_at(x)))).T,
            rule=(self.quad_nodes, self.quad_weights))
        return self.coefficients.T @ (_quotient_factors(n_basis) * moments)


def _legendre_slopes(y, n):
    """P_k'(y) for k = 0..n, one row per degree.  P'_{k+1} is the Gegenbauer
    polynomial C^(3/2)_k, so the rows follow its three-term recurrence
    (DLMF 18.9.1), P'_{k+1} = ((2k+1)/k) y P'_k - ((k+1)/k) P'_{k-1}, written
    in place with four array operations per degree."""
    dp = np.empty((n + 1, len(y)))
    dp[0], dp[1] = 0.0, 1.0
    rows, term = list(dp), np.empty_like(y)
    for k in range(1, n):
        np.multiply(y, rows[k], out=rows[k + 1])
        rows[k + 1] *= (2 * k + 1) / k
        rows[k + 1] -= np.multiply(rows[k - 1], (k + 1) / k, out=term)
    return dp


def _density_scale(model, x):
    """e^(Xi/2) / sqrt(Psi) at points x, taking sum_n c_nj u_n / (x (1 - x)) to q_j."""
    return np.exp(0.5 * model.xi_integral(x)) / np.sqrt(model.psi_at(x))


def _quotient_factors(n_basis):
    """f_n for n < N, with u_n(x) / (x (1 - x)) = f_n P'_{n+1}(2x - 1)."""
    n = np.arange(n_basis)
    return 4.0 * (2 * n + 3) / ((n + 1) * (n + 2))


def build_basis(model, n_modes):
    """Lowest n_modes eigenpairs, with the mode data that runs read.

    The trial functions sqrt(Psi) u_n, n < N, give the stiffness
    K = int (phi_m' - xi phi_m / 2)(phi_n' - xi phi_n / 2) rows
    sqrt(w Psi) (u_n' + g u_n), g = (Psi' - Pi) / (2 Psi), on a Gauss rule of
    2N + 40 nodes, and the mass M = int u_m u_n / (x (1 - x)) = diag(f_n)
    exactly (f_n from _quotient_factors, the P'_{n+1} being orthogonal under
    x (1 - x)).  With y the eigenvectors of D K D, D = diag(f_n^(-1/2)),
    c = D y solves K c = lambda M c and is M-orthonormal.  N starts at
    n_modes + 16, and the padding doubles up to 256 while the last 8
    coefficients of some kept column exceed 1e-8 of its largest (J. L.
    Aurentz and L. N. Trefethen, ACM TOMS 43, 2017).  The neutral and Kimura
    (1, -0.5) models keep n_modes + 16; at 64 modes beta = +-40, +-100 take
    96 and Psi = 0.255 - x + x^2 the ceiling 320; Psi = 1 + 2x, Pi = -1
    takes 256 at 128 modes.  The mode data come from the nodes and the ends.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1; got {n_modes}")
    dpsi = P.polyder(model.psi_coeffs)
    pad = 16
    while True:
        n_basis = n_modes + pad
        xq, wq = gauss01(2 * n_basis + 40)
        dp = _legendre_slopes(2.0 * xq - 1.0, n_basis + 1)
        quot = dp[1:-1] * _quotient_factors(n_basis)[:, None]  # u_n / (x (1 - x))
        psi = model.psi_at(xq)
        # u_n' + g u_n, the x-derivative of u_n being 2 (P_n' - P_{n+2}')
        g = 0.5 * (P.polyval(xq, dpsi) - model.pi_at(xq)) / psi
        flux = 2.0 * (dp[:-2] - dp[2:]) + quot * (g * xq * (1.0 - xq))
        # K as B B^T of weighted rows, numpy's symmetric rank-k product;
        # eigh's divide-and-conquer solve finds all N pairs, and the lowest are kept
        b = flux * np.sqrt(wq * psi)
        stiffness = b @ b.T
        d = np.sqrt(1.0 / _quotient_factors(n_basis))[:, None]
        coef = d * np.linalg.eigh(d * stiffness * d.T)[1][:, :n_modes]
        size = np.abs(coef)
        if pad == 256 or np.all(size[-8:].max(axis=0) <= 1e-8 * size.max(axis=0)):
            break
        pad *= 2
    # eigh's eigenvalues hold to eps times the largest of all N; the Rayleigh
    # quotients c^T K c (c^T M c = 1) hold to roundoff of each
    lam = np.einsum("ij,ij->j", coef, stiffness @ coef)

    n = np.arange(n_basis)  # u_n / (x (1 - x)) is (+-1)^n 2 (2n + 3) at y = +-1
    ends = (4 * n + 6.0) * np.vstack(((-1.0) ** n, np.ones(n_basis)))
    coef *= np.where(ends[0] @ coef < 0.0, -1.0, 1.0)
    ends = ends @ coef
    nodes = quot.T @ coef  # phi_j / (sqrt(Psi) x (1 - x)) at the Gauss nodes
    # q_j on the closed rule: 0, the Gauss nodes, 1
    scale = _density_scale(model, np.concatenate(([0.0], xq, [1.0])))
    table = np.vstack((ends[:1], nodes, ends[1:])) * scale[:, None]
    legendre = legvander(2.0 * xq - 1.0, 5)  # P_k(2x - 1), k = 0..5, one column each
    chi_weights = wq * xq * (1.0 - xq) / np.sqrt(psi)  # the rule's, for <chi_k, q_j>
    return SpectralBasis(
        eigenvalues=lam,
        coefficients=coef,
        model=model,
        quad_nodes=xq,
        quad_weights=wq,
        density_modes=table,
        mode_masses=(wq * scale[1:-1]) @ nodes,
        initial_pairings=(legendre[:, :4] * chi_weights[:, None]).T @ nodes,
        identity_residuals=_identity_residuals(model, xq, wq, legendre.T, dp[:6], table, lam),
    )


def _identity_residuals(model, x, w, p, dp, table, lam):
    """Per mode j, the largest scaled defect over the test functions
    chi in {1, x (1 - x) P_k(2x - 1), k = 0..5} of the identity
    <L* chi, q_j> + lambda_j <chi, q_j> = chi(0) Psi(0) q_j(0) + chi(1) Psi(1) q_j(1),
    L* chi = F chi'' + G chi', which each mode of the paper's boundary-coupled
    weak form satisfies; the row chi = 1 ties the mode mass to the boundary
    flux.  p and dp hold P_k and P_k' at the Gauss nodes x with weights w,
    table the q_j at 0, those nodes and 1.  With y = 2x - 1,
    chi_k' = (1 - y^2) P_k' / 2 - y P_k and, by Legendre's equation,
    chi_k'' = -(k (k + 1) + 2) P_k - 2 y P_k'.  Each defect is relative to the
    sum of its terms' magnitudes, |L* chi| and |chi| paired with |q_j|."""
    modes = table[1:-1]
    y = 2.0 * x - 1.0
    k = np.arange(len(p))[:, None]
    chi = np.vstack((np.ones_like(x), x * (1.0 - x) * p))
    slope = 0.5 * (1.0 - y * y) * dp - y * p
    curve = -(k * (k + 1) + 2.0) * p - 2.0 * y * dp
    adjoint = np.vstack((np.zeros_like(x), model.diffusion(x) * curve + model.drift(x) * slope))
    # every chi_k vanishes at both ends, so only the row chi = 1 meets the flux
    flux = model.psi_at(np.array([0.0, 1.0]))[:, None] * table[[0, -1]]
    size = np.abs(modes)
    defect = (w * adjoint) @ modes + lam * ((w * chi) @ modes)
    defect[0] -= flux.sum(axis=0)
    scale = (w * np.abs(adjoint)) @ size + lam * ((w * np.abs(chi)) @ size)
    scale[0] += np.abs(flux).sum(axis=0)
    return np.max(np.abs(defect) / scale, axis=0)


def eigenvalue_growth(basis):
    """Quadratic-growth constant of the spectrum.

    Fits eigenvalue against mode-index squared over the top half of the
    resolved modes; returns the slope and the per-mode residuals
    lambda_j / j^2 - K for the fitted modes.
    """
    m = basis.n_modes
    if m < 16:
        raise ValueError("at least 16 modes are needed for a growth fit")
    j = np.arange(m // 2, m, dtype=float)
    lam = basis.eigenvalues[m // 2:]
    k_est = float(np.polyfit(j**2, lam, 1)[0])
    residuals = lam / j**2 - k_est
    return k_est, residuals

