"""Singular Sturm-Liouville eigenproblem behind the forward equation.

Solves the backward form  -(e^Xi u')' = lambda e^Xi u / (Psi x (1 - x)),
with Xi the running integral of xi, for phi = e^(Xi/2) u, by Galerkin on the
polynomials u_n(x) = P_n(y) - P_{n+2}(y), y = 2x - 1 (J. Shen, SIAM J. Sci.
Comput. 15, 1994; C. L. Epstein and R. Mazzeo, SIAM J. Math. Anal. 42, 2010).
In phi neither Galerkin matrix holds an exponential, so their conditioning
does not depend on the range of Xi.  Each u_n vanishes at both endpoints and
u_n / (x (1 - x)) is again a polynomial, so the density modes take exact
endpoint values, and their masses and point values are exact up to the
polynomial truncation, which converges spectrally.  What the factor e^(Xi/2)
still costs is roundoff: the modes grow like e^(Xi range / 2), which
evolution.solutions_at gates.  The Gauss rule is _quadrature.gauss01, and
the mass matrix's Cholesky factor reduces the eigenproblem to
numpy.linalg.eigh, so importing the module loads no scipy.
"""

from dataclasses import dataclass

import numpy as np

from ._quadrature import gauss01, running_integral_table, table_values

@dataclass
class SpectralBasis:
    """Eigenpairs of the weighted eigenproblem, with density modes sampled on
    a uniform grid.

    interior_grid: output sampling points x_i = i h, h = 1/(n+1), i = 1..n;
        they play no part in the solve.
    eigenvalues: lowest modes, ascending.
    coefficients: (N, m) Galerkin coefficients of phi_j = e^(Xi/2) u_j in the
        basis u_n, orthonormal under the weight 1 / (Psi x (1 - x)) and
        signed so the slope at 0 is positive.
    quad_nodes, quad_weights: the rule gauss01(2N + 40) on [0, 1] that
        assembled the Galerkin matrices; mode masses reuse it, and projections
        map it onto the initial density's panels (InitialMeasure.integrate).
    density_modes: (n+2, m) density modes q_j = e^(Xi/2) phi_j / (Psi x (1 - x))
        on the closed grid, endpoint values included.
    mode_masses: integrals of the density modes over [0, 1].
    """

    interior_grid: np.ndarray
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    density_modes: np.ndarray
    mode_masses: np.ndarray

    @property
    def n_modes(self):
        return len(self.eigenvalues)

    @property
    def closed_grid(self):
        return np.concatenate(([0.0], self.interior_grid, [1.0]))

    @property
    def eigenfunctions(self):
        """(n, m) samples of phi_j on the interior grid."""
        return self.mode_values(self.interior_grid)

    def mode_values(self, x):
        """Polynomial modes phi_j = e^(Xi/2) u_j at points x in [0, 1],
        shape (len(x), m)."""
        x = np.atleast_1d(np.asarray(x, float))
        slopes = _legendre_slopes(2.0 * x - 1.0, len(self.coefficients) + 1)
        u = _quotient_rows(slopes).T @ self.coefficients
        u *= (x * (1.0 - x))[:, None]
        return u


def _legendre_slopes(y, n):
    """P_k'(y) for k = 0..n, one row per degree, by the recurrences
    P_{k+1} = ((2k+1) y P_k - k P_{k-1}) / (k+1) and
    P'_{k+1} = P'_{k-1} + (2k+1) P_k; only two rows of P are kept."""
    dp = np.zeros((n + 1, len(y)))
    dp[1] = 1.0
    p_prev, p = np.ones_like(y), y
    for k in range(1, n):
        dp[k + 1] = dp[k - 1] + (2 * k + 1) * p
        p_prev, p = p, ((2 * k + 1) * y * p - k * p_prev) / (k + 1)
    return dp


def _quotient_rows(dp):
    """u_n(x) / (x (1 - x)) = 4 (2n+3) / ((n+1)(n+2)) P'_{n+1}(2x - 1) for
    n < N, one row per n, from the slopes dp = _legendre_slopes(2x - 1, N + 1);
    finite at the endpoints."""
    n = np.arange(len(dp) - 2)[:, None]
    return dp[1:-1] * (4.0 * (2 * n + 3) / ((n + 1) * (n + 2)))


def build_basis(model, n_modes, n_grid):
    """Lowest n_modes eigenpairs, with density modes on the closed grid of
    an n_grid-point interior grid.

    Stiffness K = int (phi_m' - xi phi_m / 2)(phi_n' - xi phi_n / 2) and mass
    M = int phi_m phi_n / (Psi x (1 - x)) are assembled for the first
    N = n_modes + 32 polynomials phi_n = u_n with a Gauss-Legendre rule of
    2N + 40 nodes.  M is the Gram matrix of independent polynomials under a
    positive weight, so it has a Cholesky factor L; with y the eigenvectors of
    L^-1 K L^-T, c = L^-T y solve K c = lambda M c and are M-orthonormal,
    which is the weighted normalization.
    """
    n_modes = int(n_modes)
    n_grid = int(n_grid)
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1; got {n_modes}")
    n_basis = n_modes + 32
    xq, wq = gauss01(2 * n_basis + 40)
    dp = _legendre_slopes(2.0 * xq - 1.0, n_basis + 1)
    quot = _quotient_rows(dp)
    # phi_n' - xi phi_n / 2, the x-derivative of u_n being 2 (P_n' - P_{n+2}')
    flux = 2.0 * (dp[:-2] - dp[2:]) - quot * (0.5 * model.xi(xq) * xq * (1.0 - xq))
    stiffness = (flux * wq) @ flux.T
    mass = (quot * (wq * xq * (1.0 - xq) / model.psi_at(xq))) @ quot.T
    # an explicit L^-1 is cheaper than numpy's general solver; eigh's
    # divide-and-conquer solve finds all N pairs, and the lowest are kept
    li = np.linalg.inv(np.linalg.cholesky(mass))
    lam, y = np.linalg.eigh(li @ stiffness @ li.T)
    lam, coef = lam[:n_modes], li.T @ y[:, :n_modes]

    x = np.arange(1, n_grid + 1) * (1.0 / (n_grid + 1))
    closed = np.concatenate(([0.0], x, [1.0]))
    q = _quotient_rows(_legendre_slopes(2.0 * closed - 1.0, n_basis + 1)).T @ coef
    sign = np.where(q[0] < 0.0, -1.0, 1.0)
    coef *= sign
    q *= sign * (np.exp(0.5 * model.xi_integral(closed)) / model.psi_at(closed))[:, None]
    half_xi = 0.5 * model.xi_integral(xq)
    return SpectralBasis(
        interior_grid=x,
        eigenvalues=lam,
        coefficients=coef,
        quad_nodes=xq,
        quad_weights=wq,
        density_modes=q,
        mode_masses=(wq * np.exp(half_xi) / model.psi_at(xq)) @ (quot.T @ coef),
    )


def flux_identity_residuals(model, basis):
    """Relative defect of the integrated-eigenmode identity.

    Integrating the density-mode equation over [0, 1] ties each mode mass to
    the boundary flux:  mass * lambda = Psi(0) q(0) + Psi(1) q(1).  Residuals
    are normalized by Psi(0)|q(0)| + Psi(1)|q(1)| so antisymmetric modes
    (where both sides nearly vanish) stay meaningful.
    """
    psi0 = model.psi_at(0.0)
    psi1 = model.psi_at(1.0)
    q0 = basis.density_modes[0, :]
    q1 = basis.density_modes[-1, :]
    lhs = basis.mode_masses * basis.eigenvalues
    rhs = psi0 * q0 + psi1 * q1
    scale = psi0 * np.abs(q0) + psi1 * np.abs(q1)
    return np.abs(lhs - rhs) / scale


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


def _phase_values(model, basis):
    """Liouville-Green phase S(x) = integral_0^x sqrt(weight) at interior points.

    Substituting x = sin^2(pi tau / 2) turns sqrt(weight) dx into
    pi dtau / sqrt(Psi), which is smooth on [0, 1] although the weight is
    singular at both endpoints, so S is one running-integral table in tau.
    """
    table = running_integral_table(
        lambda tau: np.pi / np.sqrt(model.psi_at(np.sin(0.5 * np.pi * tau) ** 2)),
        "the Liouville-Green phase integrand",
    )
    return table_values(table, np.arcsin(np.sqrt(basis.interior_grid)) * (2.0 / np.pi))


def bessel_comparison(model, basis, j):
    """Sup distance on (0, 1/2] between eigenfunction j and its turning-point
    comparison function built from the Bessel function of order one.

    The comparison is A * S * J1(sqrt(lambda_j) S) / sqrt(2 S sqrt(w)), with
    S the Liouville-Green phase and A fixed by unit weighted norm, matching
    the eigenfunction normalization.  Accuracy degrades away from the left
    endpoint; that is expected and simply reflected in the returned value.
    """
    from scipy.special import j1
    j = int(j)
    if j < 4:
        raise ValueError(f"mode {j} lies outside the asymptotic regime; use modes >= 4")
    if j >= basis.n_modes:
        raise ValueError(f"mode {j} not in basis ({basis.n_modes} modes)")
    x = basis.interior_grid
    h = 1.0 / (len(x) + 1)
    w = model.weight(x)
    s_vals = _phase_values(model, basis)
    z = np.sqrt(basis.eigenvalues[j]) * s_vals
    comp = s_vals * j1(z) / np.sqrt(2.0 * s_vals * np.sqrt(w))
    comp /= np.sqrt(h * np.sum(comp**2 * w))
    phi = basis.eigenfunctions[:, j]
    if comp[0] * phi[0] < 0.0:
        comp = -comp
    mask = x <= 0.5
    return float(np.max(np.abs(phi[mask] - comp[mask])))
