import mpmath
import numpy as np
import pytest
import scipy.linalg

import kimdiff as kd
from kimdiff._quadrature import gauss01
from kimdiff.spectral import _legendre_slopes, _quotient_factors

from conftest import GRID, closed_grid, demo_function, growth_constant, neutral_mode_exact

INTERIOR = GRID[1:-1]  # the default resolution's interior points


def test_positive_spectrum_random_models():
    rng = np.random.default_rng(3)
    for _ in range(4):
        psi = (0.5 + rng.uniform(0, 1), rng.uniform(-0.2, 0.2))
        pi = tuple(rng.uniform(-1.5, 1.5, rng.integers(1, 4)))
        m = kd.CoefficientModel(psi, pi)
        basis = kd.build_basis(m, 8)
        assert basis.eigenvalues[0] > 0
        assert np.all(np.diff(basis.eigenvalues) > 0)


def test_oscillation_counts(neutral_basis):
    phi = neutral_basis.mode_values(INTERIOR)
    for j in range(neutral_basis.n_modes):
        crossings = int(np.sum(phi[:-1, j] * phi[1:, j] < 0))
        assert crossings == j


def test_density_modes_match_closed_form(neutral):
    # the sign too, q_j(0) > 0; the largest gap reads 3.4e-14
    basis = kd.build_basis(neutral, 6)
    grid = closed_grid(4096)
    table = basis.density_values(np.eye(6), grid).T
    for j in range(6):
        exact = neutral_mode_exact(j, grid)
        assert np.max(np.abs(table[:, j] - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("model", [
    (0.0, 0.0), (1.0, -0.5), (0.0, 40.0), (0.0, -40.0), (0.0, 100.0), (0.0, -100.0),
    ((0.5, -0.2, 0.2), (1.0, 3.0)),
], ids=["neutral", "kimura", "beta40", "beta-40", "beta100", "beta-100", "polynomial_psi"])
def test_kept_mode_data_match_the_grid_table(model):
    # the basis keeps the exact endpoint values and a sup over its Gauss nodes
    # and both ends; every mode peaks at an end here, so the sup is that of
    # the density modes sampled on the default resolution's 2050 points
    model = kd.make_kimura(*model) if np.ndim(model[0]) == 0 else kd.CoefficientModel(*model)
    basis = kd.build_basis(model, 64)
    table = basis.density_values(np.eye(64), GRID).T
    sup = np.abs(table).max(axis=0)
    assert np.max(np.abs(basis.mode_sup / sup - 1.0)) <= 1e-12
    assert np.max(np.abs(basis.endpoint_values - table[[0, -1]]) / sup) <= 1e-12


@pytest.mark.parametrize("model, modes, bound", [
    ((0.0, 0.0), 9, 2e-13), ((0.0, 0.0), 16, 4e-13), ((0.0, 0.0), 64, 2e-12),
    ((1.0, -0.5), 64, 2e-12), ((1.0, -0.5), 128, 6e-12),
    ((0.0, 20.0), 64, 3e-12), ((0.0, 40.0), 64, 2e-12), ((0.0, 100.0), 64, 2e-12),
    ((0.0, 100.0), 256, 4e-11), (((1.0, 2.0), (-1.0,)), 128, 1e-10),
], ids=["neutral9", "neutral16", "neutral64", "kimura64", "kimura128", "beta20",
        "beta40", "beta100", "beta100-256", "psi1+2x"])
def test_weak_form_identity_holds_for_every_mode(model, modes, bound):
    # <L* chi, q_j> + lambda_j <chi, q_j> = chi(0) Psi(0) q_j(0) + chi(1) Psi(1) q_j(1)
    # for chi = 1 and x (1 - x) P_k(2x - 1), k = 0..5: with exact endpoint
    # values and the Gauss rule it holds to roundoff for every mode; flipping
    # the sign of G in the table reads 5e-2 on kimura64 and 1.0 on beta20;
    # Psi = 1 + 2x reads 1.5e-12 at N = 256 and 3.2e-3 at N = modes + 32
    model = kd.make_kimura(*model) if np.ndim(model[0]) == 0 else kd.CoefficientModel(*model)
    residuals = kd.build_basis(model, modes).identity_residuals
    assert residuals.shape == (modes,)
    assert np.max(residuals) <= bound


@pytest.mark.parametrize("modes", [64, 128])
def test_neutral_endpoint_values_at_roundoff(neutral, modes):
    # q_j(0) and q_j(1) come from the Gauss rule's weights through the
    # Galerkin matrices, so an inexact end-node weight shows here first; the
    # eigenvalues are (j + 1)(j + 2) within 7.2e-15 at 128 modes
    basis = kd.build_basis(neutral, modes)
    assert basis.quad_nodes is gauss01(2 * len(basis.coefficients) + 40)[0]
    j = np.arange(modes)
    assert np.max(np.abs(basis.eigenvalues / ((j + 1) * (j + 2)) - 1)) <= 1e-13
    for x, row in ((0.0, 0), (1.0, -1)):
        exact = np.array([neutral_mode_exact(k, x) for k in j])
        assert np.max(np.abs(basis.density_modes[row, :] / exact - 1)) <= 5e-12


def _polynomial_phi_reference(model, modes):
    """lambda_j, (q_j(0), q_j(1)) and Q_j from the Galerkin problem in the
    polynomials phi = sum_n c_n u_n themselves, N = modes + 256: stiffness
    int (phi_m' - xi phi_m / 2)(phi_n' - xi phi_n / 2) and the quadrature mass
    int phi_m phi_n / (Psi x (1 - x)), solved by LAPACK's generalized
    symmetric eigensolver (scipy.linalg.eigh(K, M)), no solve of the package"""
    n_basis = modes + 256
    x, w = gauss01(2 * n_basis + 40)
    dp = _legendre_slopes(2.0 * x - 1.0, n_basis + 1)
    quot = dp[1:-1] * _quotient_factors(n_basis)[:, None]  # u_n / (x (1 - x))
    rows = (2.0 * (dp[:-2] - dp[2:]) - quot * (0.5 * model.xi(x) * x * (1.0 - x))) * np.sqrt(w)
    mass = (quot * (w * x * (1.0 - x) / model.psi_at(x))) @ quot.T
    lam, coef = scipy.linalg.eigh(rows @ rows.T, mass, subset_by_index=(0, modes - 1))
    n = np.arange(n_basis)
    ends = (4 * n + 6.0) * np.vstack(((-1.0) ** n, np.ones(n_basis))) @ coef
    sign = np.where(ends[0] < 0.0, -1.0, 1.0)  # slope at 0 positive
    closed = np.array([0.0, 1.0])
    ends *= sign * (np.exp(0.5 * model.xi_integral(closed)) / model.psi_at(closed))[:, None]
    masses = sign * ((w * np.exp(0.5 * model.xi_integral(x)) / model.psi_at(x)) @ (quot.T @ coef))
    return lam, ends, masses


@pytest.mark.parametrize("psi, pi, modes, kept, bounds", [
    # bounds on lambda_j (relative), q_j(0) and q_j(1) (relative to the mode's
    # sup) and Q_j (relative to the largest), over the first `kept` modes;
    # measured 5.9e-13, 4.8e-12, 3.2e-13 and 9.9e-13, 3.5e-12, 9.8e-13 for
    # the first two rows (N = 96 and 160), 8.3e-12, 1.4e-11, 1.2e-12 for
    # Psi = 1 + 2x (N = 256), 1.0e-11, 1.0e-11, 1.3e-12 for the lower half
    # of the Psi-min modes (N = 320) and, for Psi = 0.05, 3.1e-15 against the
    # closed form 0.05 (j + 1)(j + 2), 9.5e-12 and 3.6e-13 (N = 80)
    ((0.5, -0.2, 0.2), (1.0, 3.0), 64, 64, (3e-12, 2.5e-11, 1.6e-12)),
    ((0.5, -0.2, 0.2), (1.0, 3.0), 128, 128, (5e-12, 1.8e-11, 5e-12)),
    ((1.0, 2.0), (-1.0,), 128, 128, (4e-11, 7e-11, 6e-12)),
    ((0.255, -1.0, 1.0), (0.0,), 64, 32, (5e-11, 5e-11, 6.5e-12)),
    ((0.05,), (0.0,), 64, 64, (1.6e-14, 5e-11, 1.8e-12)),
], ids=["quadratic_psi64", "quadratic_psi128", "psi1+2x", "psi_min_low", "psi0.05"])
def test_modes_match_the_generalized_eigensolver(psi, pi, modes, kept, bounds):
    model = kd.CoefficientModel(psi, pi)
    basis = kd.build_basis(model, modes)
    lam, ends, masses = _polynomial_phi_reference(model, modes)
    if psi == (0.05,):
        j = np.arange(modes)
        lam = 0.05 * (j + 1) * (j + 2)
    gaps = (np.abs(basis.eigenvalues / lam - 1.0),
            (np.abs(basis.endpoint_values - ends) / basis.mode_sup).max(axis=0),
            np.abs(basis.mode_masses - masses) / np.max(np.abs(masses)))
    for gap, bound in zip(gaps, bounds):
        assert np.max(gap[:kept]) <= bound


def test_mode_values_are_weighted_orthonormal_for_a_varying_psi():
    # phi_j = sqrt(Psi) sum_n c_nj u_n: without the sqrt(Psi) factor the
    # Gram matrix under 1 / (Psi x (1 - x)) is off by O(1)
    model = kd.CoefficientModel((1.0, 2.0), (-1.0,))
    basis = kd.build_basis(model, 128)
    x = basis.quad_nodes
    phi = basis.mode_values(x)
    gram = (phi * (basis.quad_weights * model.weight(x))[:, None]).T @ phi
    assert np.max(np.abs(gram - np.eye(basis.n_modes))) <= 1e-12


@pytest.mark.parametrize("model, modes, n_basis", [
    ((0.0, 0.0), 64, 80), ((1.0, -0.5), 128, 144), ((0.0, 40.0), 64, 96),
    ((0.0, 100.0), 64, 96), (((0.255, -1.0, 1.0), (0.0,)), 64, 320),
    (((1.0, 2.0), (-1.0,)), 128, 256),
], ids=["neutral", "kimura", "beta40", "beta100", "psi_min", "psi1+2x"])
def test_galerkin_size_follows_the_coefficient_tail(model, modes, n_basis):
    # N = modes + 16, 32, 64, 128, 256: the first at which the last 8
    # coefficients of every kept column are within 1e-8 of its largest, or
    # the ceiling (beta = 40 reads 7e-8 at modes + 16, beta = 100 9e-4;
    # Psi-min, least 0.005 at x = 1/2, still reads 1.3e-4 at the ceiling)
    model = kd.make_kimura(*model) if np.ndim(model[0]) == 0 else kd.CoefficientModel(*model)
    basis = kd.build_basis(model, modes)
    size = np.abs(basis.coefficients)
    assert len(size) == n_basis
    assert np.max(size[-8:].max(axis=0) / size.max(axis=0)) <= 1e-8 or n_basis == modes + 256


@pytest.mark.parametrize("n", [1, 2, 3, 24, 25, 64, 65, 232, 360])
def test_gauss_rule_matches_mpmath(n):
    # reference: from each double node, mapped to y = 2x - 1 in [-1, 1], two
    # Newton steps at 40 digits (the first already squares its error), then
    # w = 1 / ((1 - y^2) P_n'(y)^2) at the refined root.  Only the nodes with
    # x <= 1/2 are refined (the middle one too for odd n): the asserts below
    # hold the rule mirror-symmetric, P_n's parity makes each weight check on
    # the upper half repeat one on the lower half, and an upper node, 1 - x
    # rounded, adds at most 2^-54 to its mirror's error (at n = 360 the largest
    # node errors are 4.1e-17 on the lower half and 8.3e-17 on the upper)
    nodes, weights = gauss01(n)
    assert gauss01(n) is gauss01(n)
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert len(nodes) == n and np.all(np.diff(nodes) > 0)
    assert np.array_equal(weights, weights[::-1])
    assert np.all(nodes + nodes[::-1] == 1.0)

    def legendre(y):
        p_prev, p = mpmath.mpf(1), y
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * y * p - k * p_prev) / (k + 1)
        return p, n * (y * p - p_prev) / (y * y - 1)

    with mpmath.workdps(40):
        for x0, w0 in zip(nodes[:(n + 1) // 2], weights[:(n + 1) // 2]):
            y = 2 * mpmath.mpf(x0) - 1
            for _ in range(2):
                p, dp = legendre(y)
                y -= p / dp
            assert abs(x0 - (1 + y) / 2) <= 2e-16
            assert abs(w0 * (1 - y * y) * legendre(y)[1] ** 2 - 1) <= 1e-11


def test_legendre_slopes_match_mpmath():
    # reference: P_k by its three-term recurrence at 40 digits, then
    # P_k' = k (y P_k - P_{k-1}) / (y^2 - 1), and P_k'(+-1) = (+-1)^(k-1) k (k+1) / 2
    # exactly; the error may reach k 1e-15 of P_k'(1) = k (k+1) / 2
    degrees = (5, 50, 161, 300, 600)
    y = np.concatenate(([-1.0, 0.0, 1.0], np.random.default_rng(5).uniform(-1.0, 1.0, 40),
                        1.0 - 10.0 ** -np.arange(1, 9)))
    slopes = _legendre_slopes(y, degrees[-1])
    with mpmath.workdps(40):
        for i, yi in enumerate(y):
            ym, p_prev, p = mpmath.mpf(yi), mpmath.mpf(1), mpmath.mpf(yi)
            for k in range(1, degrees[-1] + 1):
                if k in degrees:
                    exact = (ym ** (k - 1) * k * (k + 1) / 2 if abs(yi) == 1.0
                             else k * (ym * p - p_prev) / (ym * ym - 1))
                    assert abs(slopes[k, i] - exact) <= k * 1e-15 * k * (k + 1) / 2, (k, yi)
                p_prev, p = p, ((2 * k + 1) * ym * p - k * p_prev) / (k + 1)


def test_antisymmetric_mode_has_zero_mass(neutral_basis):
    # measured 5.9e-15 (Q_0 = sqrt(6)) and 1.1e-13 of q_1(0)
    q1 = neutral_basis.density_modes[:, 1]
    assert abs(neutral_basis.mode_masses[1]) <= 1e-13 * neutral_basis.mode_masses[0]
    assert abs(q1[0] + q1[-1]) <= 1e-12 * abs(q1[0])


def test_growth_constant(neutral):
    basis = kd.build_basis(neutral, 32)
    k_est = growth_constant(basis)
    j = np.arange(16, 32)
    residuals = basis.eigenvalues[16:] / j**2 - k_est
    assert abs(k_est - 1.0) <= 0.1
    assert abs(residuals[-1]) < abs(residuals[0])
    assert np.max(np.abs(residuals)) < 0.2


def test_bessel_comparison_guards(neutral_basis):
    bessel_comparison = demo_function("05_endpoint_asymptotics.py", "bessel_comparison")
    with pytest.raises(ValueError):
        bessel_comparison(neutral_basis, 2, 2048)
    with pytest.raises(ValueError):
        bessel_comparison(neutral_basis, 99, 2048)


def test_phase_values_neutral(neutral):
    phase_values = demo_function("05_endpoint_asymptotics.py", "phase_values")
    s_vals = phase_values(neutral, INTERIOR)
    exact = 2 * np.arcsin(np.sqrt(INTERIOR))
    assert np.max(np.abs(s_vals - exact)) <= 1e-10


def test_eigenfunction_sup_bounded(neutral_basis):
    sup = np.max(np.abs(neutral_basis.mode_values(INTERIOR)), axis=0)
    assert np.max(sup) < 1.0


def test_density_mode_sup_scaling(neutral_basis):
    scaled = neutral_basis.mode_sup * neutral_basis.eigenvalues**-0.75
    assert np.max(scaled) / np.min(scaled) < 1.2


def test_eigenvalues_independent_of_output_grid(selection):
    # the basis takes no output grid: the caller's points set where the
    # density is sampled, and nothing else; every fourth point of the fine
    # grid is a point of the coarse one, up to an ulp
    basis = kd.build_basis(selection, 16)
    init = kd.InitialMeasure(density="bump(0.4, 0.2)")
    coeffs = kd.project_initial(basis, init)
    coarse, fine = (kd.solutions_at(coeffs, [1.0, 2.0], closed_grid(n))
                    for n in (1024, 4099))
    assert (np.array_equal(coarse.a, fine.a) and np.array_equal(coarse.b, fine.b)
            and np.array_equal(coarse.trunc_error, fine.trunc_error))
    assert np.max(np.abs(fine.grid[::4] - coarse.grid)) <= 1e-15
    assert np.max(np.abs(fine.density[:, ::4] - coarse.density)) <= 1e-12 * np.max(
        np.abs(coarse.density))


def test_resolution_guards(neutral):
    with pytest.raises(ValueError, match="n_modes must be at least 1"):
        kd.build_basis(neutral, 0)
