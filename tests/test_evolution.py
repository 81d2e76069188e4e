import warnings

import numpy as np
import pytest

import kimdiff as kd
from kimdiff import evolution

from conftest import conservation_route, neutral_mode_exact

SQ6 = np.sqrt(6.0)


@pytest.fixture(scope="module")
def uniform_setup(neutral, neutral_basis, neutral_profile):
    """Neutral model with uniform density: exactly the leading mode."""
    init = kd.InitialMeasure(density="uniform")
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    return init, coeffs


def test_initial_measure_validation():
    with pytest.raises(ValueError):
        kd.InitialMeasure(a0=-0.1)
    with pytest.raises(ValueError):
        kd.InitialMeasure(atoms=[(1.2, 1.0)])
    with pytest.raises(ValueError):
        kd.InitialMeasure(atoms=[(0.5, 0.0)])
    with pytest.raises(ValueError):
        kd.InitialMeasure()  # zero total mass
    with pytest.raises(ValueError):
        kd.InitialMeasure(density=lambda x: -np.ones_like(x))
    m = kd.InitialMeasure(a0=0.25, b0=0.5, atoms=[(0.5, 0.25)])
    assert m.total_mass() == pytest.approx(1.0)


def test_bump_density_unit_mass():
    bump = kd.bump_density(0.4, 0.2)
    x = np.linspace(0, 1, 20001)
    assert np.trapezoid(bump(x), x) == pytest.approx(1.0, abs=1e-7)
    assert bump(0.1) == 0.0 and bump(0.75) == 0.0
    with pytest.raises(ValueError):
        kd.bump_density(0.05, 0.2)


def test_density_spec_forms():
    fn = kd.density_from_spec("uniform")
    assert np.all(fn(np.linspace(0, 1, 5)) == 1.0)
    fn = kd.density_from_spec("bump(0.5, 0.1)")
    assert fn(0.5) > 0
    with pytest.raises(ValueError):
        kd.density_from_spec("gaussian")
    fn = kd.density_from_spec((np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 0.0])))
    assert fn(0.25) == pytest.approx(1.0)


def test_projection_of_leading_mode_is_unit_vector(neutral, neutral_basis, neutral_profile):
    # initial density equal to the leading density mode transforms to the
    # leading eigenfunction, so the coefficients are (c, 0, 0, ...)
    q0 = neutral_basis.density_modes[:, 0]
    grid = neutral_basis.closed_grid
    init = kd.InitialMeasure(density=(grid, q0))
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    assert coeffs.values[0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(coeffs.values[1:])) <= 1e-6


def test_projection_boundary_atoms_only(neutral, neutral_basis, neutral_profile):
    init = kd.InitialMeasure(a0=0.3, b0=0.7)
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    assert np.all(coeffs.values == 0.0)


def test_projection_center_atom_kills_odd_modes(neutral, neutral_basis, neutral_profile):
    init = kd.InitialMeasure(atoms=[(0.5, 1.0)])
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    phi_mid = coeffs.values
    assert np.max(np.abs(phi_mid[1::2])) <= 1e-9
    assert np.min(np.abs(phi_mid[0::2])) > 1e-3


def test_projection_atom_near_endpoint_is_exact(neutral, neutral_profile):
    # an atom closer to 0 than the first point of a 512-point grid projects
    # onto the exact mode values u_j(x) = x (1 - x) q_j(x), with no warning
    x0 = 1e-4
    basis = kd.build_basis(neutral, 16, 512)
    init = kd.InitialMeasure(atoms=[(x0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = kd.project_initial(neutral, basis, init, neutral_profile)
    exact = np.array([x0 * (1 - x0) * neutral_mode_exact(j, x0) for j in range(16)])
    assert np.max(np.abs(coeffs.values - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_uniform_data_is_single_mode(uniform_setup):
    # quadrature-level agreement with the exact coefficient sqrt(6)/6
    _, coeffs = uniform_setup
    assert coeffs.values[0] == pytest.approx(SQ6 / 6, abs=1e-6)
    assert np.max(np.abs(coeffs.values[1:])) <= 1e-8


def test_series_single_mode_decay(neutral, neutral_basis, uniform_setup):
    init, coeffs = uniform_setup
    s1, s2, s3, s6 = kd.solutions_at(
        neutral, neutral_basis, coeffs, init, [1.0, 2.0, 3.0, 6.0]
    )
    assert np.allclose(s2.density, s1.density * np.exp(-2.0), atol=1e-12)
    sup = [np.max(np.abs(s.density)) for s in (s1, s3, s6)]
    assert sup[0] > sup[1] > sup[2]
    assert sup[2] <= 1e-5


def test_series_at_zero_returns_raw_density(neutral, neutral_basis, uniform_setup):
    init, coeffs = uniform_setup
    sol = kd.solutions_at(neutral, neutral_basis, coeffs, init, [0.0])[0]
    assert np.all(sol.density == 1.0)
    assert sol.trunc_error == 0.0


def test_single_mode_l1_norm(neutral, neutral_basis, uniform_setup):
    init, coeffs = uniform_setup
    sol = kd.solutions_at(neutral, neutral_basis, coeffs, init, [1.0])[0]
    expected = neutral_basis.mode_masses[0] * coeffs.values[0] * np.exp(-2.0)
    assert sol.density_l1() == pytest.approx(expected, rel=1e-9)


def test_series_masses_at_zero_and_monotone(neutral, neutral_basis, uniform_setup):
    init, coeffs = uniform_setup
    times = [0.0, 0.2, 0.5, 1.0, 2.0, 4.0]
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, times)
    assert (sols[0].a, sols[0].b) == (0.0, 0.0)
    a_vals = [s.a for s in sols]
    b_vals = [s.b for s in sols]
    assert np.all(np.diff(a_vals) > 0)
    assert np.all(np.diff(b_vals) > 0)


def test_series_masses_uniform_exact(neutral, neutral_basis, uniform_setup):
    init, coeffs = uniform_setup
    sol = kd.solutions_at(neutral, neutral_basis, coeffs, init, [0.5])[0]
    a, b = sol.a, sol.b
    exact = SQ6 * (1 - np.exp(-1.0)) / 2 * (SQ6 / 6)
    assert a == pytest.approx(exact, rel=1e-7)
    assert b == pytest.approx(exact, rel=1e-7)


def test_limit_masses_examples(neutral, neutral_profile):
    uniform = kd.InitialMeasure(density="uniform")
    assert kd.limit_masses(neutral, neutral_profile, uniform) == pytest.approx(
        (0.5, 0.5), abs=1e-12
    )
    atom = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    a_inf, b_inf = kd.limit_masses(neutral, neutral_profile, atom)
    assert b_inf == pytest.approx(0.25, abs=1e-9)
    assert a_inf == pytest.approx(0.75, abs=1e-9)
    left = kd.InitialMeasure(a0=1.0)
    assert kd.limit_masses(neutral, neutral_profile, left) == (1.0, 0.0)


def test_series_route_reaches_limits(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    far = kd.solutions_at(neutral, neutral_basis, coeffs, init, [np.inf])[0]
    a_t, b_t = far.a, far.b
    a_inf, b_inf = kd.limit_masses(neutral, neutral_profile, init)
    assert a_t == pytest.approx(a_inf, abs=1e-7)
    assert b_t == pytest.approx(b_inf, abs=1e-7)


def test_mass_cross_check_single_mode(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, [0.0, 1.0])
    psi = neutral_profile(sols.grid)
    a2, b2, disc = conservation_route(sols[1], coeffs.limits, psi)
    assert disc <= 1e-6
    # the t = 0 row holds the raw initial data and takes no part in the gap
    rep = kd.conservation_residuals(init, sols, coeffs.limits, psi)
    assert rep.route_gap == pytest.approx(disc, abs=1e-14)


def test_mass_cross_check_early_time_limit(neutral, neutral_basis, neutral_profile, uniform_setup):
    # as t -> 0+ the conservation route returns the initial endpoint masses
    # (up to the genuinely absorbed flux, which is proportional to t)
    init, coeffs = uniform_setup
    gaps = []
    times = (1e-4, 1e-5, 1e-6)
    for sol in kd.solutions_at(neutral, neutral_basis, coeffs, init, times):
        a2, b2, _ = conservation_route(sol, coeffs.limits, neutral_profile(sol.grid))
        gaps.append(max(abs(a2 - init.a0), abs(b2 - init.b0)))
        assert gaps[-1] <= 3 * sol.t
    assert gaps[0] > gaps[1] > gaps[2]


def test_series_route_atom_limit_is_exact(neutral, neutral_basis, neutral_profile):
    # for a point mass the coefficients do not decay, yet the series route is
    # anchored at the limits, so no truncation tail survives at t = inf
    init = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    far = kd.solutions_at(neutral, neutral_basis, coeffs, init, [np.inf])[0]
    a_lim, b_lim = far.a, far.b
    a_inf, b_inf = kd.limit_masses(neutral, neutral_profile, init)
    assert a_inf == pytest.approx(0.75, abs=1e-9)
    assert a_lim == pytest.approx(a_inf, abs=1e-12)
    assert b_lim == pytest.approx(b_inf, abs=1e-12)


def test_cross_check_approaches_limit(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    a_inf, _ = kd.limit_masses(neutral, neutral_profile, init)
    gaps = [
        abs(conservation_route(sol, coeffs.limits, neutral_profile(sol.grid))[0] - a_inf)
        for sol in kd.solutions_at(neutral, neutral_basis, coeffs, init, (1.0, 3.0, 6.0))
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-5


def test_conservation_single_mode(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, (0.1, 0.5, 1.0, 2.0))
    rep = kd.conservation_residuals(
        init, sols, coeffs.limits, neutral_profile(neutral_basis.closed_grid)
    )
    assert rep.mass_drift <= 1e-6
    assert rep.psi_mass_drift <= 1e-6


def test_conservation_boundary_atoms_exact(neutral, neutral_basis, neutral_profile):
    init = kd.InitialMeasure(a0=0.4, b0=0.6)
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, (0.5, 1.0))
    rep = kd.conservation_residuals(
        init, sols, coeffs.limits, neutral_profile(neutral_basis.closed_grid)
    )
    assert rep.mass_drift == 0.0
    assert rep.psi_mass_drift == 0.0


def test_conservation_interior_atom_constancy(neutral, neutral_basis, neutral_profile):
    # point-mass data: the conserved quantities stay constant in time and
    # equal their initial values, because the boundary masses are anchored at
    # the exact limits and each mode satisfies the flux identity; the t = 0
    # density row has no atom slot, so that row reports the initial measure's
    # own total mass and fixation moment
    init = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    times = (0.0, 0.1, 0.5, 1.0, 2.0)
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, times)
    rep = kd.conservation_residuals(
        init, sols, coeffs.limits, neutral_profile(neutral_basis.closed_grid)
    )
    assert rep.mass_span <= 1e-5
    assert rep.psi_mass_span <= 1e-5
    assert rep.mass_drift <= 1e-5
    assert len(rep.mass_values) == 5 and rep.mass_values[0] == init.total_mass()
    assert rep.psi_mass_values[0] == coeffs.limits[1]


def test_route_gap_matches_trapezoid_route(selection):
    # the report's gap, written with the conserved sums, against the
    # conservation-route masses computed per time with np.trapezoid
    profile = kd.fixation_profile(selection, 1025)
    basis = kd.build_basis(selection, 24, 1024)
    init = kd.InitialMeasure(a0=0.1, density="bump(0.4, 0.25)", atoms=[(0.7, 0.3)])
    coeffs = kd.project_initial(selection, basis, init, profile)
    sols = kd.solutions_at(selection, basis, coeffs, init, (0.0, 0.5, 1.0, 2.0))
    psi = profile(basis.closed_grid)
    expected = max(conservation_route(sol, coeffs.limits, psi)[2] for sol in sols[1:])
    rep = kd.conservation_residuals(init, sols, coeffs.limits, psi)
    assert expected > 0.0
    assert rep.route_gap == pytest.approx(expected, abs=1e-14)


def test_ds_norm_values(neutral_basis):
    coeffs = kd.SpectralCoefficients(np.zeros(neutral_basis.n_modes))
    coeffs.values[0] = 1.0
    assert kd.ds_norm(coeffs, neutral_basis, 0.0) == pytest.approx(1.0)
    assert kd.ds_norm(coeffs, neutral_basis, 1.5) == pytest.approx(
        neutral_basis.eigenvalues[0] ** 0.75, rel=1e-9
    )
    coeffs.values[1] = 1.0
    assert kd.ds_norm(coeffs, neutral_basis, 1.0) == pytest.approx(
        np.sqrt(8.0), rel=1e-6
    )
    with pytest.raises(ValueError):
        kd.ds_norm(coeffs, neutral_basis, -1.0)


def test_decay_single_mode(neutral, neutral_basis, uniform_setup):
    init, coeffs = uniform_setup
    times = np.linspace(0.5, 1.5, 11)
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, times)
    diag = kd.decay_diagnostics(neutral_basis, coeffs, sols)
    assert diag.slope == pytest.approx(-2.0, rel=1e-6)
    assert diag.c_inf == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(diag.scaled_l1 - diag.c_inf)) <= 1e-9


def test_decay_degenerate_leading_mode(neutral, neutral_basis):
    # antisymmetric data has no leading-mode content; decay follows the
    # second eigenvalue
    coeffs = kd.SpectralCoefficients(np.zeros(neutral_basis.n_modes), limits=(0.0, 0.0))
    coeffs.values[1] = 1.0
    # a unit initial mass sets the scale of the truncation check
    sols = kd.solutions_at(
        neutral, neutral_basis, coeffs, kd.InitialMeasure(a0=1.0), np.linspace(0.4, 1.0, 7)
    )
    with pytest.warns(UserWarning, match="leading coefficient"):
        diag = kd.decay_diagnostics(neutral_basis, coeffs, sols)
    assert diag.slope == pytest.approx(-6.0, rel=0.02)
    assert diag.c_inf == 0.0


def test_radon_distance_identity(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    limits = kd.limit_masses(neutral, neutral_profile, init)
    for sol in kd.solutions_at(neutral, neutral_basis, coeffs, init, (0.1, 0.5, 1.0, 2.0)):
        rho = kd.radon_distance_to_limit(sol, limits)
        assert rho == pytest.approx(2 * sol.density_l1(), abs=1e-6)
    far = kd.solutions_at(neutral, neutral_basis, coeffs, init, [20.0])[0]
    assert kd.radon_distance_to_limit(far, limits) <= 1e-8


def test_radon_warns_once_for_earliest_overshoot():
    sols = kd.Solutions(t=np.array([2.0, 1.0, 3.0]), grid=np.linspace(0.0, 1.0, 5),
                        density=np.zeros((3, 5)), a=np.array([0.6, 0.7, 0.4]),
                        b=np.full(3, 0.5), trunc_error=np.zeros(3))
    with pytest.warns(UserWarning, match="negative mass gap") as record:
        rho = kd.radon_distance_to_limit(sols, (0.5, 0.5))
    assert len(record) == 1
    assert "t=1.0 " in str(record[0].message)
    assert np.allclose(rho, [-0.1, -0.2, 0.1], rtol=0, atol=1e-15)


def test_radon_smoothness_bound(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    limits = kd.limit_masses(neutral, neutral_profile, init)
    s = 1.0
    c0s, tail = kd.radon_bound_constant(neutral_basis, s)
    assert 0.0 < tail < c0s
    w_norm = kd.ds_norm(coeffs, neutral_basis, s)
    lam0 = neutral_basis.eigenvalues[0]
    for sol in kd.solutions_at(neutral, neutral_basis, coeffs, init, (0.5, 1.0, 2.0)):
        rho = kd.radon_distance_to_limit(sol, limits)
        assert rho <= 2 * (c0s + tail) * w_norm * np.exp(-lam0 * sol.t) * (1 + 1e-9)


def test_weak_form_single_mode(neutral, neutral_basis, neutral_profile, uniform_setup):
    init, coeffs = uniform_setup
    times = np.linspace(0.1, 2.0, 129)
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, times)
    res = kd.verify_weak_form(neutral, sols, neutral_profile(neutral_basis.closed_grid))
    assert set(res) == {"one", "fixation", "x(1-x)", "x^2(1-x)"}
    for name, val in res.items():
        assert val <= 1e-5, name


def test_truncation_warning_for_atom_at_early_time(neutral, neutral_basis, neutral_profile):
    # off-center atom so the last retained mode carries real weight
    init = kd.InitialMeasure(atoms=[(0.3, 1.0)])
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    with pytest.warns(UserWarning, match="truncation"):
        kd.solutions_at(neutral, neutral_basis, coeffs, init, [1e-4])


def test_solutions_at_matches_per_time_series(neutral, neutral_basis, neutral_profile):
    init = kd.InitialMeasure(a0=0.1, b0=0.2, density="bump(0.4, 0.25)")
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    times = [0.0, 0.05, 0.3, 1.0, 4.0]
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, times)
    modes = neutral_basis.density_modes
    lam = neutral_basis.eigenvalues
    a_inf, b_inf = coeffs.limits
    psi0, psi1 = neutral.psi_at(0.0), neutral.psi_at(1.0)
    assert [s.t for s in sols] == times
    assert np.array_equal(sols[0].density, init.density_samples(neutral_basis.closed_grid))
    assert (sols[0].a, sols[0].b, sols[0].trunc_error) == (0.1, 0.2, 0.0)
    assert np.array_equal(sols.density_l1(),
                          [np.trapezoid(np.abs(s.density), s.grid) for s in sols])
    for s in sols[1:]:
        decayed = coeffs.values * np.exp(-lam * s.t)
        assert np.max(np.abs(s.density - modes @ decayed)) <= 1e-13
        assert abs(s.a - (a_inf - psi0 * np.dot(modes[0, :], decayed / lam))) <= 1e-13
        assert abs(s.b - (b_inf - psi1 * np.dot(modes[-1, :], decayed / lam))) <= 1e-13
        trunc = abs(decayed[-1]) * np.max(np.abs(modes[:, -1]))
        assert s.trunc_error == pytest.approx(trunc, rel=1e-13, abs=1e-300)


def test_solutions_at_warns_once_for_earliest_truncated_time(
    neutral, neutral_basis, neutral_profile
):
    init = kd.InitialMeasure(atoms=[(0.3, 1.0)])
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    with pytest.warns(UserWarning, match="truncation") as record:
        sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, [1e-3, 1e-4, 1.0])
    assert len(record) == 1
    assert "t=0.0001 " in str(record[0].message)
    assert sols[1].trunc_error > sols[0].trunc_error > 1e-6 > sols[2].trunc_error


def test_weak_form_matches_trapezoid_loop(selection):
    # the stacked trapezoid weights against per-solution np.trapezoid sums
    profile = kd.fixation_profile(selection, 1025)
    basis = kd.build_basis(selection, 24, 1024)
    init = kd.InitialMeasure(a0=0.1, density="bump(0.4, 0.25)", atoms=[(0.7, 0.3)])
    coeffs = kd.project_initial(selection, basis, init, profile)
    times = np.linspace(0.3, 1.5, 33) ** 1.5  # uneven spacing
    sols = kd.solutions_at(selection, basis, coeffs, init, times)
    grid = basis.closed_grid
    res = kd.verify_weak_form(selection, sols, profile(grid))
    zeta, zeta_prime = evolution._bump_window(times[0], times[-1])
    for name, (chi, chi0, chi1, rhs) in evolution._chi_library(
        selection, grid, profile(grid)
    ).items():
        paired = zeta_prime(times) * np.array(
            [s.a * chi0 + s.b * chi1 + np.trapezoid(chi * s.density, grid) for s in sols]
        )
        interior = zeta(times) * np.array(
            [np.trapezoid(rhs * s.density, grid) for s in sols]
        )
        expected = abs(np.trapezoid(paired, times) + np.trapezoid(interior, times))
        scale = np.trapezoid(np.abs(paired) + np.abs(interior), times)
        # float64 sums over ~10^3 terms: 1e-12 of the summed magnitudes
        assert abs(res[name] - expected) <= 1e-12 * scale, name
