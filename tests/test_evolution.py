import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kimdiff as kd
from kimdiff import evolution
from kimdiff._quadrature import gauss01
from kimdiff.scenario import load_scenario

from conftest import (GRID, closed_grid, conservation_route, decay_bound_constants, decay_slope,
                      neutral_mode_exact)

SQ6 = np.sqrt(6.0)


@pytest.fixture(scope="module")
def uniform_setup(neutral_basis):
    """Neutral model with uniform density: exactly the leading mode."""
    init = kd.InitialMeasure(density="uniform")
    return kd.project_initial(neutral_basis, init)


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


def test_only_a_callable_density_is_probed_for_sign(monkeypatch):
    # presets are nonnegative by construction and samples are checked
    # directly, so neither is evaluated on the 4097-point probe; a callable is
    sizes = []
    original = evolution.density_from_spec

    def recorded(spec):
        fn, breaks = original(spec)

        def density(x):
            sizes.append(np.size(x))
            return fn(x)

        return density, breaks

    monkeypatch.setattr(evolution, "density_from_spec", recorded)
    for density in ("uniform", "bump(0.5, 0.2)", ([0.0, 0.5, 1.0], [1.0, 2.0, 0.0])):
        kd.InitialMeasure(density=density)
    assert sizes and 4097 not in sizes

    def dips(x):
        sizes.append(np.size(x))
        return np.where(np.abs(np.asarray(x) - 0.3) < 1e-3, -1.0, 1.0)

    sizes.clear()
    with pytest.raises(ValueError, match="initial density must be nonnegative"):
        kd.InitialMeasure(density=dips)
    assert sizes == [4097]


def test_bump_density_unit_mass():
    bump = kd.bump_density(0.4, 0.2)
    x = np.linspace(0, 1, 20001)
    assert np.trapezoid(bump(x), x) == pytest.approx(1.0, abs=1e-7)
    assert bump(0.1) == 0.0 and bump(0.75) == 0.0
    with pytest.raises(ValueError):
        kd.bump_density(0.05, 0.2)


def test_density_spec_forms():
    fn, breaks = kd.density_from_spec("uniform")
    assert np.all(fn(np.linspace(0, 1, 5)) == 1.0)
    assert list(breaks) == [0.0, 1.0]
    fn, breaks = kd.density_from_spec("bump(0.5, 0.1)")
    assert fn(0.5) > 0
    assert list(breaks) == [0.4, 0.6]
    with pytest.raises(ValueError):
        kd.density_from_spec("gaussian")
    fn, breaks = kd.density_from_spec((np.array([0.2, 0.5, 1.0]),
                                       np.array([1.0, 2.0, 0.0])))
    assert fn(0.35) == pytest.approx(1.5)
    assert list(breaks) == [0.2, 0.5, 1.0]
    # zero outside the samples
    assert fn(0.1) == 0.0 and fn(0.2) == 1.0
    assert kd.density_from_spec(None)[0] is None
    # a slope past the double range: each panel is read without forming it
    steep = ([0.0, 0.01, 1.0], [1e307, 0.0, 0.0])
    fn, _ = kd.density_from_spec(steep)
    assert list(fn(np.array([0.0, 0.005, 0.01, 0.5, 1.0]))) == [1e307, 5e306, 0.0, 0.0, 0.0]
    assert kd.InitialMeasure(density=steep).total_mass() == pytest.approx(5e304, rel=1e-14)


@st.composite
def sampled_density(draw):
    """Samples on a 1/1024 lattice of [0, 1], with nonnegative values."""
    ticks = draw(st.lists(st.integers(0, 1024), min_size=2, max_size=12, unique=True))
    x = np.sort(ticks) / 1024.0
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=len(x), max_size=len(x)))
    return x, np.array(values)


@settings(derandomize=True, deadline=None)
@given(sampled_density())
def test_sampled_density_moments_are_exact(neutral, density):
    # linear between samples and zero outside: the mass is the samples'
    # trapezoid, b_inf (psi = x) the exact first moment, and the limits add up
    x, v = density
    mass = float(np.trapezoid(v, x))
    assume(mass >= 2.0**-1000)  # InitialMeasure's floor on the total mass
    init = kd.InitialMeasure(density=(x, v))
    x0, x1, v0, v1 = x[:-1], x[1:], v[:-1], v[1:]
    moment = float(np.sum((x1 - x0) / 6.0 * (x0 * (2 * v0 + v1) + x1 * (v0 + 2 * v1))))
    a_inf, b_inf = kd.limit_masses(neutral, init)
    assert init.total_mass() == pytest.approx(mass, rel=1e-13, abs=1e-13)
    assert b_inf == pytest.approx(moment, rel=1e-13, abs=1e-13)
    assert a_inf + b_inf == pytest.approx(init.total_mass(), rel=1e-13, abs=1e-13)


def _kimura_run(eta, beta, **initial):
    """The Kimura (eta, beta) solution from the initial measure with the given
    fields, at 64 modes, at t = 0.1, 0.5 and 1, on the 257 points k / 256."""
    model = kd.make_kimura(eta, beta)
    basis = kd.build_basis(model, 64)
    init = kd.InitialMeasure(**initial)
    coeffs = kd.project_initial(basis, init)
    return kd.solutions_at(coeffs, [0.1, 0.5, 1.0], np.arange(257) / 256.0)


def _mirror_gaps(sols, mirror):
    """The largest gaps of a to the mirror's b and b to its a, relative to
    the mass, and of the density to the mirror's reversed, relative to its
    largest value."""
    mass = sols.coeffs.measure.total_mass()
    ab = max(np.max(np.abs(sols.a - mirror.b)), np.max(np.abs(sols.b - mirror.a))) / mass
    density = np.max(np.abs(sols.density - mirror.density[:, ::-1]))
    return ab, density / np.max(np.abs(sols.density))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.floats(-10.0, 10.0), st.floats(-20.0, 20.0), st.floats(0.1, 0.9),
       st.floats(0.2, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_reflection_swaps_the_endpoints(eta, beta, center, fraction, a0, b0):
    # x <-> 1 - x maps Pi = eta x + beta to eta x - eta - beta, and the data
    # likewise, so a(t) and b(t) swap and the density mirrors; the points
    # k / 256 mirror exactly.  The Galerkin problem is symmetric too (P_n's
    # parity, the mirrored Gauss rule), so every gap is roundoff.  Largest
    # gaps over 1500 random draws and the corners of the ranges: 1.1e-10 of
    # the mass in a and b, 2.2e-9 of the largest density (eta = -10,
    # beta = -20, a bump at 0.9: Xi spans 25); beta = 20 on bump(0.5, 0.3)
    # reads 6.4e-13 and 6.5e-12
    width = fraction * min(center, 1.0 - center)
    sols = _kimura_run(eta, beta, a0=a0, b0=b0, density=f"bump({center!r},{width!r})")
    mirror = _kimura_run(eta, -eta - beta, a0=b0, b0=a0,
                         density=f"bump({1.0 - center!r},{width!r})")
    ab, density = _mirror_gaps(sols, mirror)
    assert ab <= 1e-9 and density <= 2e-8


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.floats(-10.0, 10.0), st.floats(-20.0, 20.0), st.floats(0.02, 0.98),
       st.floats(0.1, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_reflection_swaps_the_endpoints_of_atom_data(eta, beta, x0, mass, a0, b0):
    # the reflection on one interior atom, whose coefficients do not decay
    # with the mode index.  Largest gaps over 3600 random draws and the
    # corners of the ranges: 2.1e-10 of the mass in a and b, 7.0e-9 of the
    # largest density (eta = -10, beta = -20, the atom at 0.98); the bounds
    # are about 9 times these
    sols = _kimura_run(eta, beta, a0=a0, b0=b0, atoms=[(x0, mass)])
    mirror = _kimura_run(eta, -eta - beta, a0=b0, b0=a0, atoms=[(1.0 - x0, mass)])
    ab, density = _mirror_gaps(sols, mirror)
    assert ab <= 2e-9 and density <= 6e-8


@pytest.mark.parametrize("samples", [65, 2049])
def test_sampled_projection_matches_twelve_nodes_per_panel(selection, samples):
    # random values on uniform samples; reference: 12 Gauss nodes on every
    # panel between samples.  Panels that hold few nodes of the basis rule
    # left about 2e-8 with two extra nodes; four leave below 1e-12
    basis = kd.build_basis(selection, 64)
    xs = np.linspace(0.0, 1.0, samples)
    vs = np.random.default_rng(7).uniform(0.0, 1.0, samples)
    coeffs = kd.project_initial(basis, kd.InitialMeasure(density=(xs, vs)))
    t, w = gauss01(12)
    x = (xs[:-1, None] + np.diff(xs)[:, None] * t).ravel()
    weights = (np.diff(xs)[:, None] * w).ravel() * np.interp(x, xs, vs)
    reference = weights @ (np.exp(-0.5 * selection.xi_integral(x))[:, None]
                           * basis.mode_values(x))
    assert np.max(np.abs(coeffs.values - reference)) <= 1e-12


@pytest.mark.parametrize("config", ["spectral_evolve", "atom_verify"])
def test_projection_by_basis_moments_matches_the_mode_table(config):
    # reference: the modes tabulated at the basis's Gauss rule mapped onto
    # the bump's panel, weighted by the density there, plus each atom's mass
    # times the modes at the atom
    path = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{config}.json"
    loaded = load_scenario(path)
    model, init = loaded.model, loaded.initial
    assert init.density == "bump(0.4, 0.2)"
    basis = kd.build_basis(model, loaded.modes)
    coeffs = kd.project_initial(basis, init)

    def modes(x):
        return np.exp(-0.5 * model.xi_integral(x))[:, None] * basis.mode_values(x)

    lo, hi = 0.2, 0.6  # the bump's support
    x = lo + (hi - lo) * basis.quad_nodes
    reference = ((hi - lo) * basis.quad_weights * init.density_samples(x)) @ modes(x)
    for xa, mass in init.atoms:
        reference = reference + mass * modes(np.array([xa]))[0]
    assert np.max(np.abs(coeffs.values - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_initial_residual_reads_the_initial_term(neutral_basis):
    # the 64-node rule leaves about 2e-12 of a bump; scaling every coefficient
    # by 1 + 1e-6 scales each paired sum, and endpoint masses drop out
    init = kd.InitialMeasure(a0=0.2, b0=0.3, density="bump(0.4, 0.25)")
    coeffs = kd.project_initial(neutral_basis, init)
    assert evolution.initial_residual(coeffs) <= 1e-11
    perturbed = kd.SpectralCoefficients(coeffs.values * (1.0 + 1e-6), neutral_basis, init)
    residual = evolution.initial_residual(perturbed)
    assert residual == pytest.approx(1e-6, rel=1e-3)
    endpoints_only = kd.InitialMeasure(a0=0.3, b0=0.7)
    coeffs = kd.project_initial(neutral_basis, endpoints_only)
    assert evolution.initial_residual(coeffs) == 0.0


def test_initial_residual_for_a_varying_psi():
    # Psi = 1 + 2x: the projection and the pairings <chi_k, q_j> each carry
    # the modes' sqrt(Psi) factor; the defect reads 1.3e-12 (64 modes)
    model = kd.CoefficientModel((1.0, 2.0), (-1.0,))
    basis = kd.build_basis(model, 64)
    init = kd.InitialMeasure(a0=0.2, b0=0.3, density="bump(0.4, 0.25)", atoms=[(0.7, 0.2)])
    coeffs = kd.project_initial(basis, init)
    assert evolution.initial_residual(coeffs) <= 1e-10


def test_projection_of_leading_mode_is_unit_vector(neutral_basis):
    # initial density equal to the leading density mode transforms to the
    # leading eigenfunction, so the coefficients are (c, 0, 0, ...)
    q0 = neutral_basis.density_values(np.eye(neutral_basis.n_modes)[:1], GRID)[0]
    init = kd.InitialMeasure(density=(GRID, q0))
    coeffs = kd.project_initial(neutral_basis, init)
    assert coeffs.values[0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(coeffs.values[1:])) <= 1e-6


def test_projection_boundary_atoms_only(neutral_basis):
    init = kd.InitialMeasure(a0=0.3, b0=0.7)
    coeffs = kd.project_initial(neutral_basis, init)
    assert np.all(coeffs.values == 0.0)


def test_projection_center_atom_kills_odd_modes(neutral_basis):
    init = kd.InitialMeasure(atoms=[(0.5, 1.0)])
    coeffs = kd.project_initial(neutral_basis, init)
    phi_mid = coeffs.values
    assert np.max(np.abs(phi_mid[1::2])) <= 1e-9
    assert np.min(np.abs(phi_mid[0::2])) > 1e-3


def test_projection_atom_near_endpoint_is_exact(neutral):
    # an atom closer to 0 than the first point of a 512-point grid projects
    # onto the exact mode values u_j(x) = x (1 - x) q_j(x), with no warning
    x0 = 1e-4
    basis = kd.build_basis(neutral, 16)
    init = kd.InitialMeasure(atoms=[(x0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = kd.project_initial(basis, init)
    exact = np.array([x0 * (1 - x0) * neutral_mode_exact(j, x0) for j in range(16)])
    assert np.max(np.abs(coeffs.values - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_uniform_data_is_single_mode(uniform_setup):
    # quadrature-level agreement with the exact coefficient sqrt(6)/6
    coeffs = uniform_setup
    assert coeffs.values[0] == pytest.approx(SQ6 / 6, abs=1e-6)
    assert np.max(np.abs(coeffs.values[1:])) <= 1e-8


def test_series_single_mode_decay(uniform_setup):
    coeffs = uniform_setup
    s1, s2, s3, s6 = kd.solutions_at(coeffs, [1.0, 2.0, 3.0, 6.0], GRID)
    assert np.allclose(s2.density, s1.density * np.exp(-2.0), atol=1e-12)
    sup = [np.max(np.abs(s.density)) for s in (s1, s3, s6)]
    assert sup[0] > sup[1] > sup[2]
    assert sup[2] <= 1e-5


def test_series_at_zero_returns_raw_density(uniform_setup):
    coeffs = uniform_setup
    sol = kd.solutions_at(coeffs, [0.0], GRID)[0]
    assert np.all(sol.density == 1.0)
    assert sol.trunc_error == 0.0


def test_single_mode_l1_norm(neutral_basis, uniform_setup):
    coeffs = uniform_setup
    sol = kd.solutions_at(coeffs, [1.0], GRID)[0]
    expected = neutral_basis.mode_masses[0] * coeffs.values[0] * np.exp(-2.0)
    assert sol.density_l1() == pytest.approx(expected, rel=1e-9)


def test_series_masses_at_zero_and_monotone(uniform_setup):
    coeffs = uniform_setup
    times = [0.0, 0.2, 0.5, 1.0, 2.0, 4.0]
    sols = kd.solutions_at(coeffs, times, GRID)
    assert (sols[0].a, sols[0].b) == (0.0, 0.0)
    a_vals = [s.a for s in sols]
    b_vals = [s.b for s in sols]
    assert np.all(np.diff(a_vals) > 0)
    assert np.all(np.diff(b_vals) > 0)


def test_series_masses_uniform_exact(uniform_setup):
    coeffs = uniform_setup
    sol = kd.solutions_at(coeffs, [0.5], GRID)[0]
    a, b = sol.a, sol.b
    exact = SQ6 * (1 - np.exp(-1.0)) / 2 * (SQ6 / 6)
    assert a == pytest.approx(exact, rel=1e-7)
    assert b == pytest.approx(exact, rel=1e-7)


def test_limit_masses_examples(neutral):
    uniform = kd.InitialMeasure(density="uniform")
    assert kd.limit_masses(neutral, uniform) == pytest.approx(
        (0.5, 0.5), abs=1e-12
    )
    atom = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    a_inf, b_inf = kd.limit_masses(neutral, atom)
    assert b_inf == pytest.approx(0.25, abs=1e-9)
    assert a_inf == pytest.approx(0.75, abs=1e-9)
    left = kd.InitialMeasure(a0=1.0)
    assert kd.limit_masses(neutral, left) == (1.0, 0.0)


def test_series_route_reaches_limits(uniform_setup):
    coeffs = uniform_setup
    far = kd.solutions_at(coeffs, [np.inf], GRID)[0]
    a_t, b_t = far.a, far.b
    a_inf, b_inf = coeffs.limits
    assert a_t == pytest.approx(a_inf, abs=1e-7)
    assert b_t == pytest.approx(b_inf, abs=1e-7)


def test_mass_cross_check_single_mode(neutral, uniform_setup):
    coeffs = uniform_setup
    sols = kd.solutions_at(coeffs, [0.0, 1.0], GRID)
    psi = neutral.fixation(sols.grid)
    a2, b2, disc = conservation_route(sols[1], coeffs.limits, psi)
    assert disc <= 1e-6
    # the t = 0 row holds the raw initial data and takes no part in the gap
    rep = kd.conservation_residuals(sols)
    assert rep.route_gap == pytest.approx(disc, abs=1e-14)


def test_mass_cross_check_early_time_limit(neutral, uniform_setup):
    # as t -> 0+ the conservation route returns the initial endpoint masses
    # (up to the genuinely absorbed flux, which is proportional to t)
    coeffs = uniform_setup
    gaps = []
    times = (1e-4, 1e-5, 1e-6)
    for sol in kd.solutions_at(coeffs, times, GRID):
        a2, b2, _ = conservation_route(sol, coeffs.limits, neutral.fixation(sol.grid))
        gaps.append(max(abs(a2 - coeffs.measure.a0), abs(b2 - coeffs.measure.b0)))
        assert gaps[-1] <= 3 * sol.t
    assert gaps[0] > gaps[1] > gaps[2]


def test_series_route_atom_limit_is_exact(neutral_basis):
    # for a point mass the coefficients do not decay, yet the series route is
    # anchored at the limits, so no truncation tail survives at t = inf
    init = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    coeffs = kd.project_initial(neutral_basis, init)
    far = kd.solutions_at(coeffs, [np.inf], GRID)[0]
    a_lim, b_lim = far.a, far.b
    a_inf, b_inf = coeffs.limits
    assert a_inf == pytest.approx(0.75, abs=1e-9)
    assert a_lim == pytest.approx(a_inf, abs=1e-12)
    assert b_lim == pytest.approx(b_inf, abs=1e-12)


def test_cross_check_approaches_limit(neutral, uniform_setup):
    coeffs = uniform_setup
    a_inf, _ = coeffs.limits
    gaps = [
        abs(conservation_route(sol, coeffs.limits, neutral.fixation(sol.grid))[0] - a_inf)
        for sol in kd.solutions_at(coeffs, (1.0, 3.0, 6.0), GRID)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-5


def test_conservation_single_mode(uniform_setup):
    coeffs = uniform_setup
    sols = kd.solutions_at(coeffs, (0.1, 0.5, 1.0, 2.0), GRID)
    rep = kd.conservation_residuals(sols)
    assert rep.mass_drift <= 1e-6
    assert rep.psi_mass_drift <= 1e-6


def test_conservation_boundary_atoms_exact(neutral_basis):
    init = kd.InitialMeasure(a0=0.4, b0=0.6)
    coeffs = kd.project_initial(neutral_basis, init)
    sols = kd.solutions_at(coeffs, (0.5, 1.0), GRID)
    rep = kd.conservation_residuals(sols)
    assert rep.mass_drift == 0.0
    assert rep.psi_mass_drift == 0.0


def test_conservation_interior_atom_constancy(neutral_basis):
    # point-mass data: the conserved quantities stay constant in time and
    # equal their initial values, because the boundary masses are anchored at
    # the exact limits and each mode satisfies the flux identity; the t = 0
    # density row has no atom slot, so that row reports the initial measure's
    # own total mass and fixation moment
    init = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    coeffs = kd.project_initial(neutral_basis, init)
    times = (0.0, 0.1, 0.5, 1.0, 2.0)
    sols = kd.solutions_at(coeffs, times, GRID)
    rep = kd.conservation_residuals(sols)
    assert rep.mass_span <= 1e-5
    assert rep.psi_mass_span <= 1e-5
    assert rep.mass_drift <= 1e-5
    assert len(rep.mass_values) == 5 and rep.mass_values[0] == init.total_mass()
    assert rep.psi_mass_values[0] == coeffs.limits[1]


def test_route_gap_matches_trapezoid_route(selection):
    # the report's gap, written with the conserved sums, against the
    # conservation-route masses computed per time with np.trapezoid
    basis = kd.build_basis(selection, 24)
    x = closed_grid(1024)
    init = kd.InitialMeasure(a0=0.1, density="bump(0.4, 0.25)", atoms=[(0.7, 0.3)])
    coeffs = kd.project_initial(basis, init)
    sols = kd.solutions_at(coeffs, (0.0, 0.5, 1.0, 2.0), x)
    psi = selection.fixation(x)
    expected = max(conservation_route(sol, coeffs.limits, psi)[2] for sol in sols[1:])
    rep = kd.conservation_residuals(sols)
    assert expected > 0.0
    assert rep.route_gap == pytest.approx(expected, abs=1e-14)


def test_ds_norm_values(neutral_basis):
    coeffs = kd.SpectralCoefficients(np.zeros(neutral_basis.n_modes), neutral_basis,
                                     kd.InitialMeasure(a0=1.0))
    assert kd.ds_norm(coeffs) == 0.0
    coeffs.values[0] = 1.0
    assert kd.ds_norm(coeffs) == pytest.approx(np.sqrt(2.0), rel=1e-9)
    # lambda_0 = 2 and lambda_1 = 6
    coeffs.values[1] = 1.0
    assert kd.ds_norm(coeffs) == pytest.approx(np.sqrt(8.0), rel=1e-6)
    assert kd.ds_norm(coeffs, 0.5) == pytest.approx(
        np.sqrt(2.0 * np.exp(-2.0) + 6.0 * np.exp(-6.0)), rel=1e-6
    )


def test_decay_single_mode(uniform_setup):
    coeffs = uniform_setup
    times = np.linspace(0.5, 1.5, 11)
    sols = kd.solutions_at(coeffs, times, GRID)
    basis = coeffs.basis
    c_inf = basis.mode_masses[0] * coeffs.values[0]
    scaled_l1 = np.exp(basis.eigenvalues[0] * times) * sols.density_l1()
    assert decay_slope(sols) == pytest.approx(-2.0, rel=1e-6)
    assert c_inf == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(scaled_l1 - c_inf)) <= 1e-9


def test_times_past_the_double_range_evaluate_silently(uniform_setup):
    # lambda_0 t overflows at t = 1e308: every term is 0, the masses are at
    # their limits
    coeffs = uniform_setup
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols = kd.solutions_at(coeffs, [0.1, 1e308], GRID)
    assert sols.density_l1()[-1] == 0.0
    assert (sols.a[-1], sols.b[-1]) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_decay_degenerate_leading_mode(neutral_basis):
    # antisymmetric data has no leading-mode content; decay follows the
    # second eigenvalue
    # a unit initial mass sets the scale of the truncation check
    coeffs = kd.SpectralCoefficients(np.zeros(neutral_basis.n_modes), neutral_basis,
                                     kd.InitialMeasure(a0=1.0))
    coeffs.values[1] = 1.0
    sols = kd.solutions_at(coeffs, np.linspace(0.4, 1.0, 7), GRID)
    assert decay_slope(sols) == pytest.approx(-6.0, rel=0.02)
    assert neutral_basis.mode_masses[0] * coeffs.values[0] == 0.0


def test_radon_distance_identity(uniform_setup):
    coeffs = uniform_setup
    for sol in kd.solutions_at(coeffs, (0.1, 0.5, 1.0, 2.0), GRID):
        rho = kd.radon_distance_to_limit(sol)
        assert rho == pytest.approx(2 * sol.density_l1(), abs=1e-6)
    far = kd.solutions_at(coeffs, [20.0], GRID)[0]
    assert kd.radon_distance_to_limit(far) <= 1e-8


def test_radon_smoothness_bound(neutral_basis, uniform_setup):
    coeffs = uniform_setup
    c0, tail = decay_bound_constants(neutral_basis.eigenvalues, neutral_basis.mode_masses)
    assert 0.0 < tail < c0
    w_norm = kd.ds_norm(coeffs)
    lam0 = neutral_basis.eigenvalues[0]
    for sol in kd.solutions_at(coeffs, (0.5, 1.0, 2.0), GRID):
        rho = kd.radon_distance_to_limit(sol)
        assert rho <= 2 * (c0 + tail) * w_norm * np.exp(-lam0 * sol.t) * (1 + 1e-9)


def windowed_weak_form(model, sols, psi):
    """|int int zeta'(t) <chi, mu_t> + zeta(t) <F chi'' + G chi', q_t> dx dt| for
    each chi of {1, psi, x(1-x), x^2(1-x)}, by the trapezoid rule in x and t:
    the weak form with a bump zeta spanning the solutions' times, which
    vanishes at both ends, so the initial term drops.  <chi, mu_t> pairs the
    endpoint masses with chi(0) and chi(1)."""
    t, x = sols.t, sols.grid
    u = (2.0 * t - (t[0] + t[-1])) / (t[-1] - t[0])
    inside = np.abs(u) < 1.0
    gap = np.where(inside, 1.0 - u**2, 1.0)
    zeta = np.where(inside, np.exp(-1.0 / gap), 0.0)
    zeta_prime = zeta * (-2.0 * u / gap**2) * (2.0 / (t[-1] - t[0]))
    F, G = model.diffusion(x), model.drift(x)
    library = {
        "one": (1.0, 1.0, np.ones_like(x), np.zeros_like(x)),
        "fixation": (0.0, 1.0, psi, np.zeros_like(x)),  # F psi'' + G psi' = 0
        "x(1-x)": (0.0, 0.0, x * (1.0 - x), -2.0 * F + (1.0 - 2.0 * x) * G),
        "x^2(1-x)": (0.0, 0.0, x**2 * (1.0 - x),
                     F * (2.0 - 6.0 * x) + G * (2.0 * x - 3.0 * x**2)),
    }
    out = {}
    for name, (chi0, chi1, chi, rhs) in library.items():
        paired = sols.a * chi0 + sols.b * chi1 + np.trapezoid(sols.density * chi, x, axis=1)
        interior = np.trapezoid(sols.density * rhs, x, axis=1)
        out[name] = abs(np.trapezoid(zeta_prime * paired + zeta * interior, t))
    return out


def test_weak_form_single_mode(neutral, uniform_setup):
    coeffs = uniform_setup
    times = np.linspace(0.1, 2.0, 129)
    sols = kd.solutions_at(coeffs, times, GRID)
    res = windowed_weak_form(neutral, sols, neutral.fixation(GRID))
    assert set(res) == {"one", "fixation", "x(1-x)", "x^2(1-x)"}
    for name, val in res.items():
        assert val <= 1e-5, name


def test_truncation_at_early_time_raises_naming_modes(neutral_basis):
    # off-center atom: its coefficients do not decay with the mode index
    init = kd.InitialMeasure(atoms=[(0.3, 1.0)])
    coeffs = kd.project_initial(neutral_basis, init)
    with pytest.raises(ValueError, match=r"series truncation estimate .* at t=0\.0001 "
                       r".*: raise modes \(modes=16\); no requested time is safe"):
        kd.solutions_at(coeffs, [1e-4], GRID)


def test_roundoff_names_the_range_of_xi_on_all_of_the_interval():
    # Xi = 200 x reads 50 at the one requested point 0.25, yet the modes grow
    # with its range over [0, 1]
    model = kd.make_kimura(0.0, 200.0)
    coeffs = kd.project_initial(kd.build_basis(model, 64), kd.InitialMeasure(
        density="bump(0.5, 0.3)"))
    with pytest.raises(ValueError, match=r"at t=0\.1 .*Xi ranges over \[0, 200\] on \[0, 1\]"):
        kd.solutions_at(coeffs, [0.1, 0.5], [0.25])


def test_solutions_at_matches_per_time_series(neutral, neutral_basis):
    init = kd.InitialMeasure(a0=0.1, b0=0.2, density="bump(0.4, 0.25)")
    times = [0.0, 0.05, 0.3, 1.0, 4.0]
    # 16 modes leave a tail of about 1e-5 at t = 0.05
    coeffs = kd.project_initial(neutral_basis, init)
    with pytest.raises(ValueError, match=r"truncation estimate 1\.14e-05 at t=0\.05 .*"
                       r"\(modes=16\); the first safe requested time is t=0\.3"):
        kd.solutions_at(coeffs, times, GRID)
    basis = kd.build_basis(neutral, 32)
    coeffs = kd.project_initial(basis, init)
    sols = kd.solutions_at(coeffs, times, GRID)
    modes = basis.density_values(np.eye(basis.n_modes), GRID).T
    lam = basis.eigenvalues
    a_inf, b_inf = coeffs.limits
    psi0, psi1 = neutral.psi_at(0.0), neutral.psi_at(1.0)
    assert [s.t for s in sols] == times
    assert np.array_equal(sols[0].density, init.density_samples(GRID))
    assert (sols[0].a, sols[0].b, sols[0].trunc_error) == (0.1, 0.2, 0.0)
    assert np.array_equal(sols.density_l1(),
                          [np.trapezoid(np.abs(s.density), s.grid) for s in sols])
    for s in sols[1:]:
        decayed = coeffs.values * np.exp(-lam * s.t)
        assert np.max(np.abs(s.density - modes @ decayed)) <= 1e-13
        assert abs(s.a - (a_inf - psi0 * np.dot(modes[0, :], decayed / lam))) <= 1e-13
        assert abs(s.b - (b_inf - psi1 * np.dot(modes[-1, :], decayed / lam))) <= 1e-13
        # the larger of the last two terms' bounds
        trunc = max(abs(decayed[j]) * np.max(np.abs(modes[:, j])) for j in (-2, -1))
        assert s.trunc_error == pytest.approx(trunc, rel=1e-13, abs=1e-300)


def test_solutions_at_names_earliest_truncated_time(neutral_basis):
    init = kd.InitialMeasure(atoms=[(0.3, 1.0)])
    coeffs = kd.project_initial(neutral_basis, init)
    with pytest.raises(ValueError, match=r"at t=0\.0001 .*modes=16.*"
                       r"the first safe requested time is t=1$"):
        kd.solutions_at(coeffs, [1e-3, 1e-4, 1.0], GRID)


def test_truncation_estimate_reads_the_last_two_terms(neutral):
    # an atom at 1/2 leaves every odd mode, the last one among them, at 0
    basis = kd.build_basis(neutral, 64)
    init = kd.InitialMeasure(atoms=[(0.5, 1.0)])
    coeffs = kd.project_initial(basis, init)
    assert coeffs.values[-1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError) as exc:
        kd.solutions_at(coeffs, [1e-3, 0.1], GRID)
    assert str(exc.value) == (
        "series truncation estimate 7.16e+00 at t=0.001 exceeds 1e-06 of the initial "
        "mass: raise modes (modes=64); the first safe requested time is t=0.1")


def exact_neutral_moments(init, times):
    """m_k(t) = int x^k dmu_t, k = 0..8, of the neutral model's whole measure,
    endpoint masses included.  Its backward generator x (1 - x) d^2/dx^2
    maps x^k to k (k - 1) (x^(k-1) - x^k), so m' = A m with A lower
    bidiagonal: expm(t A) m(0) is exact for any initial measure."""
    from scipy.linalg import expm

    k = np.arange(9.0)
    gen = np.diag(-k * (k - 1)) + np.diag((k * (k - 1))[1:], -1)
    m0 = init.integrate(lambda x: x[:, None] ** k) + init.b0
    m0[0] += init.a0
    return np.array([expm(t * gen) @ m0 for t in times])


def spectral_moments(sols):
    """The same moments of the spectral solution, b + a delta_k0 +
    sum_j c_j e^(-lambda_j t) int x^k q_j, the mode moments on the basis's
    Gauss rule; for the neutral model q_j's series takes the scale 1."""
    coeffs = sols.coeffs
    basis = coeffs.basis
    x, w = basis.quad_nodes, basis.quad_weights
    modes = basis.series_values(np.eye(basis.n_modes), x, np.ones_like(x))
    decayed = coeffs.values * np.exp(-np.outer(sols.t, basis.eigenvalues))
    moments = decayed @ (modes * w) @ x[:, None] ** np.arange(9.0) + sols.b[:, None]
    moments[:, 0] += sols.a
    return moments


@pytest.mark.parametrize("config", [
    pytest.param(Path(__file__).resolve().parents[1] / "demos" / "configs"
                 / "neutral_uniform.json", id="neutral_uniform"),
    pytest.param({"initial": {"atoms": [[0.001, 1]]}, "times": [0.01, 0.1, 1]}, id="atom0.001"),
    pytest.param({"initial": {"atoms": [[1e-4, 1]]}, "times": [0.1, 1]}, id="atom1e-4"),
    pytest.param({"initial": {"atoms": [[0.3, 50]]}, "times": [0.1, 0.5, 1]}, id="atom-mass50"),
    pytest.param({"initial": {"atoms": [[0.3, 1000]]}, "times": [0.1, 0.5, 1]},
                 id="atom-mass1000"),
    pytest.param({"initial": {"a0": 1e11, "density": "uniform"}, "times": [0.1, 0.5, 1, 2]},
                 id="a0-1e11"),
    pytest.param({"initial": {"a0": 1e13, "density": "uniform"}, "times": [0.1, 0.5, 1, 2]},
                 id="a0-1e13"),
    # random values on 65 uniform samples, read linearly between them
    pytest.param({"initial": {"density": {
        "x": np.linspace(0.0, 1.0, 65).tolist(),
        "values": np.random.default_rng(7).uniform(0.0, 1.0, 65).tolist()}},
        "times": [0.1, 0.5, 1]}, id="rough65"),
])
def test_spectral_moments_match_the_exact_neutral_moments(config):
    # the 0.001 atom fails the conservation and FD gates, yet its moments are
    # exact to roundoff: the defect is in the output-grid sums and the FD mesh.
    # The largest gaps: 3.2e-14 of the mass on the mass-1000 atom, 2.0e-14 on
    # the rough samples, 1.0e-27 with a0 = 1e13.  Moments up to x^8 see only
    # the modes with (j + 1)(j + 2) <= 56, j <= 6
    if isinstance(config, dict):
        config = {"schema": 1, "model": {"preset": "kimura"}, **config}
    sc = load_scenario(config)
    basis = kd.build_basis(sc.model, sc.modes)
    coeffs = kd.project_initial(basis, sc.initial)
    sols = kd.solutions_at(coeffs, sc.times, closed_grid(sc.grid))
    exact = exact_neutral_moments(sc.initial, sc.times)
    gap = np.abs(spectral_moments(sols) - exact)
    assert np.max(gap) <= 1e-12 * sc.initial.total_mass()


def test_last_of_64_neutral_modes_evolves_exactly(neutral):
    # the moments above see no mode past j = 6; this density carries the last
    # of 64, C^(3/2)_63(2x - 1) with eigenvalue 64 * 65 = 4160, at 0.9 of the
    # constant mode's sup.  At t = 4e-3 that mode still moves the density by
    # 5.3e-8, the truncation estimate too, so a basis that drops the last
    # eigenpair or a projection that zeroes its coefficient fails; the
    # density matches to 3.9e-14
    from scipy.special import eval_gegenbauer

    eps = 0.9 / eval_gegenbauer(63, 1.5, 1.0)
    init = kd.InitialMeasure(
        density=lambda x: 1.0 + eps * eval_gegenbauer(63, 1.5, 2.0 * np.asarray(x, float) - 1.0))
    basis = kd.build_basis(neutral, 64)
    coeffs = kd.project_initial(basis, init)
    t = 4e-3
    sol = kd.solutions_at(coeffs, [t], GRID)[0]
    last = eps * np.exp(-4160.0 * t) * eval_gegenbauer(63, 1.5, 2.0 * GRID - 1.0)
    exact = np.exp(-2.0 * t) + last
    assert np.max(np.abs(sol.density - exact)) <= 1e-12
