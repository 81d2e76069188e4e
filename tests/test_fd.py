import numpy as np
import pytest

import kimdiff as kd

SQ6 = np.sqrt(6.0)


def single_mode_init():
    # constant density sqrt(6) is the exact leading mode of the neutral model
    return kd.InitialMeasure(density=lambda x: SQ6 * np.ones_like(np.asarray(x, float)))


def test_zero_density_stays_zero(neutral):
    init = kd.InitialMeasure(a0=0.3, b0=0.7)
    states = kd.evolve_fd(neutral, init, 0.5, 256, output_times=[0.25, 0.5])
    for st in states:
        assert np.all(st.values == 0.0)
        assert st.a == 0.3 and st.b == 0.7


def test_single_mode_masses_match_analytic(neutral):
    states = kd.evolve_fd(neutral, single_mode_init(), 0.5, 2048)
    st = states[-1]
    exact = SQ6 * (1 - np.exp(-1.0)) / 2
    assert abs(st.a - exact) <= 1e-3
    assert abs(st.b - exact) <= 1e-3
    q_exact = SQ6 * np.exp(-1.0)
    assert st.h * np.sum(np.abs(st.values - q_exact)) <= 1e-3


def test_discrete_mass_conservation(neutral):
    init = single_mode_init()
    states = kd.evolve_fd(neutral, init, 1.0, 256, output_times=[0.2, 0.6, 1.0])
    mass0 = init.total_mass()
    for st in states:
        assert abs(st.total_mass() - mass0) <= 1e-10 * mass0


def test_monotone_absorbed_masses(selection):
    init = kd.InitialMeasure(density="bump(0.4, 0.25)")
    states = kd.evolve_fd(selection, init, 1.0, 256, output_times=[0.1, 0.3, 0.6, 1.0])
    a_vals = [st.a for st in states]
    b_vals = [st.b for st in states]
    assert np.all(np.diff(a_vals) > 0)
    assert np.all(np.diff(b_vals) > 0)


def test_atom_deposited_with_exact_mass(neutral):
    init = kd.InitialMeasure(atoms=[(0.37, 0.8)], density="uniform")
    states = kd.evolve_fd(neutral, init, 1e-9, 256, output_times=[0.0])
    assert states[0].total_mass() == pytest.approx(init.total_mass(), rel=1e-12)


def test_step_size_guard(neutral):
    with pytest.raises(ValueError):
        kd.evolve_fd(neutral, single_mode_init(), 0.1, 256, dt=1.0 / 64)
    with pytest.raises(ValueError):
        kd.evolve_fd(neutral, single_mode_init(), 0.1, 64)


def test_convergence_order_against_spectral(neutral, neutral_basis, neutral_profile):
    init = single_mode_init()
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    sols = [kd.solution_at(neutral, neutral_basis, coeffs, init, 0.5)]
    gaps = []
    for cells in (128, 256, 512):
        states = kd.evolve_fd(neutral, init, 0.5, cells)
        rows = kd.compare_with_spectral(states, sols)
        gaps.append(rows[0].q_l1_diff)
    assert 2.5 < gaps[0] / gaps[1] < 6.0
    assert 2.5 < gaps[1] / gaps[2] < 6.0


def test_compare_with_spectral_pairs_times(neutral, neutral_basis, neutral_profile):
    init = single_mode_init()
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    sols = [kd.solution_at(neutral, neutral_basis, coeffs, init, t) for t in (0.1, 1.0)]
    states = kd.evolve_fd(neutral, init, 1.0, 256, output_times=[0.1, 1.0])
    rows = kd.compare_with_spectral(states, sols)
    assert [r.t for r in rows] == [0.1, 1.0]
    for r in rows:
        assert r.q_l1_diff <= 1e-3
        assert r.a_diff <= 1e-3 and r.b_diff <= 1e-3
    with pytest.raises(ValueError):
        kd.compare_with_spectral(states[:1], sols)


def test_selection_bump_cross_check(selection):
    # full two-solver agreement on a selection scenario
    profile = kd.fixation_profile(selection, 2049)
    basis = kd.build_basis(selection, 48, 2048)
    init = kd.InitialMeasure(density="bump(0.45, 0.3)")
    coeffs = kd.project_initial(selection, basis, init, profile)
    times = [0.1, 1.0]
    sols = [kd.solution_at(selection, basis, coeffs, init, t) for t in times]
    states = kd.evolve_fd(selection, init, 1.0, 512, output_times=times)
    for row in kd.compare_with_spectral(states, sols):
        assert row.q_l1_diff <= 1e-3
        assert row.a_diff <= 1e-3 and row.b_diff <= 1e-3
