from pathlib import Path

import numpy as np
import pytest

import kimdiff as kd
from kimdiff import fd
from kimdiff.scenario import load_scenario

from conftest import GRID

SQ6 = np.sqrt(6.0)


def single_mode_init():
    # constant density sqrt(6) is the exact leading mode of the neutral model
    return kd.InitialMeasure(density=lambda x: SQ6 * np.ones_like(np.asarray(x, float)))


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one with each scipy.linalg.lapack.dpttrs call."""
    import scipy.linalg.lapack as lapack

    calls = []
    original = lapack.dpttrs

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lapack, "dpttrs", counted)
    return calls


def test_zero_density_stays_zero(neutral):
    init = kd.InitialMeasure(a0=0.3, b0=0.7)
    states = kd.evolve_fd(neutral, init, [0.25, 0.5], 256)
    for st in states:
        assert np.all(st.values == 0.0)
        assert st.a == 0.3 and st.b == 0.7


def test_decayed_state_stops_stepping(neutral, solves):
    # by t = 400 the neutral uniform density is e^(-800): once its interior
    # mass falls below the unit roundoff of its initial value, no more solves
    # are made
    init = kd.InitialMeasure(density="uniform")
    states = kd.evolve_fd(neutral, init, [1.0, 400.0], 128)
    assert len(solves) < 1000  # the pair's schedule to t = 400 takes 1644 steps
    assert [st.t for st in states] == [1.0, 400.0]
    assert np.all(states[-1].values == 0.0)
    assert states[-1].a + states[-1].b == pytest.approx(init.total_mass(), abs=1e-13)


def test_endpoint_masses_leave_the_interior_alone(neutral):
    # the endpoint masses are inert, so a huge a0 neither zeroes the interior
    # as decayed nor scales the negative-density guard
    masses = [[st.h * np.sum(st.values) for st in
               kd.evolve_fd(neutral, kd.InitialMeasure(a0=a0, density="uniform"), [0.1, 1], 1024)]
              for a0 in (0.0, 1e16)]
    assert masses[0] == pytest.approx([0.8187, 0.1353], abs=1e-4)
    assert masses[1] == pytest.approx(masses[0], rel=1e-12, abs=0)


def test_single_mode_masses_match_analytic(neutral):
    states = kd.evolve_fd(neutral, single_mode_init(), [0.5], 2048)
    st = states[-1]
    exact = SQ6 * (1 - np.exp(-1.0)) / 2
    assert abs(st.a - exact) <= 1e-3
    assert abs(st.b - exact) <= 1e-3
    q_exact = SQ6 * np.exp(-1.0)
    assert st.h * np.sum(np.abs(st.values - q_exact)) <= 1e-3


def test_discrete_mass_conservation(neutral):
    init = single_mode_init()
    states = kd.evolve_fd(neutral, init, [0.2, 0.6, 1.0], 256)
    mass0 = init.total_mass()
    for st in states:
        assert abs(st.total_mass() - mass0) <= 1e-10 * mass0


def test_monotone_absorbed_masses(selection):
    init = kd.InitialMeasure(density="bump(0.4, 0.25)")
    states = kd.evolve_fd(selection, init, [0.1, 0.3, 0.6, 1.0], 256)
    a_vals = [st.a for st in states]
    b_vals = [st.b for st in states]
    assert np.all(np.diff(a_vals) > 0)
    assert np.all(np.diff(b_vals) > 0)


def test_atom_deposited_with_exact_mass(neutral):
    init = kd.InitialMeasure(atoms=[(0.37, 0.8)], density="uniform")
    st = kd.evolve_fd(neutral, init, [0.0], 256)[0]
    assert st.total_mass() == pytest.approx(init.total_mass(), rel=1e-12)
    # and its first moment; the uniform part's is 1/2 on the cell centres
    moment = st.h * float(np.sum(st.centers * st.values))
    assert moment == pytest.approx(0.5 + 0.8 * 0.37, rel=1e-12)
    assert np.count_nonzero(np.abs(st.values - 1.0) > 1e-9) == 2
    # an atom outside the first cell centre stays whole in the end cell
    edge = kd.InitialMeasure(atoms=[(0.001, 0.5)])
    st = kd.evolve_fd(neutral, edge, [0.0], 256)[0]
    assert st.values[0] == pytest.approx(0.5 * 256, rel=1e-12)
    assert np.count_nonzero(st.values) == 1


def test_step_budget_counts_every_interval(neutral, monkeypatch):
    # at 128 cells the pair steps by 1/64 and 1/32 until t = 4: each half-unit
    # interval takes 16 coarse and 32 fine steps, 96 in all; the output at t = 0
    # takes none
    times = [0.0, 0.5, 1.0]
    monkeypatch.setattr(fd, "_MAX_STEPS", 96)
    kd.evolve_fd(neutral, single_mode_init(), times, 128)
    monkeypatch.setattr(fd, "_MAX_STEPS", 95)
    with pytest.raises(ValueError, match=r"^times: the 3 output intervals up to t=1 take 96 "
                                         r"finite-difference steps from dt=0\.01562 and "
                                         r"0\.03125 up at cells=128, more than 95$"):
        kd.evolve_fd(neutral, single_mode_init(), times, 128)


def test_graded_schedule_solve_count(solves):
    # fd_verify's times [0.1, 0.5, 1, 2, 3] at 1024 cells: the fine step 1/512
    # doubles at t = 0.5, 1 and 2, so the coarse run takes 26 + 103 + 64 + 64 +
    # 32 steps, the fine run twice as many, and the four start-up steps add
    # one solve each; a uniform fine step would take 2311
    sc = load_scenario(Path(__file__).resolve().parents[1] / "bench" / "configs"
                       / "fd_verify.json")
    states = kd.evolve_fd(sc.model, sc.initial, sc.times, sc.cells)
    assert [st.t for st in states] == list(sc.times)
    assert len(solves) == 871


@pytest.mark.parametrize("cells, most", [(128, 1000), (1024, 1600)])
def test_far_time_stops_on_the_signed_interior_mass(solves, selection, cells, most):
    # the graded steps leave an undamped stiff residue that h sum |u| never
    # spends (191,335 and 191,911 solves); its signed sum stops the runs
    # before t = 64, so the far time takes the masses of a run to t = 64
    init = kd.InitialMeasure(density="bump(0.4, 0.2)")
    far = kd.evolve_fd(selection, init, [0.1, 1e300], cells)
    assert len(solves) <= most
    near = kd.evolve_fd(selection, init, [0.1, 64.0], cells)
    assert (far[-1].a, far[-1].b) == (near[-1].a, near[-1].b)


def test_step_size_guard(neutral):
    with pytest.raises(ValueError):
        kd.evolve_fd(neutral, single_mode_init(), [0.1], 256, dt=1.0 / 64)
    with pytest.raises(ValueError):
        kd.evolve_fd(neutral, single_mode_init(), [0.1], 64)


@pytest.mark.parametrize("dt", [0.0, -0.0005])
def test_nonpositive_dt_rejected(neutral, dt):
    with pytest.raises(ValueError, match="positive"):
        kd.evolve_fd(neutral, single_mode_init(), [0.1], 256, dt=dt)


def test_convergence_order_against_spectral(neutral, neutral_basis, neutral_profile):
    # with the time error cancelled the single neutral mode is superconvergent
    # in space (its gaps fell 16x per halving); the bump's fall about 4x
    # (3.96 and 3.98), the mesh's second order
    init = kd.InitialMeasure(density="bump(0.4, 0.2)")
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, [0.5], GRID)
    gaps = []
    for cells in (128, 256, 512):
        states = kd.evolve_fd(neutral, init, [0.5], cells)
        rows = kd.compare_with_spectral(states, sols)
        gaps.append(rows[0].q_l1_diff)
    assert 2.5 < gaps[0] / gaps[1] < 6.0
    assert 2.5 < gaps[1] / gaps[2] < 6.0


def test_compare_with_spectral_pairs_times(neutral, neutral_basis, neutral_profile):
    init = single_mode_init()
    coeffs = kd.project_initial(neutral, neutral_basis, init, neutral_profile)
    sols = kd.solutions_at(neutral, neutral_basis, coeffs, init, (0.1, 1.0), GRID)
    states = kd.evolve_fd(neutral, init, [0.1, 1.0], 256)
    rows = kd.compare_with_spectral(states, sols)
    assert [r.t for r in rows] == [0.1, 1.0]
    for r in rows:
        assert r.q_l1_diff <= 1e-3
        assert r.a_diff <= 1e-3 and r.b_diff <= 1e-3
    with pytest.raises(ValueError):
        kd.compare_with_spectral(states[:1], sols)


def test_selection_bump_cross_check(selection):
    # full two-solver agreement on a selection scenario
    profile = kd.fixation_profile(selection)
    basis = kd.build_basis(selection, 48)
    init = kd.InitialMeasure(density="bump(0.45, 0.3)")
    coeffs = kd.project_initial(selection, basis, init, profile)
    times = [0.1, 1.0]
    sols = kd.solutions_at(selection, basis, coeffs, init, times, GRID)
    states = kd.evolve_fd(selection, init, times, 512)
    for row in kd.compare_with_spectral(states, sols):
        assert row.q_l1_diff <= 1e-3
        assert row.a_diff <= 1e-3 and row.b_diff <= 1e-3


def test_output_times_must_increase(neutral):
    with pytest.raises(ValueError, match="increase"):
        kd.evolve_fd(neutral, single_mode_init(), [0.5, 0.2], 256)
    with pytest.raises(ValueError, match="increase"):
        kd.evolve_fd(neutral, single_mode_init(), [0.2, 0.2], 256)


def test_negative_density_guard_reports_failing_step():
    # strong selection on a mesh that resolves the drift but not the
    # boundary layer drives the cell values below zero.  The pair steps by
    # 1/64 and 1/32 at 128 cells, and the coarse run takes each interval
    # first: its third step (t = 3/32), the first Crank-Nicolson step after
    # the two start-up steps and inside the first block of stored steps, is
    # named; the fine run would trip at its own third step, t = 3/64
    model = kd.make_kimura(0.0, 120.0)
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    with pytest.raises(ValueError, match=r"negative density .* at t=0\.09375: .* at cells=128;"):
        kd.evolve_fd(model, init, [0.5], 128)


@pytest.mark.parametrize("block_steps", [64, 3])
def test_negative_density_guard_past_the_first_block(monkeypatch, block_steps):
    # mass from an atom next to x = 0 reaches the boundary layer at x = 1 by
    # the coarse run's sixth step (t = 6/32); the fine run, at half the step,
    # stays above the guard.  With three-step blocks after the two start-up
    # steps that step opens the second block (steps 6 to 8)
    monkeypatch.setattr(fd, "_BLOCK_STEPS", block_steps)
    model = kd.make_kimura(0.0, 80.0)
    init = kd.InitialMeasure(atoms=[(0.001, 1.0)])
    with pytest.raises(ValueError, match=r"negative density .* at t=0\.1875: "):
        kd.evolve_fd(model, init, [0.5], 128)


def test_under_resolved_drift_names_cells():
    # at beta = 200 central differences on 128 cells are not monotone next
    # to x = 1; one doubling of the mesh resolves the drift
    model = kd.make_kimura(0.0, 200.0)
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    with pytest.raises(ValueError, match=r"cells=128 .* x in \[0\.98.*cells >= 256"):
        kd.evolve_fd(model, init, [0.5], 128)
    kd.evolve_fd(model, init, [1e-3], 256)


def dense_cn_reference(model, init, n_cells, output_times):
    """Crank-Nicolson with dense matrices and numpy.linalg.solve: the same
    operator, start-up half-steps and trapezoidal boundary fluxes as
    evolve_fd, run at steps 2h and 4h and combined as (4 u_2h - u_4h) / 3,
    stepped without its factorization or its step identities.  Returns the
    combined (u, a, b) at each output time, and the fine run's density."""
    xc, h, F, lower, diag, upper = fd._operator(model, n_cells)
    L = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    eye = np.eye(n_cells)

    def left_flux(v):
        return (9.0 * F[0] * v[0] - F[1] * v[1]) / (3.0 * h)

    def right_flux(v):
        return -(9.0 * F[-1] * v[-1] - F[-2] * v[-2]) / (3.0 * h)

    def run(refine):
        u = fd._initial_cells(init, xc, h)
        a = b = 0.0
        out, t, startup = [], 0.0, 2
        for t_out in output_times:
            nsteps = refine * max(1, int(np.ceil((t_out - t) / (4.0 * h) - 1e-12)))
            step = (t_out - t) / nsteps
            implicit = eye - 0.5 * step * L
            explicit = eye + 0.5 * step * L
            for _ in range(nsteps):
                if startup > 0:
                    for _half in range(2):
                        u = np.linalg.solve(implicit, u)
                        a += 0.5 * step * left_flux(u)
                        b -= 0.5 * step * right_flux(u)
                    startup -= 1
                else:
                    unew = np.linalg.solve(implicit, explicit @ u)
                    a += 0.5 * step * (left_flux(u) + left_flux(unew))
                    b -= 0.5 * step * (right_flux(u) + right_flux(unew))
                    u = unew
            out.append((u, a, b))
            t = t_out
        return out

    coarse, fine = run(1), run(2)
    return ([((4.0 * u1 - u2) / 3.0, init.a0 + (4.0 * a1 - a2) / 3.0,
              init.b0 + (4.0 * b1 - b2) / 3.0)
             for (u2, a2, b2), (u1, a1, b1) in zip(coarse, fine)],
            [u1 for u1, _, _ in fine])


def test_factored_stepper_matches_dense_reference(selection):
    init = kd.InitialMeasure(a0=0.1, b0=0.05, atoms=[(0.37, 0.8)])
    # coarse intervals of 1, 2, 5 and 67 steps of about 4h = 1/32, fine ones
    # of twice as many: the start-up steps straddle the first two intervals
    # of the coarse run, and the fine run's last interval spans three blocks
    # of stored steps (64 + 64 + 6), so it checks their seams and their
    # summed fluxes
    times = [0.013, 0.05, 0.2, 2.29]
    states = kd.evolve_fd(selection, init, times, 128)
    reference, _ = dense_cn_reference(selection, init, 128, times)
    for st, (u, a, b) in zip(states, reference):
        assert np.max(np.abs(st.values - u)) <= 1e-12
        assert abs(st.a - a) <= 1e-12 and abs(st.b - b) <= 1e-12
    # strong selection: the symmetrizing scale factors span about e^31, so
    # the stepped state differs from u by that factor; by t = 2.29 the
    # density has decayed below the reference's roundoff, so the long
    # interval is left out.  On 128 cells the coarse run's step of 0.03
    # would trip the negative-density guard at t = 0.08, so 256 cells
    strong = kd.make_kimura(0.0, 60.0)
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    times = times[:3]
    states = kd.evolve_fd(strong, init, times, 256)
    reference, _ = dense_cn_reference(strong, init, 256, times)
    for st, (u, a, b) in zip(states, reference):
        assert np.max(np.abs(st.values - u)) <= 1e-12 * np.max(np.abs(u))
        assert abs(st.a - a) <= 1e-12 and abs(st.b - b) <= 1e-12


def expm_reference(model, init, n, t):
    """The exact-in-time solution of evolve_fd's discrete operator at t:
    u' = L u, with a' and b' the one-sided face fluxes, through the matrix
    exponential.  Returns the cell values followed by the two absorbed
    masses (init's a0 and b0 not included)."""
    from scipy.linalg import expm

    xc, h, F, lower, diag, upper = fd._operator(model, n)
    gen = np.zeros((n + 2, n + 2))
    gen[:n, :n] = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    gen[n, :2] = 3.0 * F[0] / h, -F[1] / (3.0 * h)
    gen[n + 1, n - 2 : n] = -F[-2] / (3.0 * h), 3.0 * F[-1] / h
    return expm(t * gen) @ np.concatenate([fd._initial_cells(init, xc, h), [0.0, 0.0]])


def test_pair_time_error_falls_at_least_third_order(selection):
    init = kd.InitialMeasure(a0=0.1, density="bump(0.4, 0.2)")
    n, h = 128, 1.0 / 128
    exact = expm_reference(selection, init, n, 0.25)
    errors = []
    for dt in (2 * h, h, h / 2, h / 4):
        st = kd.evolve_fd(selection, init, [0.25], n, dt=dt)[-1]
        errors.append([h * np.sum(np.abs(st.values - exact[:n])),
                       abs(st.a - init.a0 - exact[n]), abs(st.b - exact[n + 1])])
    # Crank-Nicolson's step^2 term cancels; each halving cuts the density and
    # both mass errors about 16x, and at least 8x
    errors = np.array(errors)
    assert errors[0, 0] < 1e-4
    assert np.all(errors[:-1] > 8.0 * errors[1:])


def test_graded_steps_keep_the_error_of_the_switch(selection):
    # at 128 cells with dt = h/4 the fine step first doubles at t = 256 dt = 0.5;
    # after that every doubling of t takes 128 fine steps, and the errors
    # against the exact-in-time solution stay below those at the switch
    init = kd.InitialMeasure(a0=0.1, density="bump(0.4, 0.2)")
    n, h, times = 128, 1.0 / 128, [0.5, 1.0, 2.0, 4.0]
    errors = []
    for st in kd.evolve_fd(selection, init, times, n, dt=h / 4):
        exact = expm_reference(selection, init, n, st.t)
        errors.append([h * np.sum(np.abs(st.values - exact[:n])),
                       abs(st.a - init.a0 - exact[n]), abs(st.b - exact[n + 1])])
    errors = np.array(errors)
    assert np.all(errors[1:] <= errors[0].max())


@pytest.mark.parametrize("init", [
    pytest.param(kd.InitialMeasure(a0=0.1, density="bump(0.4, 0.2)"), id="bump"),
    pytest.param(kd.InitialMeasure(atoms=[(0.37, 0.8)]), id="atom"),
])
def test_time_error_estimates_the_fine_run(selection, init):
    # time_error is the estimate h sum |u_dt - u_2dt| / 3 of the fine run's
    # own L1 time error, not of the extrapolated density the state holds
    n, h, times = 128, 1.0 / 128, [0.25, 1.0]
    states = kd.evolve_fd(selection, init, times, n)
    _, fine = dense_cn_reference(selection, init, n, times)
    for st, u_fine, t in zip(states, fine, times):
        true = h * np.sum(np.abs(u_fine - expm_reference(selection, init, n, t)[:n]))
        assert st.time_error == pytest.approx(true, rel=0.05)


def test_extreme_drift_range_rejected():
    # beta = 1500 is resolved on 4096 cells, but the scale factors would
    # span about e^760 and underflow next to x = 1
    model = kd.make_kimura(0.0, 1500.0)
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    with pytest.raises(ValueError, match="varies too strongly"):
        kd.evolve_fd(model, init, [0.1], 4096)
