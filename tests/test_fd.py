import re
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
    """A list that grows by one with each scipy.linalg.lapack.zgtsv or dgtsv call."""
    import scipy.linalg.lapack as lapack

    calls = []
    for name in ("zgtsv", "dgtsv"):
        def counted(*args, original=getattr(lapack, name)):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(lapack, name, counted)
    return calls


def test_zero_density_stays_zero(neutral):
    init = kd.InitialMeasure(a0=0.3, b0=0.7)
    states = kd.solve_fd(neutral, init, [0.25, 0.5], 256)
    for st in states:
        assert np.all(st.values == 0.0)
        assert st.a == 0.3 and st.b == 0.7


def test_endpoint_masses_leave_the_interior_alone(neutral):
    # the endpoint masses are inert, so a huge a0 leaves the interior alone
    masses = [[st.h * np.sum(st.values) for st in
               kd.solve_fd(neutral, kd.InitialMeasure(a0=a0, density="uniform"), [0.1, 1], 1024)]
              for a0 in (0.0, 1e16)]
    assert masses[0] == pytest.approx([0.8187, 0.1353], abs=1e-4)
    assert masses[1] == pytest.approx(masses[0], rel=1e-12, abs=0)


def test_single_mode_masses_match_analytic(neutral):
    states = kd.solve_fd(neutral, single_mode_init(), [0.5], 2048)
    st = states[-1]
    exact = SQ6 * (1 - np.exp(-1.0)) / 2
    assert abs(st.a - exact) <= 1e-3
    assert abs(st.b - exact) <= 1e-3
    q_exact = SQ6 * np.exp(-1.0)
    assert st.h * np.sum(np.abs(st.values - q_exact)) <= 1e-3


def test_discrete_mass_conservation(neutral):
    init = single_mode_init()
    states = kd.solve_fd(neutral, init, [0.2, 0.6, 1.0], 256)
    mass0 = init.total_mass()
    for st in states:
        assert abs(st.total_mass() - mass0) <= 1e-10 * mass0


def test_monotone_absorbed_masses(selection):
    init = kd.InitialMeasure(density="bump(0.4, 0.25)")
    states = kd.solve_fd(selection, init, [0.1, 0.3, 0.6, 1.0], 256)
    a_vals = [st.a for st in states]
    b_vals = [st.b for st in states]
    assert np.all(np.diff(a_vals) > 0)
    assert np.all(np.diff(b_vals) > 0)


def test_atom_deposited_with_exact_mass(neutral):
    init = kd.InitialMeasure(atoms=[(0.37, 0.8)], density="uniform")
    st = kd.solve_fd(neutral, init, [0.0], 256)[0]
    assert st.total_mass() == pytest.approx(init.total_mass(), rel=1e-12)
    # and its first moment; the uniform part's is 1/2 on the cell centres
    moment = st.h * float(np.sum(st.centers * st.values))
    assert moment == pytest.approx(0.5 + 0.8 * 0.37, rel=1e-12)
    assert np.count_nonzero(np.abs(st.values - 1.0) > 1e-9) == 2
    # an atom outside the first cell centre stays whole in the end cell
    edge = kd.InitialMeasure(atoms=[(0.001, 0.5)])
    st = kd.solve_fd(neutral, edge, [0.0], 256)[0]
    assert st.values[0] == pytest.approx(0.5 * 256, rel=1e-12)
    assert np.count_nonzero(st.values) == 1


def test_solve_count_is_every_lapack_solve(solves):
    # fd_verify's five times at 1024 cells: one real limit solve, then 10
    # complex ones per time, the neutral model's 20 contour nodes
    sc = load_scenario(Path(__file__).resolve().parents[1] / "bench" / "configs"
                       / "fd_verify.json")
    states = kd.solve_fd(sc.model, sc.initial, sc.times, sc.cells)
    assert [st.t for st in states] == list(sc.times)
    assert [st.solves for st in states] == [11, 21, 31, 41, 51]
    assert len(solves) == states[-1].solves


@pytest.mark.parametrize("beta, cells, per_time", [
    (0.0, 256, 10), (40.0, 256, 17), (100.0, 256, 27), (1500.0, 4096, 27),
])
def test_contour_nodes_grow_with_the_drift(beta, cells, per_time):
    # N = 20 + 2 ceil(range of Xi / 6), at most 54, and N / 2 solves per
    # time: Kimura (0, beta) has Xi = beta x, and beta = 100 and 1500 sit at
    # the cap
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    states = kd.solve_fd(kd.make_kimura(0.0, beta), init, [0.01, 0.1], cells)
    assert [st.solves for st in states] == [1 + per_time, 1 + 2 * per_time]


@pytest.mark.parametrize("beta, init, t, cells, message", [
    # past the 54-node cap the contour sum is garbage, 2.8e7 times the data
    pytest.param(600.0, kd.InitialMeasure(density="bump(0.5, 0.3)"), 3e-3, 2048,
                 r"finite-difference contour at t=0\.003: h sum \|u\| is \S+ times its "
                 r"initial value, which e\^\(tL\) cannot exceed; the discrete Xi ranges "
                 r"over 599\.7, sizing N=54 nodes", id="beyond-the-node-cap"),
    # at the interior-mass limit the non-normal resolvent overflows to NaN
    pytest.param(100.0, kd.InitialMeasure(atoms=[(0.05, 0.999 * 2.0**1014 / 256)]), 0.1, 256,
                 r"initial: interior mass 6\.85e\+302 overflows the finite-difference "
                 r"contour sums at t=0\.1 and cells=256", id="overflow-at-the-mass-limit"),
])
def test_contour_sum_above_the_initial_l1_norm_raises(beta, init, t, cells, message):
    # e^(tL) is a nonnegative L1 contraction: h sum |u(t)| <= h sum |u0|
    with pytest.raises(ValueError) as info:
        kd.solve_fd(kd.make_kimura(0.0, beta), init, [t], cells)
    assert re.fullmatch(message, str(info.value))


def test_fewer_than_128_cells_rejected(neutral):
    with pytest.raises(ValueError, match="at least 128"):
        kd.solve_fd(neutral, single_mode_init(), [0.1], 64)


def test_convergence_order_against_spectral(neutral, neutral_basis, neutral_profile):
    # exact in time, the single neutral mode is superconvergent in space;
    # the bump's gaps fall about 4x per halving of the mesh, its second order
    init = kd.InitialMeasure(density="bump(0.4, 0.2)")
    coeffs = kd.project_initial(neutral_basis, init, neutral_profile)
    sols = kd.solutions_at(coeffs, [0.5], GRID)
    gaps = []
    for cells in (128, 256, 512):
        states = kd.solve_fd(neutral, init, [0.5], cells)
        rows = kd.compare_with_spectral(states, sols)
        gaps.append(rows[0].q_l1_diff)
    assert 2.5 < gaps[0] / gaps[1] < 6.0
    assert 2.5 < gaps[1] / gaps[2] < 6.0


def test_compare_with_spectral_pairs_times(neutral, neutral_basis, neutral_profile):
    init = single_mode_init()
    coeffs = kd.project_initial(neutral_basis, init, neutral_profile)
    sols = kd.solutions_at(coeffs, (0.1, 1.0), GRID)
    states = kd.solve_fd(neutral, init, [0.1, 1.0], 256)
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
    coeffs = kd.project_initial(basis, init, profile)
    times = [0.1, 1.0]
    sols = kd.solutions_at(coeffs, times, GRID)
    states = kd.solve_fd(selection, init, times, 512)
    for row in kd.compare_with_spectral(states, sols):
        assert row.q_l1_diff <= 1e-3
        assert row.a_diff <= 1e-3 and row.b_diff <= 1e-3


def test_output_times_must_increase(neutral):
    with pytest.raises(ValueError, match="increase"):
        kd.solve_fd(neutral, single_mode_init(), [0.5, 0.2], 256)
    with pytest.raises(ValueError, match="increase"):
        kd.solve_fd(neutral, single_mode_init(), [0.2, 0.2], 256)


def test_under_resolved_drift_names_cells():
    # at beta = 200 central differences on 128 cells are not monotone next
    # to x = 1; one doubling of the mesh resolves the drift
    model = kd.make_kimura(0.0, 200.0)
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    with pytest.raises(ValueError, match=r"cells=128 .* x in \[0\.98.*cells >= 256"):
        kd.solve_fd(model, init, [0.5], 128)
    kd.solve_fd(model, init, [1e-3], 256)


def expm_reference(model, init, n, t):
    """The exact-in-time solution of solve_fd's discrete operator at t:
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


@pytest.mark.parametrize("model, init", [
    pytest.param(kd.make_kimura(0.0, 0.0), kd.InitialMeasure(a0=0.1, b0=0.2, density="uniform"),
                 id="neutral"),
    pytest.param(kd.make_kimura(0.0, 60.0),
                 kd.InitialMeasure(a0=0.1, b0=0.2, density="bump(0.5, 0.3)"), id="selection"),
    pytest.param(kd.make_kimura(1.0, -0.5), kd.InitialMeasure(a0=0.1, b0=0.05, atoms=[(0.37, 0.8)]),
                 id="atom"),
    pytest.param(kd.make_kimura(0.0, 100.0), kd.InitialMeasure(a0=0.1, atoms=[(0.05, 1.0)]),
                 id="strong-atom"),
    pytest.param(kd.make_kimura(0.0, -100.0), kd.InitialMeasure(b0=0.1, atoms=[(0.95, 1.0)]),
                 id="strong-atom-mirrored"),
])
def test_contour_matches_the_matrix_exponential(model, init):
    # the contour is exact in time up to its quadrature error, which reads
    # below 3e-12 of the mass here; the nodes grow with the drift, and a
    # fixed 32 left 1.2e-6 on the atoms at beta = +-100
    n, h = 256, 1.0 / 256
    mass = init.total_mass()
    for st in kd.solve_fd(model, init, [1e-3, 0.05, 2.0], n):
        exact = expm_reference(model, init, n, st.t)
        assert h * np.sum(np.abs(st.values - exact[:n])) <= 1e-10 * mass
        assert abs(st.a - init.a0 - exact[n]) <= 1e-10 * mass
        assert abs(st.b - init.b0 - exact[n + 1]) <= 1e-10 * mass


def test_extreme_times_stay_in_the_double_range(selection):
    # every time is its own contour sum, so t = 1e300 costs what t = 1 does;
    # the interior has decayed there, and a and b hold the whole cell mass.
    # At t = 1e-310, z = zeta / t would overflow, and the solves take tL
    init = kd.InitialMeasure(a0=0.1, b0=0.05, atoms=[(0.37, 0.8)], density="bump(0.4, 0.2)")
    start, tiny, far = kd.solve_fd(selection, init, [0.0, 1e-310, 1e300], 1024)
    assert far.solves == 23
    assert np.max(np.abs(tiny.values - start.values)) <= 1e-12 * np.max(start.values)
    assert np.max(np.abs(far.values)) * far.h <= 1e-12
    assert far.a + far.b == pytest.approx(start.total_mass(), abs=1e-12)


@pytest.mark.parametrize("beta", [5.0, 20.0])
def test_mirrored_data_give_the_mirrored_solution(beta):
    # x -> 1 - x maps Kimura (0, beta) to (0, -beta) and swaps the ends: the
    # density reverses and a and b trade places
    for init, mirror in [
        (kd.InitialMeasure(a0=0.1, b0=0.3, density="bump(0.3, 0.2)"),
         kd.InitialMeasure(a0=0.3, b0=0.1, density="bump(0.7, 0.2)")),
        (kd.InitialMeasure(a0=0.2, atoms=[(0.3, 1.0)]),
         kd.InitialMeasure(b0=0.2, atoms=[(0.7, 1.0)])),
    ]:
        times = [0.0, 0.05, 0.5]
        mass = init.total_mass()
        for st, mst in zip(kd.solve_fd(kd.make_kimura(0.0, beta), init, times, 256),
                           kd.solve_fd(kd.make_kimura(0.0, -beta), mirror, times, 256)):
            assert st.h * np.sum(np.abs(st.values - mst.values[::-1])) <= 1e-10 * mass
            assert abs(st.a - mst.b) <= 1e-10 * mass and abs(st.b - mst.a) <= 1e-10 * mass


def test_extreme_drift_evolves():
    # beta = 1500 is resolved on 4096 cells; a diagonal scaling that made L
    # symmetric would span e^760 and underflow next to x = 1, and the
    # pivoted solves take L as it stands
    model = kd.make_kimura(0.0, 1500.0)
    init = kd.InitialMeasure(density="bump(0.5, 0.3)")
    start, st = kd.solve_fd(model, init, [0.0, 0.1], 4096)
    assert np.all(np.isfinite(st.values)) and np.min(st.values) >= -1e-10
    assert st.total_mass() == pytest.approx(start.total_mass(), abs=1e-10)
