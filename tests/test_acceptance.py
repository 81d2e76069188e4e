"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run pytest with -s or -rP to see them)."""

import time

import numpy as np
import pytest

import kimdiff as kd

from conftest import GRID, closed_grid, conservation_route, demo_function

SQ6 = np.sqrt(6.0)
BIG_GRID = closed_grid(4096)  # neutral_big's output grid


def report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def neutral_big(neutral):
    """Neutral basis at the acceptance resolution for evolution criteria."""
    return kd.build_basis(neutral, 64)


@pytest.fixture(scope="module")
def neutral_profile_big(neutral):
    return kd.fixation_profile(neutral)


@pytest.fixture(scope="module")
def uniform_run(neutral_big, neutral_profile_big):
    init = kd.InitialMeasure(density="uniform")
    return kd.project_initial(neutral_big, init, neutral_profile_big)


def test_neutral_eigenvalues(neutral):
    t0 = time.time()
    basis = kd.build_basis(neutral, 10)
    elapsed = time.time() - t0
    j = np.arange(10)
    exact = (j + 1.0) * (j + 2.0)
    rel = float(np.max(np.abs(basis.eigenvalues / exact - 1.0)))
    report(
        "neutral-eigenvalues",
        rel <= 1e-6 and elapsed < 30.0,
        f"max rel err {rel:.2e} (tol 1e-6), runtime {elapsed:.2f}s (< 30s)",
    )


def test_fixation_probability(neutral):
    x = np.linspace(0.0, 1.0, 4097)
    prof = kd.fixation_profile(neutral)
    neutral_err = float(np.max(np.abs(prof(x) - x)))
    worst = 0.0
    for beta in (-2.0, 1.0, 5.0):
        m = kd.CoefficientModel((1.0,), (beta,))
        p = kd.fixation_profile(m)
        exact = (1 - np.exp(-beta * x)) / (1 - np.exp(-beta))
        worst = max(worst, float(np.max(np.abs(p(x) - exact))))
    report(
        "fixation-probability",
        neutral_err <= 1e-10 and worst <= 1e-9,
        f"neutral err {neutral_err:.2e} (tol 1e-10), "
        f"constant-selection err {worst:.2e} (tol 1e-9)",
    )


def test_conservation_laws(selection, neutral_big, neutral_profile_big):
    times = (0.1, 0.5, 1.0, 2.0)
    results = []

    def run(basis, profile, init, x):
        coeffs = kd.project_initial(basis, init, profile)
        sols = kd.solutions_at(coeffs, times, x)
        return kd.conservation_residuals(sols)

    uniform = kd.InitialMeasure(density="uniform")
    rep = run(neutral_big, neutral_profile_big, uniform, BIG_GRID)
    results.append(("neutral/uniform", max(rep.mass_drift, rep.psi_mass_drift)))

    # interior point mass: the conserved quantities must stay constant in time
    atom = kd.InitialMeasure(atoms=[(0.25, 1.0)])
    rep_atom = run(neutral_big, neutral_profile_big, atom, BIG_GRID)
    results.append(("neutral/interior-atom", max(rep_atom.mass_span, rep_atom.psi_mass_span)))

    sel_basis = kd.build_basis(selection, 128)
    sel_profile = kd.fixation_profile(selection)
    bump = kd.InitialMeasure(density="bump(0.4, 0.2)")
    rep_sel = run(sel_basis, sel_profile, bump, GRID)
    results.append(("selection/bump", max(rep_sel.mass_drift, rep_sel.psi_mass_drift)))

    worst = max(v for _, v in results)
    detail = ", ".join(f"{n} {v:.2e}" for n, v in results)
    report("conservation-laws", worst <= 1e-5, detail + " (tol 1e-5 x mass)")


def test_boundary_mass_routes(selection, neutral_big, neutral_profile_big, uniform_run):
    times = (0.1, 0.5, 1.0, 2.0)
    coeffs_u = uniform_run
    psi_big = neutral_profile_big(BIG_GRID)
    disc_u = max(
        conservation_route(sol, coeffs_u.limits, psi_big)[2]
        for sol in kd.solutions_at(coeffs_u, times, BIG_GRID)
    )
    sel_basis = kd.build_basis(selection, 128)
    sel_profile = kd.fixation_profile(selection)
    bump = kd.InitialMeasure(density="bump(0.4, 0.2)")
    coeffs_b = kd.project_initial(sel_basis, bump, sel_profile)
    sel_psi = sel_profile(GRID)
    disc_b = max(
        conservation_route(sol, coeffs_b.limits, sel_psi)[2]
        for sol in kd.solutions_at(coeffs_b, times, GRID)
    )

    # point-mass data: conservation-route masses reach the exact limits
    # (1 - psi(x0), psi(x0)) at t = 6/lambda_0
    x0 = 0.01
    atom = kd.InitialMeasure(atoms=[(x0, 1.0)])
    coeffs_a = kd.project_initial(neutral_big, atom, neutral_profile_big)
    a_inf, b_inf = coeffs_a.limits
    t_star = 6.0 / neutral_big.eigenvalues[0]
    sol_star, sol_lim = kd.solutions_at(coeffs_a, [t_star, np.inf], BIG_GRID)
    a2, b2, _ = conservation_route(sol_star, (a_inf, b_inf), psi_big)
    psi_x0 = float(neutral_profile_big(x0))
    gap = max(abs(a2 - (1 - psi_x0)), abs(b2 - psi_x0))

    # the series masses are anchored at the exact limits, so for point-mass
    # data they leave the conservation route by no offset at t* or at t = inf
    a1, b1 = sol_star.a, sol_star.b
    a1_lim, b1_lim = sol_lim.a, sol_lim.b
    tail_consistency = max(
        abs((a1 - a2) - (a1_lim - a_inf)), abs((b1 - b2) - (b1_lim - b_inf))
    )

    report(
        "boundary-mass-routes",
        disc_u <= 1e-5 and disc_b <= 1e-5 and gap <= 1e-4 and tail_consistency <= 1e-12,
        f"route gap uniform {disc_u:.2e}, bump {disc_b:.2e} (tol 1e-5); "
        f"delta limits gap {gap:.2e} at t=6/lam0 (tol 1e-4); "
        f"series-route tail consistency {tail_consistency:.2e} (tol 1e-12)",
    )


def test_spectral_vs_fd(neutral, selection, uniform_run):
    times = [0.1, 1.0]
    coeffs_u = uniform_run
    sols_u = kd.solutions_at(coeffs_u, times, BIG_GRID)
    fd_u = kd.solve_fd(neutral, coeffs_u.measure, times, 1024)
    rows_u = kd.compare_with_spectral(fd_u, sols_u)

    sel_basis = kd.build_basis(selection, 128)
    sel_profile = kd.fixation_profile(selection)
    bump = kd.InitialMeasure(density="bump(0.4, 0.2)")
    coeffs_b = kd.project_initial(sel_basis, bump, sel_profile)
    sols_b = kd.solutions_at(coeffs_b, times, GRID)
    fd_b = kd.solve_fd(selection, bump, times, 1024)
    rows_b = kd.compare_with_spectral(fd_b, sols_b)

    worst_l1 = max(r.q_l1_diff for r in rows_u + rows_b)
    worst_ab = max(max(r.a_diff, r.b_diff) for r in rows_u + rows_b)

    # halving the FD mesh shrinks the gap by about 4x (second order)
    gaps = []
    for cells in (128, 256, 512):
        states = kd.solve_fd(selection, bump, [0.5], cells)
        ref = kd.solutions_at(coeffs_b, [0.5], GRID)
        gaps.append(kd.compare_with_spectral(states, ref)[0].q_l1_diff)
    ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
    order_ok = all(2.5 < r < 6.0 for r in ratios)

    report(
        "spectral-vs-fd",
        worst_l1 <= 1e-3 and worst_ab <= 1e-3 and order_ok,
        f"max L1 gap {worst_l1:.2e}, max mass gap {worst_ab:.2e} (tol 1e-3); "
        f"mesh-halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} (target ~4)",
    )


def test_exponential_convergence(uniform_run):
    coeffs = uniform_run
    diag = kd.decay_diagnostics(kd.solutions_at(coeffs, np.linspace(0.5, 1.5, 11), BIG_GRID))
    slope_ok = abs(diag.slope + 2.0) <= 0.01 * 2.0

    diag3 = kd.decay_diagnostics(kd.solutions_at(coeffs, [3.0], BIG_GRID))
    c_inf = diag3.c_inf
    scaled_gap = abs(diag3.scaled_l1[0] / c_inf - 1.0)

    radon_gap = 0.0
    for sol in kd.solutions_at(coeffs, (0.1, 0.5, 1.0, 2.0, 3.0), BIG_GRID):
        rho = kd.radon_distance_to_limit(sol)
        radon_gap = max(radon_gap, abs(rho - 2.0 * sol.density_l1()))

    report(
        "exponential-convergence",
        slope_ok and scaled_gap <= 1e-3 and radon_gap <= 1e-6,
        f"slope {diag.slope:.6f} (within 1% of -2), "
        f"scaled L1 vs C_inf rel gap {scaled_gap:.2e} at t=3 (tol 1e-3), "
        f"radon identity gap {radon_gap:.2e} (quadrature tol 1e-6)",
    )


def test_asymptotic_estimates(neutral):
    basis = kd.build_basis(neutral, 33)
    lam = basis.eigenvalues
    sup_phi = np.max(np.abs(basis.mode_values(closed_grid(49152)[1:-1])), axis=0)
    slope_phi = float(np.polyfit(np.log(lam[1:]), np.log(sup_phi[1:]), 1)[0])

    q_scaled = np.abs(basis.mode_masses) * lam**0.25
    bounded_q = float(np.max(q_scaled))

    ident = float(np.max(basis.identity_residuals))

    k_est, _ = kd.eigenvalue_growth(basis)
    report(
        "asymptotic-estimates",
        slope_phi <= 0.05 and bounded_q <= 6.0 and ident <= 1e-10
        and abs(k_est - 1.0) <= 0.1,
        f"sup|phi| log-log slope {slope_phi:.3f} (tol 0.05), "
        f"max |Q| lam^1/4 = {bounded_q:.2f} (bounded), "
        f"weak-form identity max rel residual {ident:.2e} (tol 1e-10), "
        f"K estimate {k_est:.3f} (1 +- 0.1)",
    )


def test_bessel_comparison(neutral):
    bessel_comparison = demo_function("05_endpoint_asymptotics.py", "bessel_comparison")
    basis = kd.build_basis(neutral, 20)
    errs = [bessel_comparison(basis, j, 8192) for j in (4, 8, 16)]
    report(
        "bessel-comparison",
        errs[0] > errs[1] > errs[2],
        "sup errors " + ", ".join(f"j={j}: {e:.2e}" for j, e in zip((4, 8, 16), errs)),
    )


def test_weak_form_residual(selection, neutral_big, uniform_run):
    # the weak form holds at every t > 0 exactly when each mode satisfies its
    # identity, and at t = 0 when the projection reproduces the data's moments
    ident = {"neutral": float(np.max(neutral_big.identity_residuals)),
             "selection": float(np.max(kd.build_basis(selection, 64).identity_residuals))}
    initial = kd.evolution.initial_residual(uniform_run)
    report(
        "weak-form-residual",
        max(ident.values()) <= 1e-10 and initial <= 1e-10,
        ", ".join(f"{k} modes: {v:.2e}" for k, v in ident.items())
        + f", t = 0 term: {initial:.2e} (tol 1e-10)",
    )


def test_degenerate_inputs(neutral_big, neutral_profile_big):
    # boundary atoms only: exactly constant solution
    init = kd.InitialMeasure(a0=0.3, b0=0.7)
    coeffs = kd.project_initial(neutral_big, init, neutral_profile_big)
    exact = True
    for sol in kd.solutions_at(coeffs, (0.1, 1.0, 5.0), BIG_GRID):
        exact = exact and np.all(sol.density == 0.0) and sol.a == 0.3 and sol.b == 0.7

    # data with no leading-mode content decays at the second eigenvalue
    odd = kd.SpectralCoefficients(np.zeros(neutral_big.n_modes), neutral_big, init,
                                  neutral_profile_big)
    odd.values[1] = 1.0
    odd_sols = kd.solutions_at(odd, np.linspace(0.4, 1.2, 9), BIG_GRID)
    diag = kd.decay_diagnostics(odd_sols)
    lam1 = neutral_big.eigenvalues[1]
    slope_gap = abs(diag.slope + lam1) / lam1
    report(
        "degenerate-inputs",
        exact and slope_gap <= 0.02,
        f"boundary-atoms-only constant: {exact}; "
        f"degenerate slope {diag.slope:.4f} vs -{lam1:.4f} "
        f"(rel gap {slope_gap:.2e}, tol 2%)",
    )
