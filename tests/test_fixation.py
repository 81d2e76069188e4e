import mpmath
import numpy as np
import pytest

import kimdiff as kd

from conftest import demo_function


def test_neutral_profile_is_identity(neutral):
    x = np.linspace(0.0, 1.0, 2049)
    assert np.max(np.abs(neutral.fixation(x) - x)) <= 1e-10


@pytest.mark.parametrize("beta", [-2.0, 1.0, 5.0])
def test_constant_selection_closed_form(beta):
    m = kd.CoefficientModel((1.0,), (beta,))
    prof = kd.fixation_profile(m)
    x = np.linspace(0.0, 1.0, 1025)
    exact = (1 - np.exp(-beta * x)) / (1 - np.exp(-beta))
    assert np.max(np.abs(prof(x) - exact)) <= 1e-9


def test_unit_xi_midpoint_value():
    m = kd.CoefficientModel((1.0,), (1.0,))
    prof = kd.fixation_profile(m)
    expected = (1 - np.exp(-0.5)) / (1 - np.exp(-1))
    assert prof(0.5) == pytest.approx(expected, abs=1e-9)
    assert prof(np.linspace(0.0, 1.0, 2049))[1024] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("eta", [5e-324, 1e-310, -1e-308])
def test_root_of_pi_past_the_double_range(eta):
    # -beta / eta would overflow, but eta is below 2^-53 of beta, so the
    # model drops it: the profile is that of eta = 0, with no overflow warning
    x = np.linspace(0.0, 1.0, 1025)
    prof, flat = (kd.fixation_profile(kd.make_kimura(e, 20.0)) for e in (eta, 0.0))
    assert np.array_equal(prof(x), flat(x))


def test_scaling_invariance():
    # multiplying both factors by the same constant leaves xi, hence psi, alone
    base = kd.CoefficientModel((1.0, 0.2), (0.5, 1.0))
    scaled = kd.CoefficientModel((3.0, 0.6), (1.5, 3.0))
    p1 = kd.fixation_profile(base)
    p2 = kd.fixation_profile(scaled)
    x = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(p1(x) - p2(x))) <= 1e-12


def _psi_by_mpmath(xi_integral, xs):
    """psi at xs by mpmath quadrature of exp(-Xi), 30 digits."""
    with mpmath.workdps(30):
        def weight(s):
            return mpmath.exp(-xi_integral(s))

        c = mpmath.quad(weight, [0, 0.5, 1])
        return np.array([float(mpmath.quad(weight, [0, x]) / c) for x in xs])


def test_strong_opposing_selection_matches_mpmath():
    # xi = 20 - 60x: e^-Xi dips to e^-10/3 and then grows to e^10 at x = 1
    m = kd.make_kimura(-60.0, 20.0)
    prof = kd.fixation_profile(m)
    grid = np.linspace(0.0, 1.0, 2049)[::128]
    off = np.linspace(0.013, 0.987, 9)
    exact = _psi_by_mpmath(lambda s: 20 * s - 30 * s**2, np.r_[grid, off])
    assert np.max(np.abs(prof(grid) - exact[: len(grid)])) <= 1e-13
    assert np.max(np.abs(prof(off) - exact[len(grid):])) <= 1e-13


def test_off_grid_values_match_closed_forms():
    # the basis grid x_i = i / 2049 falls between the fixation grid points
    x = np.arange(1, 2049) / 2049
    strong = kd.fixation_profile(kd.make_kimura(0.0, 20.0))
    exact = -np.expm1(-20.0 * x) / -np.expm1(-20.0)
    assert np.max(np.abs(strong(x) - exact)) <= 1e-13
    sel = kd.fixation_profile(kd.make_kimura(1.0, -0.5))
    xs = x[::128]
    exact = _psi_by_mpmath(lambda s: s**2 / 2 - s / 2, xs)
    assert np.max(np.abs(sel(xs) - exact)) <= 1e-13
    # neither table extrapolates (psi(1.5) read 1.391), and NaN raises no warning
    for bad in (1.5, -0.25, np.nan, [0.5, np.nan]):
        for table in (sel, kd.make_kimura(1.0, -0.5).xi_integral):
            with pytest.raises(ValueError, match=r"in \[0, 1\], not at x = (1\.5|-0\.25|nan)$"):
                table(bad)


def test_backward_residual_neutral(neutral):
    backward_residual = demo_function("01_fixation_probabilities.py", "backward_residual")
    prof = kd.fixation_profile(neutral)
    assert backward_residual(neutral, prof, np.linspace(0.0, 1.0, 2049)) <= 1e-6


def test_backward_residual_second_order():
    backward_residual = demo_function("01_fixation_probabilities.py", "backward_residual")
    m = kd.CoefficientModel((1.0,), (1.0,))
    prof = kd.fixation_profile(m)
    r_coarse = backward_residual(m, prof, np.linspace(0.0, 1.0, 1025))
    r_fine = backward_residual(m, prof, np.linspace(0.0, 1.0, 2049))
    assert 3.0 < r_coarse / r_fine < 5.0


def test_backward_residual_detects_non_solution(neutral):
    backward_residual = demo_function("01_fixation_probabilities.py", "backward_residual")
    grid = np.linspace(0, 1, 2049)
    # backward_residual only evaluates the profile, so any function will do;
    # F * 2 peaks at 1/2 with value 1/2 for the neutral model
    assert backward_residual(neutral, np.square, grid) == pytest.approx(0.5, abs=1e-3)

