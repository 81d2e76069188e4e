import numpy as np
import pytest

import kimdiff as kd


@pytest.fixture(scope="session")
def neutral():
    return kd.make_kimura(0.0, 0.0)


@pytest.fixture(scope="session")
def neutral_basis(neutral):
    """Mid-resolution neutral basis shared across tests."""
    return kd.build_basis(neutral, 16, 2048)


@pytest.fixture(scope="session")
def neutral_profile(neutral):
    return kd.fixation_profile(neutral)


@pytest.fixture(scope="session")
def selection():
    """Frequency-selection model used by cross-solver scenarios."""
    return kd.make_kimura(1.0, -0.5)


def neutral_mode_exact(j, x):
    """Exact neutral density modes: normalized Jacobi-type polynomials.

    Closed form used as an oracle: eigenvalues (j+1)(j+2), polynomial modes
    with the weight x(1-x); normalization matches the unit weighted norm of
    the eigenfunctions, sign matches a positive slope at 0.
    """
    from scipy.special import eval_jacobi

    gamma = np.sqrt((2 * j + 3) * (j + 2) / (j + 1)) if j else np.sqrt(6.0)
    val = gamma * eval_jacobi(j, 1, 1, 2 * np.asarray(x, float) - 1)
    # eval_jacobi gives value (-1)^j (j+1) at x=0; flip odd modes so the
    # left endpoint value is positive.
    return -val if j % 2 else val


def conservation_route(sol, limits, psi):
    """Boundary masses from the conservation laws at one time, the reference
    the series masses are checked against: a2 = a_inf - integral (1 - psi) q
    and b2 = b_inf - integral psi q, each by np.trapezoid on the solution
    grid.  Returns (a2, b2, max |series mass - route mass|)."""
    a2 = limits[0] - np.trapezoid((1.0 - psi) * sol.density, sol.grid)
    b2 = limits[1] - np.trapezoid(psi * sol.density, sol.grid)
    return a2, b2, max(abs(sol.a - a2), abs(sol.b - b2))
