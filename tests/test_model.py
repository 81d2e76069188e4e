import mpmath
import numpy as np
import pytest

import kimdiff as kd


def random_valid_model(rng):
    # quadratic diffusion factor with dominant constant term stays positive
    psi = (0.5 + rng.uniform(0, 1.5), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    deg = rng.integers(0, 4)
    pi = tuple(rng.uniform(-2, 2) for _ in range(deg + 1))
    return kd.CoefficientModel(psi, pi)


def test_kimura_presets():
    m = kd.make_kimura(0, 0)
    assert m.psi_coeffs == (1.0,)
    assert m.pi_coeffs == (0.0,)
    x = np.linspace(0.01, 0.99, 101)
    assert np.allclose(m.diffusion(x), x * (1 - x))
    assert np.allclose(m.drift(x), 0.0)

    m10 = kd.make_kimura(1, 0)
    assert np.allclose(m10.drift(x), x**2 * (1 - x))
    m01 = kd.make_kimura(0, 1)
    assert np.allclose(m01.drift(x), x * (1 - x))


def test_xi_bounds_reach_the_root_of_pi():
    # Pi = 20 - 40 x: Xi = 20 x (1 - x) is 0 at both ends and 5 at the root 1/2
    lo, hi = kd.make_kimura(-40.0, 20.0).xi_bounds()
    assert lo == pytest.approx(0.0, abs=1e-14) and hi == pytest.approx(5.0, rel=1e-14)
    assert kd.make_kimura(0.0, -3.0).xi_bounds() == pytest.approx((-3.0, 0.0), abs=1e-14)


def test_weight_times_x_limit(neutral):
    x = 1e-9
    assert neutral.weight(x) * x == pytest.approx(1.0, rel=1e-8)


def test_xi_integral_examples(neutral):
    assert neutral.xi_integral(1.0) == pytest.approx(0.0, abs=1e-14)
    const = kd.CoefficientModel((1.0,), (1.0,))
    assert const.xi_integral(0.3) == pytest.approx(0.3, abs=1e-12)
    m = kd.make_kimura(2, 0)  # xi = 2x, integral x^2
    assert m.xi_integral(1.0) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0, 1, 17)
    assert np.allclose(m.xi_integral(xs), xs**2, atol=1e-12)


def _xi_integral_by_mpmath(model, x):
    """Xi(x) by mpmath quadrature of Pi / Psi, 30 digits, split at 1/2."""
    with mpmath.workdps(30):
        def xi(s):
            return (mpmath.polyval(model.pi_coeffs[::-1], s)
                    / mpmath.polyval(model.psi_coeffs[::-1], s))

        return float(mpmath.quad(xi, [0, 0.5, x] if x > 0.5 else [0, x]))


def test_xi_integral_matches_direct():
    rng = np.random.default_rng(7)
    models = [random_valid_model(rng) for _ in range(5)]
    # Psi dips to 0.005 at x = 1/2, so Xi climbs to about 200
    models.append(kd.CoefficientModel((0.055, -0.2, 0.2), (1.0, 3.0)))
    for m in models:
        for x in rng.uniform(0, 1, 4):
            assert m.xi_integral(float(x)) == pytest.approx(
                _xi_integral_by_mpmath(m, float(x)), abs=1e-11
            )


def test_xi_integral_monotone_for_nonnegative_xi():
    rng = np.random.default_rng(17)
    m = kd.CoefficientModel((1.0, 0.1), tuple(rng.uniform(0, 2, 3)))
    xs = np.sort(rng.uniform(0, 1, 50))
    vals = m.xi_integral(xs)
    assert np.all(np.diff(vals) > 0)


def test_positivity_validation_rejects():
    with pytest.raises(ValueError, match="positivity"):
        kd.CoefficientModel((-2.0, 1.0), (0.0,))  # Psi(x) = x - 2
    with pytest.raises(ValueError, match="positivity"):
        kd.CoefficientModel((0.0,), (1.0,))
    # Psi = (x - 0.50005)^2 - 1e-10 dips below 0 on an interval of width 2e-5,
    # between the points of a uniform grid of 10^4 gaps
    with pytest.raises(ValueError, match=r"positivity .* x = 0\.50005 "):
        kd.CoefficientModel((0.50005**2 - 1e-10, -1.0001, 1.0), (0.0,))

