import numpy as np
import pytest

from kimdiff._quadrature import running_integral_table, table_values


def test_polynomial_table_is_exact_and_trimmed():
    # the antiderivative x^3 + x has degree 3 on every gap: four rows survive
    table = running_integral_table(lambda x: 3.0 * x**2 + 1.0, "3x^2 + 1")
    assert table.shape[0] == 4
    x = np.r_[0.0, np.random.default_rng(3).uniform(0, 1, 200), 1.0]
    assert np.max(np.abs(table_values(table, x) - (x**3 + x))) <= 1e-15


def test_unresolved_integrand_names_x():
    # a spike 1e-5 wide inside the gap [307/1024, 308/1024]
    with pytest.raises(ValueError, match=r"spike is not resolved .* x = 0\.3003 "):
        running_integral_table(lambda x: np.exp(-(((x - 0.3) / 1e-5) ** 2)), "spike")
