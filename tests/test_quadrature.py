import numpy as np
import pytest
from numpy.polynomial.legendre import legint

import kimdiff as kd
from kimdiff import _quadrature
from kimdiff._quadrature import TABLE_NODES, node_values, running_integral_table, table_values


def _polynomial(x):
    return 3.0 * x**2 + 1.0


def _spike(x):
    return np.exp(-(((x - 0.3) / 1e-5) ** 2))


def test_polynomial_table_is_exact_and_trimmed():
    # the antiderivative x^3 + x has degree 3 on every gap: four rows survive
    table = running_integral_table(_polynomial(TABLE_NODES), "3x^2 + 1")
    assert table.shape[0] == 4
    x = np.r_[0.0, np.random.default_rng(3).uniform(0, 1, 200), 1.0]
    assert np.max(np.abs(table_values(table, x) - (x**3 + x))) <= 1e-15


def test_unresolved_integrand_names_x():
    # a spike 1e-5 wide inside the gap [307/1024, 308/1024]
    with pytest.raises(ValueError, match=r"spike is not resolved .* x = 0\.3003 "):
        running_integral_table(_spike(TABLE_NODES), "spike")


@pytest.mark.parametrize("f", [_polynomial, _spike])
def test_integration_matrix_is_legint(f):
    coef = _quadrature._TRANSFORM @ f(TABLE_NODES)
    expected = legint(coef, lbnd=-1, scl=0.5 / _quadrature.TABLE_GAPS, axis=0)
    got = _quadrature._INTEGRATE @ coef
    # within two units of roundoff of the table's largest entry
    assert np.max(np.abs(got - expected)) <= 2 * np.finfo(float).eps * np.max(np.abs(expected))


@pytest.mark.parametrize("model", [
    kd.make_kimura(0.0, 0.0), kd.make_kimura(1.0, -0.5),
    kd.CoefficientModel(psi_coeffs=(0.255, -1.0, 1.0), pi_coeffs=(0.3, 1.0)),
], ids=["neutral", "kimura(1,-0.5)", "psi-min"])
def test_node_values_read_the_table_at_its_nodes(model):
    table = model.xi_table
    scale = max(np.max(np.abs(table)), 1.0)
    assert np.max(np.abs(node_values(table) - table_values(table, TABLE_NODES))) <= 1e-15 * scale
