"""Piecewise Legendre tables of running integrals, shared by the model,
fixation and spectral code."""

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

_NODES24, _WEIGHTS24 = leggauss(24)

TABLE_GAPS = 1024
TABLE_TOL = 1e-12
# discrete Legendre transform at the 24 Gauss nodes, exact for degree <= 23:
# a_n = (n + 1/2) sum_i w_i P_n(t_i) f(t_i)
_TRANSFORM = (np.arange(24) + 0.5)[:, None] * legvander(_NODES24, 23).T * _WEIGHTS24


def running_integral_table(f, name):
    """Piecewise Legendre table of F(x) = integral_0^x f on [0, 1].

    f, which maps arrays of points to values, is sampled at the 24 Gauss
    nodes of each of TABLE_GAPS uniform gaps; its Legendre coefficients are
    integrated exactly and offset by the integral over the gaps to the left.
    Column k holds F on gap k in the local variable t in [-1, 1]; trailing
    rows that are zero to roundoff on every gap are dropped.  The last two
    coefficients of a gap, scaled to the integral, estimate what its nodes
    miss; above TABLE_TOL the build raises ValueError naming the integrand
    (name) and the worst gap.
    """
    half = 0.5 / TABLE_GAPS
    left = 2.0 * half * np.arange(TABLE_GAPS)
    coef = _TRANSFORM @ f(left + half * (_NODES24[:, None] + 1.0))
    tail = half * np.abs(coef[-2:]).sum(axis=0)
    if not np.all(tail <= TABLE_TOL):  # a NaN tail fails too
        k = int(np.argmax(tail))  # the worst gap, or the first NaN
        raise ValueError(
            f"{name} is not resolved by 24 Gauss nodes per gap of width 1/{TABLE_GAPS}"
            f" near x = {left[k] + half:.4f} (Legendre tail {tail[k]:.2e} > {TABLE_TOL})"
        )
    table = legint(coef, lbnd=-1, scl=half, axis=0)
    table[0] += np.concatenate(([0.0], np.cumsum(2.0 * half * coef[0, :-1])))
    size = np.max(np.abs(table), axis=1)
    kept = np.flatnonzero(size > np.finfo(float).eps * size.max())
    return table[: kept[-1] + 1 if kept.size else 1]


def table_values(table, x):
    """Values at points x in [0, 1] of a running_integral_table: find each
    point's gap, then sum its Legendre series by Clenshaw's recurrence."""
    s = np.asarray(x, float) * table.shape[1]
    k = np.clip(s.astype(int), 0, table.shape[1] - 1)
    return legval(2.0 * (s - k) - 1.0, table[:, k], tensor=False)
