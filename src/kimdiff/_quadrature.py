"""The package's one Gauss-Legendre rule and the piecewise Legendre tables of
running integrals built on it, for the model, fixation, spectral and evolution code."""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legval, legvander


@lru_cache(maxsize=None)  # callers ask for a handful of sizes, each built once
def gauss01(n):
    """The n-node Gauss-Legendre rule (nodes ascending, weights) on [0, 1],
    read-only and mirrored exactly: Newton on P_n's recurrence from Tricomi's
    roots y = 2x - 1 (0 kept for odd n); w = 1 / ((1 - y^2) P_n'(y)^2) takes
    P_n' at the converged roots, which near y = +-1 is worth 1e-11 relative."""
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    y = (1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)) * np.cos(theta)
    y[n // 2:] = 0.0  # the middle root of odd n
    step = np.ones_like(y)
    for _ in range(9):  # the pass after the last step only evaluates P_n'
        p_prev, p = np.ones_like(y), y
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * y * p - j * p_prev) / (j + 1)
        dp = n * (y * p - p_prev) / (y * y - 1.0)
        if np.max(np.abs(step)) <= 1e-15:
            break
        step = p / dp
        y -= step
    t = 0.5 * (1.0 - y)  # the nodes in [0, 1/2]
    w = 1.0 / ((1.0 - y * y) * dp**2)
    x = np.concatenate((t, (1.0 - t)[::-1][n % 2:]))
    w = np.concatenate((w, w[::-1][n % 2:]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


TABLE_GAPS = 1024
TABLE_TOL = 1e-12
_X24, _W24 = gauss01(24)
# the 24 Gauss nodes of each gap, one column per gap: where tables take their samples
TABLE_NODES = (np.arange(TABLE_GAPS) + _X24[:, None]) / TABLE_GAPS
_VANDER = legvander(2.0 * _X24 - 1.0, 24)  # P_n at the nodes of a gap, n <= 24
# Legendre coefficients a_n = (2n + 1) sum_i w_i P_n(2 x_i - 1) f(x_i), exact to degree 23
_TRANSFORM = np.outer(2.0 * np.arange(24) + 1.0, _W24) * _VANDER[:, :24].T
# half the integral from -1 of P_n, n < 24, in P_0..P_24: P_0 + P_1 for n = 0,
# else (P_{n+1} - P_{n-1}) / (2n + 1)
_HALF = 0.5 / TABLE_GAPS
_INTEGRATE = (np.eye(25, 24, -1) - np.eye(25, 24, 1)) * (_HALF / (2.0 * np.arange(24) + 1.0))
_INTEGRATE[0, 0] = _HALF


def running_integral_table(samples, name):
    """Piecewise Legendre table of F(x) = integral_0^x f on [0, 1].

    samples holds f at TABLE_NODES, the 24 Gauss nodes of each of TABLE_GAPS
    uniform gaps; their Legendre coefficients are integrated exactly and
    offset by the integral over the gaps to the left.  Column k holds F on
    gap k in the local variable t in [-1, 1]; trailing rows that are zero to
    roundoff on every gap are dropped.  The last two coefficients of a gap,
    scaled to the integral, estimate what its nodes miss; above TABLE_TOL the
    build raises ValueError naming the integrand (name) and the worst gap.
    """
    coef = _TRANSFORM @ samples
    tail = _HALF * np.abs(coef[-2:]).sum(axis=0)
    if not np.all(tail <= TABLE_TOL):  # a NaN tail fails too
        k = int(np.argmax(tail))  # the worst gap, or the first NaN
        raise ValueError(
            f"{name} is not resolved by 24 Gauss nodes per gap of width 1/{TABLE_GAPS}"
            f" near x = {(k + 0.5) / TABLE_GAPS:.4f} (Legendre tail {tail[k]:.2e} > {TABLE_TOL})"
        )
    table = _INTEGRATE @ coef
    table[0] += np.concatenate(([0.0], np.cumsum(2.0 * _HALF * coef[0, :-1])))
    size = np.max(np.abs(table), axis=1)
    kept = np.flatnonzero(size > np.finfo(float).eps * size.max())
    return table[: kept[-1] + 1 if kept.size else 1]


def node_values(table):
    """Values of a running_integral_table at TABLE_NODES, by one product."""
    return _VANDER[:, :len(table)] @ table


def table_values(table, x):
    """Values at points x in [0, 1] of a running_integral_table: find each
    point's gap, then sum its Legendre series by Clenshaw's recurrence; any
    other point, NaN included, raises ValueError."""
    x = np.asarray(x, float)
    inside = (x >= 0.0) & (x <= 1.0)  # a NaN is neither
    if not np.all(inside):
        raise ValueError(f"tables are read only in [0, 1], not at x = {x[~inside].flat[0]:g}")
    s = x * table.shape[1]
    k = np.clip(s.astype(int), 0, table.shape[1] - 1)
    return legval(2.0 * (s - k) - 1.0, table[:, k], tensor=False)
