"""Independent finite-difference reference solver.

Discretizes the interior density in conservative form on a uniform cell
mesh, u' = L u with a fixed tridiagonal L, and evaluates the semi-discrete
solution u(t) = e^(tL) u0 exactly in time: a contour integral of the
resolvent along Talbot's contour, summed by the trapezoidal rule with the
parameters of L. N. Trefethen, J. A. C. Weideman and T. Schmelzer,
"Talbot quadratures and rational approximations", BIT 46 (2006).  Each output
time is independent of the others and costs N / 2 complex tridiagonal solves
(LAPACK zgtsv, pivoted, on L as it stands), with N sized from the drift: 20
on a mild one, up to 54 under strong selection.  The endpoint masses are
anchored at the oracle's own limits, a(t) = a_inf - c_a^T (-L)^-1 u(t) with
c_a the one-sided flux through the face at 0 (likewise b), from one real
solve with (-L)^T (dgtsv); since h 1^T L = -(c_a + c_b)^T, total discrete
mass is conserved to roundoff by construction.  On a mesh fine enough for
central differences to be monotone, L has nonnegative off-diagonals, so
e^(tL) is entrywise nonnegative; coarser meshes are rejected with the number
of cells they need.  This solver shares no code with the spectral route and
serves as its end-to-end cross-check; only verify runs it, so scipy's LAPACK
is imported on first use, off every command's start-up path.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quadrature import gauss01

# the largest mesh a too-coarse-mesh error suggests
_MAX_SUGGESTED_CELLS = 2**18
# Talbot's contour, t z(theta) = N (SIGMA + MU theta cot(ALPHA theta) + NU i theta)
# for theta in (-pi, pi), with the trapezoidal rule's N midpoints; real data
# need the N/2 with theta > 0.  A strong drift leaves L far from normal, and N
# grows with it: _MIN_NODES, plus 2 for each _XI_PER_TWO_NODES, or part of it,
# in the range of the discrete Xi = h cumsum(xi(xc)), at most _MAX_NODES.
# Against the matrix exponential of L at 1024 cells, t = 0.003 to 3, on Kimura
# (0, +-beta) with bump(0.5, 0.3) and with a unit atom at 0.05 from the end the
# drift leaves, the fewest nodes within 1e-10 of the mass are 18 at beta = 0,
# 32 at 40, 46 at 100 and 54 at 150 (the atom; the bump needs at most 38), and
# the rule gives 20, 34, 54 and 54.  Extra nodes cost digits to the largest
# weight, e^(0.171 N): the neutral bump reads 6e-12 at N = 20 and 3e-9 at 56,
# the beta = 100 atom 2e-11 at 54, 1e-10 at 56 and 4e-10 at 64
_MIN_NODES, _XI_PER_TWO_NODES, _MAX_NODES = 20, 6.0, 54
_SIGMA, _MU, _ALPHA, _NU = -0.6122, 0.5017, 0.6407, 0.2645
# the initial density's rule: Gauss nodes per piece, and the least number of
# pieces of a single smooth panel; a bump's mass is then exact to 1.6e-9 of it
_CELL_NODES = 8
_PANEL_PIECES = 16

ComparisonRow = namedtuple("ComparisonRow", ["t", "q_l1_diff", "a_diff", "b_diff", "fd_solves"])


@dataclass
class FdState:
    """Snapshot of the reference solver: cell-averaged density plus the
    endpoint masses.  solves counts the tridiagonal solves (zgtsv and dgtsv)
    made up to t."""

    t: float
    centers: np.ndarray
    values: np.ndarray
    a: float
    b: float
    solves: int

    @property
    def h(self):
        return self.centers[1] - self.centers[0]

    def total_mass(self):
        return self.a + self.b + self.h * float(np.sum(self.values))


def _operator(model, n_cells):
    """Tridiagonal discrete divergence of the flux d/dx(F q) - G q.

    End rows use a one-sided second-order flux at the boundary faces, built
    from the quadratic through (0, 0) and the first two cell values of F q
    (F vanishes at the endpoints, so the product is pinned there)."""
    h = 1.0 / n_cells
    xc = (np.arange(n_cells) + 0.5) * h
    xf = np.arange(n_cells + 1) * h
    F = model.diffusion(xc)
    G = model.drift(xf)
    lower = np.zeros(n_cells)
    diag = np.zeros(n_cells)
    upper = np.zeros(n_cells)
    i = np.arange(1, n_cells - 1)
    diag[i] = -2.0 * F[i] / h**2 - (G[i + 1] - G[i]) / (2.0 * h)
    upper[i] = F[i + 1] / h**2 - G[i + 1] / (2.0 * h)
    lower[i] = F[i - 1] / h**2 + G[i] / (2.0 * h)
    diag[0] = -4.0 * F[0] / h**2 - G[1] / (2.0 * h)
    upper[0] = (4.0 / 3.0) * F[1] / h**2 - G[1] / (2.0 * h)
    diag[-1] = -4.0 * F[-1] / h**2 + G[n_cells - 1] / (2.0 * h)
    lower[-1] = (4.0 / 3.0) * F[-2] / h**2 + G[n_cells - 1] / (2.0 * h)
    return xc, h, F, lower, diag, upper


def _initial_cells(init, xc, h):
    """The initial cell values: the interior measure laid on the cell
    centres, each point mass split linearly between the two nearest, which
    keeps its mass and first moment (an end cell takes all beyond its
    centre).  The density enters as the point masses of the _CELL_NODES-node
    Gauss rule on each piece between the centres and its breakpoints, so that
    data narrower than a cell keep their mass and their place; samples are
    linear between their breakpoints, and a single smooth panel (a bump,
    uniform or a callable) is cut into _PANEL_PIECES."""
    n_cells = len(xc)
    cuts = init.breaks
    if len(cuts) == 2:
        cuts = np.linspace(cuts[0], cuts[1], _PANEL_PIECES + 1)
    edges = np.union1d(np.concatenate(([0.0], xc, [1.0])), cuts)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    nodes, weights = gauss01(_CELL_NODES)
    xd = (lo + width * nodes).ravel()
    x, m = np.reshape(init.atoms, (-1, 2)).T
    x = np.concatenate((x, xd))
    m = np.concatenate((m, (width * weights).ravel() * init.density_samples(xd)))
    s = np.clip(x / h - 0.5, 0.0, n_cells - 1.0)
    k = np.minimum(s.astype(int), n_cells - 2)
    return (np.bincount(k, m * (k + 1.0 - s), minlength=n_cells)
            + np.bincount(k + 1, m * (s - k), minlength=n_cells)) / h


def _check_monotone(model, n_cells, lower, upper):
    """Reject a mesh on which central differences are not monotone.

    That needs upper[i] lower[i+1] > 0 on every interior face, the cell-Peclet
    condition (with F >= 0, both factors are then positive, and so is every
    off-diagonal of L).  A mesh that violates it is rejected with the smallest
    doubling of n_cells that meets it."""
    bad = np.flatnonzero(~(upper[:-1] * lower[1:] > 0.0))
    if not bad.size:
        return
    lo_x, hi_x = (bad[[0, -1]] + 1.0) / n_cells
    where = f"x={lo_x:.4g}" if lo_x == hi_x else f"x in [{lo_x:.4g}, {hi_x:.4g}]"
    needed = 2 * n_cells
    while needed <= _MAX_SUGGESTED_CELLS:
        _, _, _, lo, _, up = _operator(model, needed)
        if np.all(up[:-1] * lo[1:] > 0.0):
            hint = f"use cells >= {needed}"
            break
        needed *= 2
    else:
        hint = f"no mesh up to cells={_MAX_SUGGESTED_CELLS} does"
    raise ValueError(
        f"cells={n_cells} does not resolve the drift: the central-difference "
        f"operator is not monotone (cell Peclet number too large) at {where}; "
        f"{hint}"
    )


def solve_fd(model, init, times, n_cells):
    """The reference solution at each of times, which must be nonnegative
    and increase strictly: a list of FdState.

    Conservative fluxes in space; the initial measure, atoms and density
    alike, is split linearly between the nearest cell centres
    (_initial_cells), keeping its mass and first moment.  At t = 0 the state
    holds u0 and the initial endpoint masses.  At t > 0 it holds

        u(t) = e^(tL) u0 = (1 / 2 pi i) int e^(zt) (zI - L)^-1 u0 dz

    on Talbot's contour z = zeta(theta) / t, by the midpoint rule in theta:
    u = Re sum_k w_k (zeta_k/t I - L)^-1 u0 / t over the N / 2 nodes with
    theta > 0, w_k = -2i e^zeta_k zeta'_k / N, each one pivoted complex
    tridiagonal solve (zgtsv), and N from the drift (see _MIN_NODES), the
    same at every time.  For t <= 1 the solves take t L and
    zeta_k instead, the same system times t, so that neither a tiny nor a
    huge t leaves the double range.  One real solve (-L)^T Y = [c_a c_b],
    with c_a and c_b the one-sided face fluxes (9 F0 u0 - F1 u1) / 3h and
    (9 F[-1] u[-1] - F[-2] u[-2]) / 3h (dgtsv), gives the limits
    a_inf = a0 + Y[:,0] . u0 and b_inf = b0 + Y[:,1] . u0, and
    a(t) = a_inf - Y[:,0] . u(t), likewise b: the integral of the flux
    c_a . u from 0 to t.  A mesh too coarse for the drift (some
    upper[i] lower[i+1] <= 0) raises a ValueError that names cells and the
    count that resolves it.  e^(tL) is then a nonnegative L1 contraction: an
    h sum |u(t)| past (1 + 1e-6) h sum |u0| raises a ValueError naming the
    range of the discrete Xi and N, or 'initial' and cells if it overflowed.
    """
    n_cells = int(n_cells)
    if n_cells < 128:
        raise ValueError("n_cells must be at least 128")
    output_times = [float(t) for t in times]
    increasing = all(t0 < t1 for t0, t1 in zip(output_times, output_times[1:]))
    if not increasing or min(output_times, default=0.0) < 0:
        raise ValueError("output times must be nonnegative and increase strictly")
    xc, h, F, lower, diag, upper = _operator(model, n_cells)
    mass = init.interior_mass()  # u sums to about mass x cells; the contour's largest
    if mass * n_cells > 2.0**1014:  # factor, e^(0.171 N), reaches 2^13 at N = 54: checked below
        raise ValueError(f"initial: interior mass {mass:.3g} passes {2.0**1014 / n_cells:.3g}, "
                         f"the most the finite-difference sums hold at cells={n_cells}")
    _check_monotone(model, n_cells, lower, upper)
    from scipy.linalg.lapack import dgtsv, zgtsv

    u0 = _initial_cells(init, xc, h)
    flux = np.zeros((n_cells, 2))
    flux[:2, 0] = 3.0 * F[0] / h, -F[1] / (3.0 * h)
    flux[-2:, 1] = -F[-2] / (3.0 * h), 3.0 * F[-1] / h
    # (-L)^T: its sub-diagonal is -upper, its super-diagonal -lower
    *_, Y, info = dgtsv(-upper[:-1], -diag, -lower[1:], flux)
    if info != 0:
        raise RuntimeError(f"limit solve failed (dgtsv info={info})")
    a_inf, b_inf = init.a0 + Y[:, 0] @ u0, init.b0 + Y[:, 1] @ u0

    xi_range = np.ptp(h * np.cumsum(model.xi(xc)))
    nodes = min(_MIN_NODES + 2 * int(np.ceil(xi_range / _XI_PER_TWO_NODES)), _MAX_NODES)
    theta = np.arange(1, nodes, 2) * np.pi / nodes
    zeta = nodes * (_SIGMA + _MU * theta / np.tan(_ALPHA * theta) + 1j * _NU * theta)
    dzeta = nodes * (_MU / np.tan(_ALPHA * theta)
                     - _MU * _ALPHA * theta / np.sin(_ALPHA * theta) ** 2 + 1j * _NU)
    weights = -2j / nodes * np.exp(zeta) * dzeta
    rhs = u0.astype(complex)[:, None]
    ys = np.empty((len(zeta), n_cells), complex)
    states, solves, l1_0 = [], 1, h * np.sum(np.abs(u0))
    for t in output_times:
        if t == 0.0:
            states.append(FdState(t, xc, u0.copy(), init.a0, init.b0, solves))
            continue
        # the systems zeta_k/t I - L times min(t, 1), and the weights over max(t, 1)
        r = 1.0 / max(t, 1.0)
        dl, d, du = -t * r * lower[1:] + 0j, -t * r * diag, -t * r * upper[:-1] + 0j
        for k, z in enumerate(zeta * r):
            *_, y, info = zgtsv(dl, z + d, du, rhs)
            if info != 0:
                raise RuntimeError(f"contour solve failed (zgtsv info={info})")
            ys[k] = y[:, 0]
        u = ((weights * r) @ ys).real
        l1 = h * np.sum(np.abs(u))
        if not l1 <= (1.0 + 1e-6) * l1_0:  # a NaN fails too
            raise ValueError(
                f"finite-difference contour at t={t:g}: h sum |u| is {l1 / l1_0:.3g} times its "
                f"initial value, which e^(tL) cannot exceed; the discrete Xi ranges over "
                f"{xi_range:.4g}, sizing N={nodes} nodes" if np.isfinite(l1) else
                f"initial: interior mass {mass:.3g} overflows the finite-difference contour "
                f"sums at t={t:g} and cells={n_cells}")
        solves += len(zeta)
        states.append(FdState(t, xc, u, a_inf - Y[:, 0] @ u, b_inf - Y[:, 1] @ u, solves))
    return states


def compare_with_spectral(fd_states, spectral_solutions):
    """Per-time differences between the two solvers.

    The spectral density is interpolated to the cell centers; returns rows of
    (t, L1 density gap, |a gap|, |b gap|, the FD state's solves)."""
    if len(fd_states) != len(spectral_solutions):
        raise ValueError("state lists must pair up one to one")
    rows = []
    for fd, sp in zip(fd_states, spectral_solutions):
        if abs(fd.t - sp.t) > 1e-9 * max(1.0, abs(sp.t)):
            raise ValueError(f"mismatched output times {fd.t} vs {sp.t}")
        q_at_centers = np.interp(fd.centers, sp.grid, sp.density)
        l1 = fd.h * float(np.sum(np.abs(fd.values - q_at_centers)))
        rows.append(
            ComparisonRow(
                t=fd.t, q_l1_diff=l1, a_diff=abs(fd.a - sp.a), b_diff=abs(fd.b - sp.b),
                fd_solves=fd.solves,
            )
        )
    return rows
