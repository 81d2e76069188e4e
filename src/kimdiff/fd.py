"""Independent finite-difference reference solver.

Evolves the interior density in conservative form with Crank-Nicolson time
stepping on a uniform cell mesh; the flux through each end face is
accumulated into the endpoint masses, so total discrete mass is conserved to
roundoff by construction.  The tridiagonal implicit matrix is LU-factored
once per output interval (LAPACK dgttrf), and each step is one solve with
that factor (dgttrs).  This solver shares no code with the spectral route
and serves as its end-to-end cross-check.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

_NEGATIVE_MASS_FRACTION = 1e-2

ComparisonRow = namedtuple("ComparisonRow", ["t", "q_l1_diff", "a_diff", "b_diff"])


@dataclass
class FdState:
    """Snapshot of the reference solver: cell-averaged density plus the
    accumulated endpoint masses."""

    t: float
    centers: np.ndarray
    values: np.ndarray
    a: float
    b: float

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
    u = init.density_samples(xc).astype(float)
    for x, m in init.atoms:
        cell = min(int(x / h), len(xc) - 1)
        u[cell] += m / h
    return u


def evolve_fd(model, init, t_end, n_cells, dt=None, output_times=None):
    """Run the reference solver to t_end and return FdState snapshots.

    Crank-Nicolson in time (dt defaults to the cell width; it must be
    positive and may not exceed it), conservative fluxes in space; interior atoms enter as single-cell
    spikes of exact mass.  output_times defaults to just t_end and must
    increase strictly; each requested time is hit exactly by shortening the
    steps of its interval.  The implicit matrix A = I - (step/2) L is
    LU-factored once per output interval, and each step is one tridiagonal
    solve with that factor.
    """
    n_cells = int(n_cells)
    if n_cells < 128:
        raise ValueError("n_cells must be at least 128")
    xc, h, F, lower, diag, upper = _operator(model, n_cells)
    if dt is None:
        dt = h
    if not dt > 0.0:
        raise ValueError(f"dt={dt} must be positive")
    if dt > h * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} violates the step-size restriction dt <= h={h}")
    if output_times is None:
        output_times = [float(t_end)]
    output_times = [float(t) for t in output_times]
    if any(t < 0 or t > t_end + 1e-12 for t in output_times):
        raise ValueError("output times must lie in [0, t_end]")
    if any(t1 <= t0 for t0, t1 in zip(output_times, output_times[1:])):
        raise ValueError("output times must increase strictly")

    u = _initial_cells(init, xc, h)
    a, b = init.a0, init.b0
    mass0 = a + b + h * float(np.sum(u))

    def left_flux(v):
        return (9.0 * F[0] * v[0] - F[1] * v[1]) / (3.0 * h)

    def right_flux(v):
        return -(9.0 * F[-1] * v[-1] - F[-2] * v[-2]) / (3.0 * h)

    states = []
    t = 0.0
    # the first two steps run as four damped implicit half-steps, which
    # suppresses the trapezoidal ringing that spike data would otherwise
    # excite without losing the scheme's second-order accuracy
    startup = 2
    for t_out in output_times:
        span = t_out - t
        if span > 1e-14:
            nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
            step = span / nsteps
            *factor, info = dgttrf(
                -0.5 * step * lower[1:], 1.0 - 0.5 * step * diag, -0.5 * step * upper[:-1]
            )
            if info != 0:
                raise RuntimeError(
                    f"Crank-Nicolson matrix is singular at step {step:.3e} "
                    f"(dgttrf info={info})"
                )

            def solve(rhs):
                x, info = dgttrs(*factor, rhs)
                if info != 0:
                    raise RuntimeError(f"tridiagonal solve failed (dgttrs info={info})")
                return x

            for k in range(nsteps):
                if startup > 0:
                    # two implicit half-steps share the trapezoidal matrix
                    for _half in range(2):
                        u = solve(u)
                        a += 0.5 * step * left_flux(u)
                        b -= 0.5 * step * right_flux(u)
                    startup -= 1
                else:
                    # (I + step/2 L) u = (2I - A) u, so u+ = 2 A^-1 u - u, and
                    # the trapezoidal face flux of u + u+ is that of 2 A^-1 u
                    v = solve(u)
                    a += step * left_flux(v)
                    b -= step * right_flux(v)
                    u = 2.0 * v - u
                if u.min() < 0.0:
                    neg = h * float(np.sum(np.minimum(u, 0.0)))
                    if neg < -_NEGATIVE_MASS_FRACTION * mass0:
                        raise RuntimeError(
                            f"negative density overflow at t={t + (k + 1) * step:.4g}: "
                            f"{-neg:.3e} of mass {mass0:.3e} below zero; refine the "
                            "mesh or smooth the initial data"
                        )
            t = t_out
        states.append(FdState(t=t, centers=xc, values=u.copy(), a=a, b=b))
    return states


def compare_with_spectral(fd_states, spectral_solutions):
    """Per-time differences between the two solvers.

    The spectral density is interpolated to the cell centers; returns rows of
    (t, L1 density gap, |a gap|, |b gap|)."""
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
                t=fd.t, q_l1_diff=l1, a_diff=abs(fd.a - sp.a), b_diff=abs(fd.b - sp.b)
            )
        )
    return rows
