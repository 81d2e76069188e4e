"""Independent finite-difference reference solver.

Evolves the interior density in conservative form on a uniform cell mesh,
from t = 0 through the requested output times, the last of which ends the
run; the flux through each end face is accumulated into the endpoint
masses, so total discrete mass is conserved to roundoff by construction.
In time it runs Crank-Nicolson twice, at steps twice and four times the
cell width, and combines the two runs by Richardson extrapolation, which
cancels the scheme's second-order time error and leaves the mesh's; past
t = 256 cell widths, where the solution has smoothed (M. Luskin and R.
Rannacher, SIAM J. Numer. Anal. 19, 1982), both steps double with every
doubling of t.  On a mesh fine enough for central differences to be
monotone, the tridiagonal operator is similar to a symmetric one by a
positive diagonal scaling, so each run factors its implicit matrix as LDL^T
once per stop, an output time or the end of a doubling (LAPACK dpttrf), and
each step is one solve with that factor (dpttrs) on the
scaled state and one subtraction; the boundary fluxes and the
negative-density guard read a block of such steps in one pass.
Coarser meshes are rejected with the number of cells they need.  This solver
shares no code with the spectral route and serves as its end-to-end
cross-check; only verify runs it, so scipy's LAPACK is imported on first use,
off every command's start-up path.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quadrature import gauss01

_NEGATIVE_MASS_FRACTION = 1e-2
# the scaled state w = s u keeps full precision while the smallest scale
# factor (the largest is 1) stays far above the double underflow threshold
_LOG_SCALE_FLOOR = -600.0
# the largest mesh a too-coarse-mesh error suggests
_MAX_SUGGESTED_CELLS = 2**18
# fine steps per doubling of t once the fine step grows (the coarse run takes half):
# the fewest, a power of two, whose graded time error stays within the mesh's
# error on the bench configs; at 32 fd_verify's density gap grows to 9.2e-9
_DOUBLING_STEPS = 64
# the most time steps the two runs may take together: about 9 s at 1024 cells;
# a doubling of t costs 96, so only a long list of output times reaches it
_MAX_STEPS = 2**20
# steps per block of stored states; a block holds at most 512 KB of doubles
_BLOCK_STEPS = 64
_BLOCK_VALUES = 2**16
# the initial density's rule: Gauss nodes per piece, and the least number of
# pieces of a single smooth panel; a bump's mass is then exact to 1.6e-9 of it
_CELL_NODES = 8
_PANEL_PIECES = 16

ComparisonRow = namedtuple("ComparisonRow",
                           ["t", "q_l1_diff", "a_diff", "b_diff", "fd_time_error", "fd_solves"])


@dataclass
class FdState:
    """Snapshot of the reference solver: cell-averaged density plus the
    accumulated endpoint masses.  time_error, h sum |u_dt - u_2dt| / 3, is
    the estimated L1 time error of the fine run; the extrapolated density
    cancels that error to leading order, so its own is far smaller.  solves
    counts the tridiagonal solves (dpttrs) both runs made up to t."""

    t: float
    centers: np.ndarray
    values: np.ndarray
    a: float
    b: float
    time_error: float
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


def _symmetrizer(model, n_cells, lower, upper):
    """Scaling s > 0 with diag(s) L diag(s)^-1 symmetric, and the symmetric
    off-diagonal sqrt(upper[i] lower[i+1]).

    Needs upper[i] lower[i+1] > 0 on every interior face, the cell-Peclet
    condition under which central differences are monotone (with F >= 0,
    both factors are then positive).  A mesh that violates it is rejected with
    the smallest doubling of n_cells that meets it.  log s is shifted so that
    its largest value is 0."""
    coupling = upper[:-1] * lower[1:]
    bad = np.flatnonzero(~(coupling > 0.0))
    if bad.size:
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
    log_s = np.zeros(n_cells)
    np.cumsum(0.5 * np.log(upper[:-1] / lower[1:]), out=log_s[1:])
    log_s -= log_s.max()
    if log_s.min() < _LOG_SCALE_FLOOR:
        raise ValueError(
            f"the drift varies too strongly for the scaled solver: its scale factors "
            f"span e^{-log_s.min():.0f}, beyond e^{-_LOG_SCALE_FLOOR:.0f}"
        )
    return np.exp(log_s), np.sqrt(coupling)


def evolve_fd(model, init, times, n_cells, dt=None):
    """Run the reference solver from t = 0 and return an FdState at each of
    times, which must be nonnegative and increase strictly; the last ends
    the run.

    Crank-Nicolson in time, conservative fluxes in space; the initial
    measure, atoms and density alike, is split linearly between the nearest
    cell centres (_initial_cells), keeping its mass and first moment.  Two runs are
    stepped side by side, at dt (by default twice the cell width; it must be
    positive and may not exceed that) and at 2 dt, and combined by Richardson
    extrapolation, u = (4 u_dt - u_2dt) / 3, which cancels Crank-Nicolson's
    second-order time error; h sum |u_dt - u_2dt| / 3, the estimated L1 time
    error of the fine run, is kept as the state's time_error.  The fine step
    is dt up to T = 2 _DOUBLING_STEPS dt and T 2^j / _DOUBLING_STEPS on
    [T 2^j, T 2^(j+1)]; the ends of these doublings below the last output
    time join the output times as stops, and between two stops the coarse
    run takes n = ceil(span / 2 fine) equal steps and the fine run 2n, so each
    stop is hit exactly and the fine step is exactly half the coarse one; only
    the output times get states.  Each run accumulates its absorbed endpoint masses
    from zero, and a = a0 + (4 da_dt - da_2dt) / 3 (likewise b), so inert
    endpoint masses stay exact.

    The operator L is similar to a symmetric S = diag(s) L diag(s)^-1 (see
    _symmetrizer), so each run steps the scaled state w = s u: the matrix
    A = I - (step/2) S is positive definite, factored as LDL^T once per stop
    (dpttrf), and halving D makes that the factor of A/2, so each
    step is one solve (dpttrs) and one subtraction, w+ = 2 A^-1 w - w, into
    the next row of a block of at most _BLOCK_STEPS steps.  One pass per block
    adds its trapezoidal face fluxes to a and b, through coefficients with 1/s
    folded in, and tests the rows holding a negative value in step order.
    u = w / s is formed only at output times and for those rows.  Once the
    signed interior mass a run has left after a block, h |sum u| over the
    mean of its last two states, is at most the unit roundoff of the initial
    interior mass, its state is set to zero and it takes no more steps: later
    output times get that state, with its a and b unchanged.  The graded
    steps damp the stiffest cell modes less and less, and their residue
    alternates in sign across cells and from step to step: h sum |u| would
    step it to the last time, and on atom data the signed sum of one state
    can too.  The start-up steps, the blocks, this stop and the
    negative-density guard apply to each run alone; the guard reads the runs,
    not their combination.  A mesh too coarse for the drift (some
    upper[i] lower[i+1] <= 0) raises a ValueError that names cells and the
    count that resolves it; so does a pair of runs of more than _MAX_STEPS
    steps in all, naming the number of output intervals.
    """
    n_cells = int(n_cells)
    if n_cells < 128:
        raise ValueError("n_cells must be at least 128")
    xc, h, F, lower, diag, upper = _operator(model, n_cells)
    if dt is None:
        dt = 2.0 * h
    if not 0.0 < dt <= 2.0 * h * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} must be positive and at most twice the cell width, "
                         f"2h={2.0 * h}")
    output_times = [float(t) for t in times]
    increasing = all(t0 < t1 for t0, t1 in zip(output_times, output_times[1:]))
    if not increasing or min(output_times, default=0.0) < 0:
        raise ValueError("output times must be nonnegative and increase strictly")
    # the doublings' ends below the last time; past the double range end is inf
    ends, end = [], 2.0 * _DOUBLING_STEPS * dt
    while output_times and end < output_times[-1]:
        ends.append(end)
        end *= 2.0
    stops = np.union1d(output_times, ends)
    fine = np.ldexp(dt, np.searchsorted(ends, stops))
    # the coarse run's steps per stop, counted in floats: after an infinite
    # time span / 2 fine is inf, which no int holds; the fine run takes twice
    # as many, so the pair takes three times as many in all
    spans = np.diff(stops, prepend=0.0)
    with np.errstate(over="ignore"):
        counts = np.where(spans > 1e-14,
                          np.maximum(1.0, np.ceil(spans / (2.0 * fine) - 1e-12)), 0.0)
    if 3.0 * counts.sum() > _MAX_STEPS:
        raise ValueError(
            f"times: the {len(output_times)} output intervals up to t={output_times[-1]:g} "
            f"take {3.0 * counts.sum():.4g} finite-difference steps from dt={dt:.4g} and "
            f"{2.0 * dt:.4g} up at cells={n_cells}, more than {_MAX_STEPS}"
        )
    mass = init.interior_mass()  # u sums to about mass x cells, and block
    if mass * n_cells > 2.0**1014:  # sums of up to 130 rows of u need 2^-10 headroom
        raise ValueError(f"initial: interior mass {mass:.3g} passes {2.0**1014 / n_cells:.3g}, "
                         f"the most the finite-difference sums hold at cells={n_cells}")
    s, off = _symmetrizer(model, n_cells, lower, upper)
    from scipy.linalg.lapack import dpttrf, dpttrs

    u0 = _initial_cells(init, xc, h)
    mass0 = h * float(np.sum(u0))  # the interior's: a and b are inert
    # one-sided face fluxes (9 F0 u0 - F1 u1) / 3h into a and
    # (9 F[-1] u[-1] - F[-2] u[-2]) / 3h into b, read from w = s u
    a0, a1 = 3.0 * F[0] / (h * s[0]), -F[1] / (3.0 * h * s[1])
    b0, b1 = 3.0 * F[-1] / (h * s[-1]), -F[-2] / (3.0 * h * s[-2])

    def guard(w, t_step):
        neg = h * float(np.sum(np.minimum(w / s, 0.0)))
        if neg < -_NEGATIVE_MASS_FRACTION * mass0:
            raise ValueError(
                f"negative density overflow at t={t_step:.4g}: "
                f"{-neg:.3e} of interior mass {mass0:.3e} below zero at "
                f"cells={n_cells}; raise cells or smooth the initial data"
            )

    def crank_nicolson(refine):
        """One run, with refine steps per coarse step: yields u, the
        masses absorbed at each end since t = 0 and the solves made, at each
        output time."""
        # row 0 holds the state w = s u, rows 1.. the steps of one block
        block = np.empty((max(2, min(_BLOCK_STEPS + 1, _BLOCK_VALUES // n_cells)), n_cells))
        rows = list(block)
        w = rows[0]
        np.multiply(s, u0, out=w)
        a = b = 0.0
        t = 0.0
        solves = 0
        # the first two steps run as four damped implicit half-steps, which
        # suppresses the trapezoidal ringing that spike data would otherwise
        # excite without losing the scheme's second-order accuracy
        startup = 2
        decayed = False
        for t_out, out, nsteps in zip(stops.tolist(), np.isin(stops, output_times).tolist(),
                                      (refine * counts).astype(int).tolist()):
            if nsteps and not decayed:
                step = (t_out - t) / nsteps
                d, e, info = dpttrf(1.0 - 0.5 * step * diag, -0.5 * step * off)
                if info != 0:
                    raise RuntimeError(
                        f"Crank-Nicolson matrix is not positive definite at step "
                        f"{step:.3e} (dpttrf info={info})"
                    )
                k = min(startup, nsteps)
                for j in range(k):
                    # two implicit half-steps share the trapezoidal matrix
                    for _half in range(2):
                        w[:], info = dpttrs(d, e, w)
                        if info != 0:
                            raise RuntimeError(f"tridiagonal solve failed (dpttrs info={info})")
                        a += 0.5 * step * (a0 * w[0] + a1 * w[1])
                        b += 0.5 * step * (b0 * w[-1] + b1 * w[-2])
                    guard(w, t + (j + 1) * step)
                startup -= k
                solves += 2 * k
                # A/2 = L (D/2) L^T, so with d halved dpttrs returns 2 A^-1 w
                # exactly, and (I + step/2 S) w = (2I - A) w gives w+ = 2 A^-1 w - w
                d *= 0.5
                while k < nsteps:
                    m = min(len(rows) - 1, nsteps - k)
                    for j in range(m):
                        v, info = dpttrs(d, e, rows[j])
                        if info != 0:
                            raise RuntimeError(f"tridiagonal solve failed (dpttrs info={info})")
                        np.subtract(v, rows[j], out=rows[j + 1])
                    # the trapezoidal face fluxes of each w_j + w_j+1 in the block
                    edge = block[: m + 1, [0, 1, -2, -1]]
                    total = edge[:-1].sum(axis=0) + edge[1:].sum(axis=0)
                    a += 0.5 * step * (a0 * total[0] + a1 * total[1])
                    b += 0.5 * step * (b0 * total[3] + b1 * total[2])
                    # s > 0, so the rows of w and u = w / s go negative together
                    for j in np.flatnonzero(block[1 : m + 1].min(axis=1) < 0.0):
                        guard(rows[j + 1], t + (k + j + 1) * step)
                    k += m
                    solves += m
                    # the mean of the last two states, signed, spent within mass0's
                    # unit roundoff; <=: a zero interior stops at once
                    if 0.5 * h * abs(np.sum((rows[m - 1] + rows[m]) / s)) <= 2.0**-53 * mass0:
                        w[:] = 0.0
                        decayed = True
                        break
                    w[:] = rows[m]
            t = t_out
            if out:
                yield w / s, a, b, solves

    # the runs advance one output interval at a time, the coarse one first
    states = []
    for t, (u_2dt, da_2dt, db_2dt, n_2dt), (u_dt, da_dt, db_dt, n_dt) in zip(
            output_times, crank_nicolson(1), crank_nicolson(2)):
        states.append(FdState(
            t=t, centers=xc, values=(4.0 * u_dt - u_2dt) / 3.0,
            a=init.a0 + (4.0 * da_dt - da_2dt) / 3.0, b=init.b0 + (4.0 * db_dt - db_2dt) / 3.0,
            time_error=h * float(np.sum(np.abs(u_dt - u_2dt))) / 3.0, solves=n_2dt + n_dt,
        ))
    return states


def compare_with_spectral(fd_states, spectral_solutions):
    """Per-time differences between the two solvers.

    The spectral density is interpolated to the cell centers; returns rows of
    (t, L1 density gap, |a gap|, |b gap|, the FD state's time_error and
    solves)."""
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
                fd_time_error=fd.time_error, fd_solves=fd.solves,
            )
        )
    return rows
