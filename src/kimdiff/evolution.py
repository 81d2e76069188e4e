"""Measure-valued solutions of the forward equation.

A solution is the triple (interior density, mass at 0, mass at 1); the
boundary masses grow as the degenerate diffusion pushes probability into the
endpoints.  The interior density evolves by the eigenmode series; the
boundary masses are obtained two independent ways (term-wise time integration
of the boundary flux, and the conservation-law route through the fixation
probability), which cross-validate each other.

There is one evaluation path: solutions_at evaluates the series for a whole
array of times at once, and every diagnostic (route cross-check, decay,
conservation, weak form) reads the SolutionMeasures it returns.
"""

import re
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

_BUMP_NORM = 0.4439938161680794  # integral of exp(-1/(1-u^2)) over (-1, 1)
# fraction of the initial mass the truncation and roundoff estimates may reach
_SERIES_TOL = 1e-6
_PRESET_RE = re.compile(r"^bump\(\s*([^,)]+)\s*,\s*([^,)]+)\s*\)$")
_VALIDATION_GRID = np.linspace(0.0, 1.0, 4097)

ConservationReport = namedtuple(
    "ConservationReport",
    ["mass_drift", "psi_mass_drift", "mass_span", "psi_mass_span",
     "mass_values", "psi_mass_values"],
)
DecayDiagnostics = namedtuple("DecayDiagnostics", ["c_inf", "scaled_l1", "slope"])


def _bump_shape(u):
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def bump_density(center, width, mass=1.0):
    """Smooth compactly supported density of the given total mass.

    Support is (center - width, center + width) and must stay inside (0, 1).
    """
    if not (0.0 < center - width and center + width < 1.0):
        raise ValueError("bump support must be contained in (0, 1)")
    scale = mass / (width * _BUMP_NORM)

    def density(x):
        return scale * _bump_shape((np.asarray(x, float) - center) / width)

    return density


def density_from_spec(spec):
    """Turn a density spec (None, callable, preset string, or (x, values)
    sample pair) into a callable, or None."""
    if spec is None or callable(spec):
        return spec
    if isinstance(spec, str):
        if spec == "uniform":
            return lambda x: np.ones_like(np.asarray(x, float))
        m = _PRESET_RE.match(spec.replace(" ", ""))
        if m:
            return bump_density(float(m.group(1)), float(m.group(2)))
        raise ValueError(f"unknown density preset {spec!r}")
    xs, vs = spec
    xs = np.asarray(xs, float)
    vs = np.asarray(vs, float)
    if xs.shape != vs.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("sampled density needs matching 1-d x and value arrays")
    if np.any(np.diff(xs) <= 0.0) or xs[0] < 0.0 or xs[-1] > 1.0:
        raise ValueError("sample locations must increase within [0, 1]")
    return lambda x: np.interp(np.asarray(x, float), xs, vs)


@dataclass
class InitialMeasure:
    """Initial data: endpoint masses, interior density, interior point masses.

    density may be None, a callable, a preset name ("uniform" or
    "bump(center,width)"), or a pair of sample arrays (x, values).
    atoms is a sequence of (location, mass) pairs with locations strictly
    inside (0, 1).
    """

    a0: float = 0.0
    b0: float = 0.0
    density: object = None
    atoms: tuple = ()

    def __post_init__(self):
        self.a0 = float(self.a0)
        self.b0 = float(self.b0)
        if self.a0 < 0.0 or self.b0 < 0.0:
            raise ValueError("endpoint masses must be nonnegative")
        self.atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        for x, m in self.atoms:
            if not 0.0 < x < 1.0:
                raise ValueError(f"interior atom at {x} lies outside (0, 1)")
            if m <= 0.0:
                raise ValueError("atom masses must be positive")
        self._density_fn = density_from_spec(self.density)
        if self._density_fn is not None:
            probe = self._density_fn(_VALIDATION_GRID)
            if np.min(probe) < 0.0:
                raise ValueError("initial density must be nonnegative")
        total = self.total_mass()
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError(f"total initial mass must be finite and positive, got {total}")

    def density_samples(self, x):
        if self._density_fn is None:
            return np.zeros_like(np.asarray(x, float))
        return self._density_fn(x)

    def density_integral(self, grid=None):
        if self._density_fn is None:
            return 0.0
        if grid is None:
            if isinstance(self.density, tuple):
                xs, vs = self.density
                return float(np.trapezoid(np.asarray(vs, float), np.asarray(xs, float)))
            grid = _VALIDATION_GRID
        return float(np.trapezoid(self._density_fn(grid), grid))

    def total_mass(self, grid=None):
        return self.a0 + self.b0 + self.density_integral(grid) + sum(
            m for _, m in self.atoms
        )


@dataclass
class SpectralCoefficients:
    """Projection of the initial measure onto the eigenbasis, plus the limit
    masses (a_inf, b_inf) that anchor the boundary-mass series."""

    values: np.ndarray
    limits: tuple = None

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectral coefficients must be finite")


@dataclass
class SolutionMeasure:
    """The solution triple at one time: density samples on the closed grid
    plus the absorbed masses a (at 0, extinction) and b (at 1, fixation)."""

    t: float
    grid: np.ndarray
    density: np.ndarray
    a: float
    b: float
    trunc_error: float = 0.0

    def density_l1(self):
        return float(np.trapezoid(np.abs(self.density), self.grid))


def project_initial(model, basis, init, profile):
    """Coefficients of the initial measure in the eigenbasis, with its limit
    masses from the fixation profile.

    The weighted pairing reduces to a plain integral of the density against
    the backward-form mode u_j = e^(-Xi/2) phi_j, taken by the basis's Gauss
    rule; phi_j is a polynomial vanishing at the endpoints, so interior point
    masses contribute exact point values.
    """
    vals = np.zeros(basis.n_modes)
    if init._density_fn is not None:
        q0 = init.density_samples(basis.quad_nodes)
        vals += (basis.quad_weights * q0) @ basis.quad_modes
    if init.atoms:
        xs, ms = np.array(init.atoms).T
        vals += (ms * np.exp(-0.5 * model.xi_integral(xs))) @ basis.mode_values(xs)
    return SpectralCoefficients(values=vals, limits=limit_masses(model, profile, init))


def solutions_at(model, basis, coeffs, init, times):
    """SolutionMeasures at each of the given times, evaluated together.

    The decayed coefficients c_j exp(-lambda_j t) form one (times x modes)
    matrix; its product with the density modes gives every density.  The
    boundary masses come from the same matrix, by term-wise time integration
    of the boundary flux series anchored at the exact limits:
    a(t) = a_inf - sum_j c_j Psi(0) q_j(0) exp(-lambda_j t) / lambda_j, and b
    likewise at x = 1, so truncation cannot offset the limits even for
    point-mass data.  t may be inf; t = 0 yields the raw initial data, since
    the truncated series need not converge pointwise for measure data.

    Each solution carries a truncation estimate, the last retained term's
    bound; one warning names the earliest time at which it exceeds 1e-6 of
    the initial mass.  The modes grow like e^(Xi range / 2), and the sum of
    |c_j exp(-lambda_j t)| max|q_j| times the unit roundoff estimates what
    rounding costs; where that exceeds 1e-6 of the initial mass at a
    positive time, ValueError names the earliest such time, the first safe
    one and the range of Xi.
    """
    times = np.atleast_1d(np.asarray(times, float))
    if np.any(times < 0.0):
        raise ValueError("t must be nonnegative")
    modes = basis.density_modes
    decayed = coeffs.values * np.exp(-np.outer(times, basis.eigenvalues))
    sup = np.max(np.abs(modes), axis=0)
    roundoff = np.finfo(float).eps * (np.abs(decayed) @ sup)
    bound = _SERIES_TOL * init.total_mass()
    unsafe = (times > 0.0) & (roundoff > bound)
    if unsafe.any():
        first = np.flatnonzero(unsafe)[np.argmin(times[unsafe])]
        safe = times[(times > 0.0) & ~unsafe]
        later = (f"the first safe requested time is t={safe.min():g}" if safe.size
                 else "no requested time is safe")
        xi = model.xi_integral(basis.closed_grid)
        raise ValueError(
            f"series roundoff estimate {roundoff[first]:.2e} at t={times[first]:g} "
            f"exceeds {_SERIES_TOL:g} of the initial mass: Xi ranges over "
            f"[{min(0.0, xi.min()):.4g}, {max(0.0, xi.max()):.4g}] on [0, 1], and the "
            f"eigenmodes grow like e^(Xi range / 2); {later}"
        )
    q = decayed @ modes.T
    trunc = np.abs(decayed[:, -1]) * sup[-1]
    tail = decayed / basis.eigenvalues
    a = coeffs.limits[0] - model.psi_at(0.0) * (tail @ modes[0, :])
    b = coeffs.limits[1] - model.psi_at(1.0) * (tail @ modes[-1, :])
    start = times == 0.0
    q[start] = init.density_samples(basis.closed_grid)
    trunc[start] = 0.0
    a[start], b[start] = init.a0, init.b0
    over = np.flatnonzero(trunc > bound)
    if over.size:
        first = over[np.argmin(times[over])]
        warnings.warn(
            f"series truncation estimate {trunc[first]:.2e} at t={times[first]} "
            f"exceeds {_SERIES_TOL:g} of the initial mass; add modes or evaluate later",
            stacklevel=2,
        )
    return [
        SolutionMeasure(
            t=float(t), grid=basis.closed_grid, density=q[i], a=float(a[i]),
            b=float(b[i]), trunc_error=float(trunc[i]),
        )
        for i, t in enumerate(times)
    ]


def limit_masses(model, profile, init):
    """Final absorbed masses: the fixation-probability moment of the initial
    measure gives the mass at 1, the moment of 1 - psi the mass at 0."""
    a_inf, b_inf = init.a0, init.b0
    if init._density_fn is not None:
        if isinstance(init.density, tuple):
            xs = np.asarray(init.density[0], float)
            psi = profile(xs)
        else:
            xs, psi = profile.grid, profile.values
        q0 = init.density_samples(xs)
        a_inf += float(np.trapezoid((1.0 - psi) * q0, xs))
        b_inf += float(np.trapezoid(psi * q0, xs))
    for x, m in init.atoms:
        psi = float(profile(x))
        a_inf += m * (1.0 - psi)
        b_inf += m * psi
    return a_inf, b_inf


def mass_cross_check(solution, limits, psi):
    """Boundary masses via the conservation laws, plus the discrepancy
    against the series route.

    The conserved fixation moment pins b(t) = b_inf - integral psi q(t), psi
    on the solution's grid; symmetrically for a.  Returns (a, b, max gap to
    the flux-series masses); a large gap signals basis or quadrature
    inconsistency (or unresolved measure-valued data)."""
    if solution.t <= 0.0:
        raise ValueError("the cross-check needs t > 0")
    a_inf, b_inf = limits
    grid, q = solution.grid, solution.density
    a2 = a_inf - float(np.trapezoid((1.0 - psi) * q, grid))
    b2 = b_inf - float(np.trapezoid(psi * q, grid))
    return a2, b2, max(abs(solution.a - a2), abs(solution.b - b2))


def conservation_residuals(init, solutions, limits, psi):
    """Defects of the two conservation laws along a solution sequence.

    psi is the fixation probability on the solutions' grid, limits are
    (a_inf, b_inf).  mass_values and psi_mass_values hold total mass and
    fixation moment for every solution; the drifts (against the initial
    mass and b_inf) and the max-minus-min spans leave out a t = 0 snapshot
    when two or more positive times are given, as it cannot carry atoms.
    """
    if len(solutions) < 2:
        raise ValueError("need solutions at two or more times")
    w = _trapezoid_weights(solutions[0].grid)
    density = np.stack([s.density for s in solutions])
    b = np.array([s.b for s in solutions])
    mass = np.array([s.a for s in solutions]) + b + density @ w
    psi_mass = b + density @ (w * psi)
    kept = np.array([s.t > 0.0 for s in solutions])
    kept |= kept.sum() < 2
    m, pm = mass[kept], psi_mass[kept]
    return ConservationReport(
        mass_drift=float(np.max(np.abs(m - init.total_mass()))),
        psi_mass_drift=float(np.max(np.abs(pm - limits[1]))),
        mass_span=float(np.max(m) - np.min(m)),
        psi_mass_span=float(np.max(pm) - np.min(pm)),
        mass_values=mass,
        psi_mass_values=psi_mass,
    )


def ds_norm(coeffs, basis, s):
    """Coefficient-space smoothness norm: sqrt(sum w_j^2 lambda_j^s)."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return float(np.sqrt(np.sum(coeffs.values**2 * basis.eigenvalues**s)))


def decay_diagnostics(basis, coeffs, solutions):
    """Large-time decay of the interior mass along a solution sequence.

    Returns the limit constant (leading mode mass times leading coefficient),
    the sequence exp(lambda_0 t) ||q(t)||_1 (0 where the norm underflowed),
    and the fitted slope of log ||q||_1 against t over the times with a
    nonzero norm, which should approach -lambda_0; None when fewer than two
    such times remain.
    """
    times = np.array([s.t for s in solutions])
    if np.any(times <= 0.0):
        raise ValueError("decay diagnostics need strictly positive times")
    lam0 = basis.eigenvalues[0]
    if abs(coeffs.values[0]) < 1e-12 * max(np.linalg.norm(coeffs.values), 1e-300):
        warnings.warn(
            "leading coefficient vanishes; the limit constant is 0 and decay "
            "is governed by the next eigenvalue",
            stacklevel=2,
        )
    l1 = np.array([s.density_l1() for s in solutions])
    c_inf = float(basis.mode_masses[0] * coeffs.values[0])
    with np.errstate(divide="ignore"):
        log_l1 = np.log(l1)
    fitted = l1 > 0.0
    slope = (
        float(np.polyfit(times[fitted], log_l1[fitted], 1)[0])
        if fitted.sum() >= 2 else None
    )
    return DecayDiagnostics(c_inf=c_inf, scaled_l1=np.exp(lam0 * times + log_l1),
                            slope=slope)


def radon_distance_to_limit(solution, limits):
    """Total-variation distance from the limit measure.

    For nonnegative data the mass gaps and the interior L1 norm add up, and
    the value equals exactly twice the interior L1 norm."""
    a_inf, b_inf = limits
    gap_a = a_inf - solution.a
    gap_b = b_inf - solution.b
    scale = max(abs(a_inf) + abs(b_inf), 1e-300)
    if min(gap_a, gap_b) < -1e-9 * scale:
        warnings.warn(
            f"negative mass gap at t={solution.t} (a: {gap_a:.2e}, b: {gap_b:.2e}); "
            "boundary masses should increase toward their limits",
            stacklevel=2,
        )
    return float(gap_a + gap_b + solution.density_l1())


def radon_bound_constant(basis, s):
    """Constant in the smoothness-weighted decay bound for the distance to
    the limit, computed from the resolved modes, plus a tail bound from the
    quarter-power decay of the mode masses."""
    if s <= 0.0:
        raise ValueError("the bound needs s > 0")
    if basis.n_modes < 2:
        raise ValueError("the tail estimate needs at least two resolved modes")
    lam = basis.eigenvalues
    c0s = float(np.sqrt(np.sum(basis.mode_masses**2 * lam ** (-s))))
    cq = float(np.max(np.abs(basis.mode_masses) * lam**0.25))
    m = basis.n_modes
    growth = lam[-1] / (m - 1) ** 2
    tail = float(np.sqrt(cq**2 * growth ** (-s - 0.5) * (m - 1) ** (-2 * s) / (2 * s)))
    return c0s, tail


# weak-form checking

def _bump_window(t0, t1):
    def zeta(t):
        u = (2.0 * np.asarray(t, float) - (t0 + t1)) / (t1 - t0)
        return _bump_shape(u)

    def zeta_prime(t):
        t = np.asarray(t, float)
        u = (2.0 * t - (t0 + t1)) / (t1 - t0)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = (
                np.exp(-1.0 / (1.0 - ui**2))
                * (-2.0 * ui / (1.0 - ui**2) ** 2)
                * (2.0 / (t1 - t0))
            )
        return out

    return zeta, zeta_prime


def _chi_library(model, grid, psi):
    x = grid
    F = model.diffusion(x)
    G = model.drift(x)
    lib = {
        "one": (np.ones_like(x), 1.0, 1.0, np.zeros_like(x)),
        "x(1-x)": (x * (1.0 - x), 0.0, 0.0, -2.0 * F + (1.0 - 2.0 * x) * G),
        "x^2(1-x)": (
            x**2 * (1.0 - x),
            0.0,
            0.0,
            F * (2.0 - 6.0 * x) + G * (2.0 * x - 3.0 * x**2),
        ),
    }
    if psi is not None:
        # F chi'' + G chi' vanishes identically for the fixation profile.
        lib["fixation"] = (psi, 0.0, 1.0, np.zeros_like(x))
    return lib


def _trapezoid_weights(x):
    """Weights w with w @ f == np.trapezoid(f, x) for samples f on x."""
    dx = np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def verify_weak_form(model, solutions, psi=None, chis=None):
    """Residual of the boundary-coupled weak formulation for tensor-product
    test functions (time bump times spatial function).

    solutions: SolutionMeasure sequence on a dense increasing time grid with
    positive times; the bump window spans that grid, so its derivatives
    vanish at the ends and the initial term drops.  The spatial library is
    {1, psi, x(1-x), x^2(1-x)}, psi the fixation profile on the solutions'
    grid (left out when None); the first two reduce the identity to the
    conservation laws, the last two exercise the interior operator.
    Returns a dict of absolute residuals.
    """
    if len(solutions) < 8:
        raise ValueError("need a reasonably dense time grid (8+ solutions)")
    times = np.array([s.t for s in solutions])
    if np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ValueError("solution times must be positive and increasing")
    grid = solutions[0].grid
    lib = _chi_library(model, grid, psi)
    if chis is None:
        chis = list(lib)
    zeta, zeta_prime = _bump_window(times[0], times[-1])
    wt = _trapezoid_weights(times)
    wzt = wt * zeta(times)
    wzpt = wt * zeta_prime(times)
    wx = _trapezoid_weights(grid)
    density = np.stack([s.density for s in solutions])
    a = np.array([s.a for s in solutions])
    b = np.array([s.b for s in solutions])
    out = {}
    for name in chis:
        if name not in lib:
            raise ValueError(f"unknown test function {name!r} (have {sorted(lib)})")
        chi, chi0, chi1, rhs = lib[name]
        paired = a * chi0 + b * chi1 + density @ (wx * chi)
        interior = density @ (wx * rhs)
        out[name] = abs(float(wzpt @ paired + wzt @ interior))
    return out
