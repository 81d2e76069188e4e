"""Measure-valued solutions of the forward equation.

A solution is the triple (interior density, mass at 0, mass at 1); the
boundary masses grow as the degenerate diffusion pushes probability into the
endpoints.  The interior density evolves by the eigenmode series; the
boundary masses are obtained two independent ways (term-wise time integration
of the boundary flux, and the conservation-law route through the fixation
probability), which cross-validate each other.
"""

import re
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quadrature import adaptive_gl

_BUMP_NORM = None  # integral of exp(-1/(1-u^2)) over (-1, 1); filled lazily
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
    global _BUMP_NORM
    if _BUMP_NORM is None:
        _BUMP_NORM = adaptive_gl(_bump_shape, -1.0, 1.0, 1e-13)
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
    the backward-form mode u_j, taken by the basis's Gauss rule; u_j is a
    polynomial vanishing at the endpoints, so interior point masses
    contribute its exact point values.
    """
    vals = np.zeros(basis.n_modes)
    if init._density_fn is not None:
        q0 = init.density_samples(basis.quad_nodes)
        vals += (basis.quad_weights * q0) @ basis.quad_modes
    if init.atoms:
        xs, ms = np.array(init.atoms).T
        vals += ms @ basis.mode_values(xs)
    return SpectralCoefficients(values=vals, limits=limit_masses(model, profile, init))


def evaluate_q(basis, coeffs, t, init=None):
    """Interior density at time t on the closed grid, with a truncation
    estimate.

    At t = 0 the series need not converge pointwise for measure data, so the
    raw initial density is returned instead (init required).  For t > 0 the
    estimate is the last retained term's bound; a warning fires when it
    exceeds 1e-6 of the initial mass.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if basis.density_modes is None:
        raise ValueError("transform_eigenfunctions must run first")
    if t == 0.0:
        if init is None:
            raise ValueError(
                "t=0 evaluation needs the initial data; the truncated series "
                "does not converge pointwise for measure-valued data"
            )
        return init.density_samples(basis.closed_grid), 0.0
    decay = np.exp(-basis.eigenvalues * t)
    q = basis.density_modes @ (coeffs.values * decay)
    trunc = float(
        np.abs(coeffs.values[-1]) * decay[-1] * np.max(np.abs(basis.density_modes[:, -1]))
    )
    if init is not None and trunc > 1e-6 * init.total_mass():
        warnings.warn(
            f"series truncation estimate {trunc:.2e} at t={t} exceeds 1e-6 of the "
            "initial mass; add modes or evaluate later",
            stacklevel=2,
        )
    return q, trunc


def boundary_masses(model, basis, coeffs, init, t):
    """Absorbed masses at time t by term-wise time integration of the
    boundary flux series, anchored at the exact limits:
    a(t) = a_inf - sum_j c_j Psi(0) q_j(0) exp(-lambda_j t) / lambda_j, and b
    likewise at x = 1.  The remaining tail decays in time, so truncation
    cannot offset the limits even for point-mass data.  t may be inf; t = 0
    returns the initial endpoint masses."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if basis.density_modes is None:
        raise ValueError("transform_eigenfunctions must run first")
    if t == 0.0:
        return init.a0, init.b0
    a_inf, b_inf = coeffs.limits
    tail = coeffs.values * np.exp(-basis.eigenvalues * t) / basis.eigenvalues
    a = a_inf - float(model.psi_at(0.0) * np.dot(basis.density_modes[0, :], tail))
    b = b_inf - float(model.psi_at(1.0) * np.dot(basis.density_modes[-1, :], tail))
    return a, b


def solution_at(model, basis, coeffs, init, t):
    """SolutionMeasure at time t (density plus both boundary masses)."""
    q, trunc = evaluate_q(basis, coeffs, t, init)
    a, b = boundary_masses(model, basis, coeffs, init, t)
    return SolutionMeasure(
        t=float(t), grid=basis.closed_grid, density=q, a=a, b=b, trunc_error=trunc
    )


def limit_masses(model, profile, init):
    """Final absorbed masses: the fixation-probability moment of the initial
    measure gives the mass at 1, the moment of 1 - psi the mass at 0."""
    a_inf, b_inf = init.a0, init.b0
    if init._density_fn is not None:
        if isinstance(init.density, tuple):
            xs = np.asarray(init.density[0], float)
        else:
            xs = profile.grid
        psi = profile(xs)
        q0 = init.density_samples(xs)
        a_inf += float(np.trapezoid((1.0 - psi) * q0, xs))
        b_inf += float(np.trapezoid(psi * q0, xs))
    for x, m in init.atoms:
        psi = float(profile(x))
        a_inf += m * (1.0 - psi)
        b_inf += m * psi
    return a_inf, b_inf


def mass_cross_check(model, basis, coeffs, profile, init, t):
    """Boundary masses via the conservation laws, plus the discrepancy
    against the series route.

    The conserved fixation moment pins b(t) = b_inf - integral psi q(t);
    symmetrically for a.  Returns (a, b, max discrepancy vs the flux-series
    route); a large discrepancy signals basis or quadrature inconsistency
    (or unresolved measure-valued data)."""
    if t <= 0.0:
        raise ValueError("the cross-check needs t > 0")
    a_inf, b_inf = limit_masses(model, profile, init)
    q, _ = evaluate_q(basis, coeffs, t)
    grid = basis.closed_grid
    psi_vals = profile(grid)
    a2 = a_inf - float(np.trapezoid((1.0 - psi_vals) * q, grid))
    b2 = b_inf - float(np.trapezoid(psi_vals * q, grid))
    a1, b1 = boundary_masses(model, basis, coeffs, init, t)
    return a2, b2, max(abs(a1 - a2), abs(b1 - b2))


def conservation_residuals(model, profile, init, solutions):
    """Defects of the two conservation laws along a solution sequence.

    Returns drifts of total mass (against the initial mass) and of the
    fixation moment (against its limit value), plus the max-minus-min spans
    across the evaluated times.  The spans measure the constancy the laws
    assert; the drifts also compare against the exact initial values.
    """
    if len(solutions) < 2:
        raise ValueError("need solutions at two or more times")
    mass = np.array(
        [s.a + s.b + np.trapezoid(s.density, s.grid) for s in solutions]
    )
    psi_mass = np.array(
        [s.b + np.trapezoid(profile(s.grid) * s.density, s.grid) for s in solutions]
    )
    total = init.total_mass()
    _, b_inf = limit_masses(model, profile, init)
    return ConservationReport(
        mass_drift=float(np.max(np.abs(mass - total))),
        psi_mass_drift=float(np.max(np.abs(psi_mass - b_inf))),
        mass_span=float(np.max(mass) - np.min(mass)),
        psi_mass_span=float(np.max(psi_mass) - np.min(psi_mass)),
        mass_values=mass,
        psi_mass_values=psi_mass,
    )


def ds_norm(coeffs, basis, s):
    """Coefficient-space smoothness norm: sqrt(sum w_j^2 lambda_j^s)."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return float(np.sqrt(np.sum(coeffs.values**2 * basis.eigenvalues**s)))


def decay_diagnostics(basis, coeffs, times):
    """Large-time decay of the interior mass.

    Returns the limit constant (leading mode mass times leading coefficient),
    the sequence exp(lambda_0 t) ||q(t)||_1, and the fitted slope of
    log ||q||_1 against t, which should approach -lambda_0.
    """
    times = np.asarray(times, float)
    if np.any(times <= 0.0):
        raise ValueError("decay diagnostics need strictly positive times")
    lam0 = basis.eigenvalues[0]
    if abs(coeffs.values[0]) < 1e-12 * max(np.linalg.norm(coeffs.values), 1e-300):
        warnings.warn(
            "leading coefficient vanishes; the limit constant is 0 and decay "
            "is governed by the next eigenvalue",
            stacklevel=2,
        )
    l1 = np.empty_like(times)
    for i, t in enumerate(times):
        q, _ = evaluate_q(basis, coeffs, t)
        l1[i] = np.trapezoid(np.abs(q), basis.closed_grid)
    c_inf = float(basis.mode_masses[0] * coeffs.values[0])
    # the slope fit needs at least two times; a single sample still yields
    # the rescaled norm sequence
    slope = (
        float(np.polyfit(times, np.log(l1), 1)[0]) if len(times) >= 2 else float("nan")
    )
    return DecayDiagnostics(c_inf=c_inf, scaled_l1=np.exp(lam0 * times) * l1, slope=slope)


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


def _chi_library(model, grid, profile):
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
    if profile is not None:
        # F chi'' + G chi' vanishes identically for the fixation profile.
        lib["fixation"] = (profile(x), 0.0, 1.0, np.zeros_like(x))
    return lib


def verify_weak_form(model, solutions, profile=None, chis=None):
    """Residual of the boundary-coupled weak formulation for tensor-product
    test functions (time bump times spatial function).

    solutions: SolutionMeasure sequence on a dense increasing time grid with
    positive times; the bump window spans that grid, so its derivatives
    vanish at the ends and the initial term drops.  The spatial library is
    {1, fixation profile, x(1-x), x^2(1-x)}; the first two reduce the
    identity to the conservation laws, the last two exercise the interior
    operator.  Returns a dict of absolute residuals.
    """
    if len(solutions) < 8:
        raise ValueError("need a reasonably dense time grid (8+ solutions)")
    times = np.array([s.t for s in solutions])
    if np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ValueError("solution times must be positive and increasing")
    grid = solutions[0].grid
    lib = _chi_library(model, grid, profile)
    if chis is None:
        chis = list(lib)
    zeta, zeta_prime = _bump_window(times[0], times[-1])
    zt = zeta(times)
    zpt = zeta_prime(times)
    out = {}
    for name in chis:
        if name not in lib:
            raise ValueError(f"unknown test function {name!r} (have {sorted(lib)})")
        chi, chi0, chi1, rhs = lib[name]
        paired = np.array(
            [
                s.a * chi0 + s.b * chi1 + np.trapezoid(chi * s.density, grid)
                for s in solutions
            ]
        )
        interior = np.array(
            [np.trapezoid(rhs * s.density, grid) for s in solutions]
        )
        residual = np.trapezoid(zpt * paired, times) + np.trapezoid(zt * interior, times)
        out[name] = abs(float(residual))
    return out
