"""Measure-valued solutions of the forward equation.

A solution is the triple (interior density, mass at 0, mass at 1); the
boundary masses grow as the degenerate diffusion pushes probability into the
endpoints.  The interior density evolves by the eigenmode series; the
boundary masses are obtained two independent ways (term-wise time integration
of the boundary flux, and the conservation-law route through the fixation
probability), which cross-validate each other.

There is one evaluation path: solutions_at evaluates the series for a whole
array of times at once and returns one Solutions record, a density row and a
mass pair per time.  Every diagnostic (conservation and the route gap, decay,
distance to the limit, weak form) reads that record's arrays.
"""

import re
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quadrature import gauss01

_BUMP_NORM = 0.4439938161680794  # integral of exp(-1/(1-u^2)) over (-1, 1)
# fraction of the initial mass the truncation and roundoff estimates may reach
_SERIES_TOL = 1e-6
_PRESET_RE = re.compile(r"^bump\(\s*([^,)]+)\s*,\s*([^,)]+)\s*\)$")
_VALIDATION_GRID = np.linspace(0.0, 1.0, 4097)

ConservationReport = namedtuple(
    "ConservationReport",
    ["mass_drift", "psi_mass_drift", "mass_span", "psi_mass_span",
     "mass_values", "psi_mass_values", "route_gap"],
)
DecayDiagnostics = namedtuple("DecayDiagnostics", ["c_inf", "scaled_l1", "slope"])


def _bump_shape(u):
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def bump_density(center, width):
    """Smooth compactly supported density of unit mass.

    Support is (center - width, center + width) and must stay inside (0, 1).
    """
    if not (width > 0.0 and 0.0 < center - width and center + width < 1.0):
        raise ValueError("bump needs a positive width and support inside (0, 1)")
    scale = 1.0 / (width * _BUMP_NORM)

    def density(x):
        return scale * _bump_shape((np.asarray(x, float) - center) / width)

    return density


def density_from_spec(spec):
    """Turn a density spec (None, callable, preset string, or (x, values)
    sample pair) into a callable, or None, and the breakpoints of its smooth
    panels: (0, 1), the support of "bump(c,w)", or the samples' x; nonnegative
    samples are read linearly between them and as zero outside."""
    if spec is None or callable(spec):
        return spec, np.array([0.0, 1.0])
    if isinstance(spec, str):
        if spec == "uniform":
            return (lambda x: np.ones_like(np.asarray(x, float))), np.array([0.0, 1.0])
        m = _PRESET_RE.match(spec.replace(" ", ""))
        if m:
            c, w = map(float, m.groups())
            return bump_density(c, w), np.array([c - w, c + w])
        raise ValueError(f"unknown density preset {spec!r}")
    xs, vs = spec
    xs = np.asarray(xs, float)
    vs = np.asarray(vs, float)
    if xs.shape != vs.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("sampled density needs matching 1-d x and value arrays")
    if np.any(np.diff(xs) <= 0.0) or xs[0] < 0.0 or xs[-1] > 1.0:
        raise ValueError("sample locations must increase within [0, 1]")
    if np.any(vs < 0.0):
        raise ValueError("sampled density values must be nonnegative")
    return (lambda x: np.interp(np.asarray(x, float), xs, vs, left=0.0, right=0.0)), xs


@dataclass
class InitialMeasure:
    """Initial data: endpoint masses, interior density, interior point masses.

    density may be None, a callable, a preset name ("uniform" or
    "bump(center,width)"), or a pair of sample arrays (x, values).
    atoms is a sequence of (location, mass) pairs with locations strictly
    inside (0, 1).  Every moment of the measure goes through integrate.
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
        self._density_fn, self._breaks = density_from_spec(self.density)
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

    def integrate(self, f, rule=gauss01(64)):
        """Integral over the interior of the measure of f, which maps points to
        an array whose first axis runs over them: sum m f(x) over the atoms
        plus the density's integral by the Gauss rule (nodes, weights) on
        [0, 1], gauss01(64) by default, mapped onto a single smooth panel.  A
        sampled density is linear on each of its panels and takes there the
        gauss01 rule with two more nodes than the rule places in it, at most
        len(rule) + 2 per panel in all."""
        x, w = np.reshape(self.atoms, (-1, 2)).T
        if self._density_fn is not None:
            lo, width = self._breaks[:-1, None], np.diff(self._breaks)[:, None]
            sizes = np.diff(np.searchsorted(rule[0], self._breaks)) + 2
            groups = ([(rule, slice(None))] if len(width) == 1
                      else [(gauss01(n), sizes == n) for n in np.unique(sizes)])
            xd = np.concatenate([(lo[p] + width[p] * t).ravel() for (t, _), p in groups])
            wd = np.concatenate([(width[p] * tw).ravel() for (_, tw), p in groups])
            x, w = np.concatenate((x, xd)), np.concatenate((w, wd * self._density_fn(xd)))
        return w @ f(x)

    def total_mass(self):
        return self.a0 + self.b0 + float(self.integrate(np.ones_like))


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
class Solutions:
    """The solution triple along a sequence of times: density samples on the
    closed grid, one row per time, and the absorbed masses a (at 0,
    extinction) and b (at 1, fixation), one per time.

    Indexing with a boolean mask keeps those times; an int index gives the
    record of one time, with scalar t, a, b and a single density row, and
    iterating yields these one-time records in order.
    """

    t: np.ndarray
    grid: np.ndarray
    density: np.ndarray
    a: np.ndarray
    b: np.ndarray
    trunc_error: np.ndarray

    def __len__(self):
        return len(self.t)

    def __getitem__(self, index):
        return Solutions(self.t[index], self.grid, self.density[index], self.a[index],
                         self.b[index], self.trunc_error[index])

    def density_l1(self):
        return np.trapezoid(np.abs(self.density), self.grid, axis=-1)


def project_initial(model, basis, init, profile):
    """Coefficients of the initial measure in the eigenbasis, with its limit
    masses from the fixation profile.

    The weighted pairing reduces to a plain integral of the backward-form
    modes u_j = e^(-Xi/2) phi_j against the measure, which
    InitialMeasure.integrate takes with the basis's Gauss rule; phi_j is a
    polynomial vanishing at the endpoints, so interior point masses
    contribute exact point values and endpoint masses none.
    """
    vals = init.integrate(
        lambda x: np.exp(-0.5 * model.xi_integral(x))[:, None] * basis.mode_values(x),
        rule=(basis.quad_nodes, basis.quad_weights))
    return SpectralCoefficients(values=vals, limits=limit_masses(profile, init))


def solutions_at(model, basis, coeffs, init, times):
    """The Solutions record at the given times: one density row, one pair of
    boundary masses and one truncation estimate per time, evaluated together.

    The decayed coefficients c_j exp(-lambda_j t) form one (times x modes)
    matrix; its product with the density modes gives every density.  The
    boundary masses come from the same matrix, by term-wise time integration
    of the boundary flux series anchored at the exact limits:
    a(t) = a_inf - sum_j c_j Psi(0) q_j(0) exp(-lambda_j t) / lambda_j, and b
    likewise at x = 1, so truncation cannot offset the limits even for
    point-mass data.  t may be inf; t = 0 yields the raw initial data, since
    the truncated series need not converge pointwise for measure data.

    Each time carries a truncation estimate, the last retained term's
    bound; one warning names the earliest time at which it exceeds 1e-6 of
    the initial mass.  The modes grow like e^(Xi range / 2), and the sum of
    |c_j exp(-lambda_j t)| max|q_j| times the unit roundoff estimates what
    rounding costs; where that exceeds 1e-6 of the initial mass at a
    positive time, ValueError names the earliest such time, the first safe
    one and the range of Xi.
    """
    times = np.array(times, float, ndmin=1)
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
        xi = model.xi_integral(basis.closed_grid[1:])  # Xi(0) = 0 by definition
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
    return Solutions(times, basis.closed_grid, q, a, b, trunc)


def limit_masses(profile, init):
    """Final absorbed masses (a_inf, b_inf): the endpoint masses plus the
    moments of 1 - psi and psi over the interior of the initial measure, by
    one InitialMeasure.integrate with its default rule, so a_inf + b_inf is
    the total mass by construction; the profile's grid plays no part."""
    # the columns 1 - psi and psi, from one evaluation of psi
    a_inf, b_inf = init.integrate(lambda x: np.outer(profile(x), [-1.0, 1.0]) + [1.0, 0.0])
    return init.a0 + float(a_inf), init.b0 + float(b_inf)


def conservation_residuals(init, solutions, limits, psi):
    """Defects of the two conservation laws along a Solutions record.

    psi is the fixation probability on the solutions' grid, limits are
    (a_inf, b_inf).  mass_values and psi_mass_values hold total mass and
    fixation moment at every time; a t = 0 row, whose density has no atom
    slot, takes both from the initial measure (its total mass and b_inf).
    The drifts are against those two values, the spans are max minus min.
    route_gap is the largest gap over the positive times between the series
    masses and the conservation route a2 = a_inf - integral (1 - psi) q,
    b2 = b_inf - integral psi q: max |mass - psi_mass - a_inf| and
    |psi_mass - b_inf| (0 without positive times).
    """
    if len(solutions) < 2:
        raise ValueError("need solutions at two or more times")
    a_inf, b_inf = limits
    mass0 = init.total_mass()
    w = _trapezoid_weights(solutions.grid)
    mass = solutions.a + solutions.b + solutions.density @ w
    psi_mass = solutions.b + solutions.density @ (w * psi)
    start = solutions.t == 0.0
    mass[start] = mass0
    psi_mass[start] = b_inf
    route = np.maximum(np.abs(mass - psi_mass - a_inf), np.abs(psi_mass - b_inf))
    return ConservationReport(
        mass_drift=float(np.max(np.abs(mass - mass0))),
        psi_mass_drift=float(np.max(np.abs(psi_mass - b_inf))),
        mass_span=float(np.max(mass) - np.min(mass)),
        psi_mass_span=float(np.max(psi_mass) - np.min(psi_mass)),
        mass_values=mass,
        psi_mass_values=psi_mass,
        route_gap=float(np.max(route[~start], initial=0.0)),
    )


def ds_norm(coeffs, basis, s):
    """Coefficient-space smoothness norm: sqrt(sum w_j^2 lambda_j^s)."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return float(np.sqrt(np.sum(coeffs.values**2 * basis.eigenvalues**s)))


def decay_diagnostics(basis, coeffs, solutions):
    """Large-time decay of the interior mass along a Solutions record.

    Returns the limit constant (leading mode mass times leading coefficient),
    the sequence exp(lambda_0 t) ||q(t)||_1 (0 where the norm underflowed),
    and the fitted slope of log ||q||_1 against t over the times with a
    nonzero norm, which should approach -lambda_0; None when fewer than two
    such times remain.
    """
    times = solutions.t
    if np.any(times <= 0.0):
        raise ValueError("decay diagnostics need strictly positive times")
    lam0 = basis.eigenvalues[0]
    if abs(coeffs.values[0]) < 1e-12 * max(np.linalg.norm(coeffs.values), 1e-300):
        warnings.warn(
            "leading coefficient vanishes; the limit constant is 0 and decay "
            "is governed by the next eigenvalue",
            stacklevel=2,
        )
    l1 = solutions.density_l1()
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


def radon_distance_to_limit(solutions, limits):
    """Total-variation distance from the limit measure, one value per time.

    For nonnegative data the mass gaps and the interior L1 norm add up, and
    the value equals exactly twice the interior L1 norm.  One warning names
    the earliest time at which a boundary mass overshoots its limit."""
    a_inf, b_inf = limits
    gap_a = a_inf - solutions.a
    gap_b = b_inf - solutions.b
    scale = max(abs(a_inf) + abs(b_inf), 1e-300)
    t, low_a, low_b = np.atleast_1d(solutions.t, gap_a, gap_b)
    negative = np.flatnonzero(np.minimum(low_a, low_b) < -1e-9 * scale)
    if negative.size:
        i = negative[np.argmin(t[negative])]
        warnings.warn(
            f"negative mass gap at t={t[i]} (a: {low_a[i]:.2e}, b: {low_b[i]:.2e}); "
            "boundary masses should increase toward their limits",
            stacklevel=2,
        )
    return gap_a + gap_b + solutions.density_l1()


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
    return {
        "one": (np.ones_like(x), 1.0, 1.0, np.zeros_like(x)),
        "x(1-x)": (x * (1.0 - x), 0.0, 0.0, -2.0 * F + (1.0 - 2.0 * x) * G),
        "x^2(1-x)": (
            x**2 * (1.0 - x),
            0.0,
            0.0,
            F * (2.0 - 6.0 * x) + G * (2.0 * x - 3.0 * x**2),
        ),
        # F chi'' + G chi' vanishes identically for the fixation profile
        "fixation": (psi, 0.0, 1.0, np.zeros_like(x)),
    }


def _trapezoid_weights(x):
    """Weights w with w @ f == np.trapezoid(f, x) for samples f on x."""
    dx = np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def verify_weak_form(model, solutions, psi):
    """Residual of the boundary-coupled weak formulation for tensor-product
    test functions (time bump times spatial function).

    solutions: a Solutions record on a dense increasing grid of positive
    times; the bump window spans that grid, so its derivatives vanish at the
    ends and the initial term drops.  The spatial library is
    {1, psi, x(1-x), x^2(1-x)}, psi the fixation profile on the solutions'
    grid; the first two reduce the identity to the conservation laws, the
    last two exercise the interior operator.  Returns a dict of absolute
    residuals.
    """
    times = solutions.t
    if len(times) < 8:
        raise ValueError("need a reasonably dense time grid (8+ solutions)")
    if np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ValueError("solution times must be positive and increasing")
    zeta, zeta_prime = _bump_window(times[0], times[-1])
    wt = _trapezoid_weights(times)
    wzt = wt * zeta(times)
    wzpt = wt * zeta_prime(times)
    wx = _trapezoid_weights(solutions.grid)
    out = {}
    for name, (chi, chi0, chi1, rhs) in _chi_library(model, solutions.grid, psi).items():
        paired = solutions.a * chi0 + solutions.b * chi1 + solutions.density @ (wx * chi)
        interior = solutions.density @ (wx * rhs)
        out[name] = abs(float(wzpt @ paired + wzt @ interior))
    return out
