"""Measure-valued solutions of the forward equation.

A solution is the triple (interior density, mass at 0, mass at 1); the
boundary masses grow as the degenerate diffusion pushes probability into the
endpoints.  The interior density evolves by the eigenmode series; the
boundary masses are obtained two independent ways (term-wise time integration
of the boundary flux, and the conservation-law route through the fixation
probability), which cross-validate each other.

Each record carries what it was made from: a SpectralBasis its model,
SpectralCoefficients their basis, initial measure, fixation profile and
limits, and a Solutions record its coefficients.  solutions_at evaluates the
series at an array of times and the caller's points, and every diagnostic
over time (conservation and the route gap, decay, distance to the limit)
takes that one record.  The paper's weak form holds at every t > 0 exactly
when each mode satisfies its identity, which build_basis tabulates as
SpectralBasis.identity_residuals; initial_residual checks its t = 0 term.
"""

import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legvander

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

    def sampled(x):
        # (1 - theta) v0 + theta v1 on each panel: a slope (v1 - v0) / (x1 - x0),
        # as np.interp forms it, can pass the double range between finite samples
        x = np.asarray(x, float)
        inner = np.clip(x, xs[0], xs[-1])  # so 0 <= theta <= 1
        k = np.minimum(np.searchsorted(xs, inner, side="right") - 1, len(xs) - 2)
        theta = (inner - xs[k]) / (xs[k + 1] - xs[k])
        return np.where(x == inner, (1.0 - theta) * vs[k] + theta * vs[k + 1], 0.0)

    return sampled, xs


@dataclass
class InitialMeasure:
    """Initial data: endpoint masses, interior density, interior point masses.

    density may be None, a callable, a preset name ("uniform" or
    "bump(center,width)"), or a pair of sample arrays (x, values).
    atoms is a sequence of (location, mass) pairs with locations strictly
    inside (0, 1).  Every moment of the measure goes through integrate, and
    its masses are taken once, at construction.  A callable density is
    probed for negative values on 4097 points; presets are nonnegative by
    construction and samples are checked directly.
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
        self._density_fn, breaks = density_from_spec(self.density)
        self._breaks = np.array(breaks)  # a copy: freezing it leaves the caller's samples writable
        self._breaks.flags.writeable = False
        if callable(self.density) and np.min(self.density(_VALIDATION_GRID)) < 0.0:
            raise ValueError("initial density must be nonnegative")
        self._interior = float(self.integrate(np.ones_like))
        self._mass = self.a0 + self.b0 + self._interior
        # the series and trapezoid sums need headroom below the double range
        if not self._mass <= 2.0**1020:
            raise ValueError(f"total initial mass must be positive and at most "
                             f"{2.0**1020:.3g}, got {self._mass:.3g}")
        # and the gates need it far above the subnormal range: at 2^-1000 their
        # least threshold, 1e-8 of the mass (about 2^-1027), still keeps 47 bits
        if not self._mass >= 2.0**-1000:
            raise ValueError(f"total initial mass must be at least {2.0**-1000:.3g}, "
                             f"got {self._mass:.3g}")

    @property
    def breaks(self):
        """The ends of the density's smooth panels, as density_from_spec gives them; read-only."""
        return self._breaks

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
        gauss01 rule with four more nodes than the rule places in it, at most
        len(rule) + 4 per panel in all."""
        x, w = np.reshape(self.atoms, (-1, 2)).T
        if self._density_fn is not None:
            lo, width = self._breaks[:-1, None], np.diff(self._breaks)[:, None]
            sizes = np.diff(np.searchsorted(rule[0], self._breaks)) + 4
            groups = ([(rule, slice(None))] if len(width) == 1
                      else [(gauss01(n), sizes == n) for n in np.unique(sizes)])
            xd = np.concatenate([(lo[p] + width[p] * t).ravel() for (t, _), p in groups])
            wd = np.concatenate([(width[p] * tw).ravel() for (_, tw), p in groups])
            x, w = np.concatenate((x, xd)), np.concatenate((w, wd * self._density_fn(xd)))
        return w @ f(x)

    def total_mass(self):
        return self._mass

    def interior_mass(self):
        return self._interior


@dataclass
class SpectralCoefficients:
    """Coefficients of an initial measure in a basis's eigenmodes, with that basis,
    measure and fixation profile and the limits (a_inf, b_inf) they fix (limit_masses)."""

    values: np.ndarray
    basis: object
    measure: InitialMeasure
    profile: object
    limits: tuple = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectral coefficients must be finite")
        self.limits = limit_masses(self.profile, self.measure)


@dataclass
class Solutions:
    """The solution triple along a sequence of times: density samples on the
    caller's grid, one row per time, the absorbed masses a (at 0, extinction)
    and b (at 1, fixation), one per time, and the coefficients evaluated.

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
    coeffs: SpectralCoefficients

    def __len__(self):
        return len(self.t)

    def __getitem__(self, index):
        return Solutions(self.t[index], self.grid, self.density[index], self.a[index],
                         self.b[index], self.trunc_error[index], self.coeffs)

    def density_l1(self):
        return np.trapezoid(np.abs(self.density), self.grid, axis=-1)


def project_initial(basis, init, profile):
    """Coefficients of the initial measure in the basis's eigenmodes, carrying
    the basis, the measure and the fixation profile.  The weighted pairing is a
    plain integral of the backward-form modes e^(-Xi/2) phi_j against the
    measure (SpectralBasis.pairings): phi_j is a polynomial vanishing at the
    ends, so interior point masses give exact point values and endpoint masses none."""
    return SpectralCoefficients(basis.pairings(init), basis, init, profile)


def solutions_at(coeffs, times, x):
    """The Solutions record of coeffs at the given times and points x in [0, 1]: one
    density row, boundary-mass pair and truncation estimate per time, evaluated together.

    The decayed coefficients c_j exp(-lambda_j t) form one (times x modes)
    matrix; one SpectralBasis.density_values call gives every density at x.
    The boundary masses come from the same matrix and the exact endpoint
    values, by term-wise time integration of the flux series anchored at the
    limits: a(t) = a_inf - sum_j c_j Psi(0) q_j(0) exp(-lambda_j t) / lambda_j, and b
    likewise at x = 1, so truncation cannot offset the limits even for
    point-mass data.  t may be inf; t = 0 yields the raw initial data, since
    the truncated series need not converge pointwise for measure data.

    Each time carries a truncation estimate, the larger bound
    |c_j exp(-lambda_j t)| basis.mode_sup_j of the last two retained terms, so that
    a parity of the data cannot hide the tail.  The modes grow like
    e^(Xi range / 2), and the sum of those bounds over all modes times the
    unit roundoff estimates what rounding costs.  Where either estimate
    exceeds 1e-6 of the initial mass at a positive time, ValueError names
    the earliest such time and the first safe one, and either the range of
    Xi on [0, 1] (roundoff, which more modes cannot mend) or the modes to raise.
    """
    basis, init = coeffs.basis, coeffs.measure
    times = np.array(times, float, ndmin=1)
    x = np.asarray(x, float)
    if np.any(times < 0.0):
        raise ValueError("t must be nonnegative")
    with np.errstate(over="ignore"):  # lambda_j t past the double range: the term is 0
        decayed = coeffs.values * np.exp(-np.outer(times, basis.eigenvalues))
    sup = basis.mode_sup
    roundoff = np.finfo(float).eps * (np.abs(decayed) @ sup)
    trunc = np.max(np.abs(decayed[:, -2:]) * sup[-2:], axis=1)
    bound = _SERIES_TOL * init.total_mass()
    unsafe = (times > 0.0) & (np.maximum(roundoff, trunc) > bound)
    if unsafe.any():
        first = np.flatnonzero(unsafe)[np.argmin(times[unsafe])]
        safe = times[(times > 0.0) & ~unsafe]
        later = (f"the first safe requested time is t={safe.min():g}" if safe.size
                 else "no requested time is safe")
        if roundoff[first] > bound:
            lo, hi = basis.model.xi_bounds()  # Xi(0) = 0, up to its table's roundoff
            raise ValueError(
                f"series roundoff estimate {roundoff[first]:.2e} at t={times[first]:g} "
                f"exceeds {_SERIES_TOL:g} of the initial mass: Xi ranges over "
                f"[{min(0.0, lo):.4g}, {max(0.0, hi):.4g}] on [0, 1], and "
                f"the eigenmodes grow like e^(Xi range / 2); {later}"
            )
        raise ValueError(
            f"series truncation estimate {trunc[first]:.2e} at t={times[first]:g} "
            f"exceeds {_SERIES_TOL:g} of the initial mass: raise modes "
            f"(modes={basis.n_modes}); {later}"
        )
    q = basis.density_values(decayed, x)
    tail = decayed / basis.eigenvalues
    a = coeffs.limits[0] - basis.model.psi_at(0.0) * (tail @ basis.endpoint_values[0])
    b = coeffs.limits[1] - basis.model.psi_at(1.0) * (tail @ basis.endpoint_values[1])
    start = times == 0.0
    q[start] = init.density_samples(x)
    trunc[start] = 0.0
    a[start], b[start] = init.a0, init.b0
    return Solutions(times, x, q, a, b, trunc, coeffs)


def initial_residual(coeffs):
    """Defect of the weak form at t = 0: max_k |sum_j c_j <chi_k, q_j> - int chi_k dmu0|
    for chi_k = x (1 - x) P_k(2x - 1) e^(-Xi/2), k = 0..3, relative to int chi_0 dmu0
    (0 without interior mass).  The chi_k vanish at both ends; the moments take
    InitialMeasure.integrate's default rule, not the projection's."""
    moments = coeffs.measure.integrate(lambda x: legvander(2.0 * x - 1.0, 3) * (
        x * (1.0 - x) * np.exp(-0.5 * coeffs.basis.model.xi_integral(x)))[:, None])
    defect = np.max(np.abs(coeffs.basis.initial_pairings @ coeffs.values - moments))
    return float(defect / moments[0]) if defect else 0.0


def limit_masses(profile, init):
    """Final absorbed masses (a_inf, b_inf): the endpoint masses plus the
    moments of 1 - psi and psi over the interior of the initial measure, by
    one InitialMeasure.integrate with its default rule, so a_inf + b_inf is
    the total mass by construction; the profile's grid plays no part."""
    # the columns 1 - psi and psi, from one evaluation of psi
    a_inf, b_inf = init.integrate(lambda x: np.outer(profile(x), [-1.0, 1.0]) + [1.0, 0.0])
    return init.a0 + float(a_inf), init.b0 + float(b_inf)


def conservation_residuals(solutions):
    """Defects of the two conservation laws along a Solutions record, with the
    limits (a_inf, b_inf) and fixation probability psi of its coefficients.
    mass_values and psi_mass_values hold total mass and fixation moment at
    every time; a t = 0 row, whose density has no atom slot, takes both from
    the initial measure (its total mass and b_inf).  The drifts are against
    those two values, the spans are max minus min.  route_gap is the largest
    gap over the positive times between the series masses and the
    conservation route a2 = a_inf - integral (1 - psi) q, b2 = b_inf -
    integral psi q: max |mass - psi_mass - a_inf| and |psi_mass - b_inf| (0
    without positive times).
    """
    if len(solutions) < 2:
        raise ValueError("need solutions at two or more times")
    coeffs, q, x = solutions.coeffs, solutions.density, solutions.grid
    a_inf, b_inf = coeffs.limits
    mass0 = coeffs.measure.total_mass()
    mass = solutions.a + solutions.b + np.trapezoid(q, x, axis=-1)
    psi_mass = solutions.b + np.trapezoid(q * coeffs.profile(x), x, axis=-1)
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


def ds_norm(coeffs, t=0.0):
    """D_1 norm of the solution at time t in coefficient space,
    sqrt(sum (w_j exp(-lambda_j t))^2 lambda_j): its largest term times the
    root-sum-square of the terms scaled by it, so that no square overflows."""
    lam = coeffs.basis.eigenvalues
    terms = np.abs(coeffs.values * np.exp(-lam * t)) * np.sqrt(lam)
    top = terms.max()
    return float(top * np.sqrt(np.sum((terms / top) ** 2))) if top else 0.0


def decay_diagnostics(solutions):
    """Large-time decay of the interior mass along a Solutions record: the
    limit constant (leading mode mass times leading coefficient, 0 for data
    with no leading-mode content), the sequence exp(lambda_0 t) ||q(t)||_1 (0
    where the norm underflowed), and the fitted slope of log ||q||_1 against t
    over the times with a nonzero norm, which should approach minus the first
    eigenvalue whose coefficient is nonzero; None when fewer than two such
    times remain."""
    times, coeffs = solutions.t, solutions.coeffs
    if np.any(times <= 0.0):
        raise ValueError("decay diagnostics need strictly positive times")
    lam0 = coeffs.basis.eigenvalues[0]
    l1 = solutions.density_l1()
    c_inf = float(coeffs.basis.mode_masses[0] * coeffs.values[0])
    fitted = l1 > 0.0
    log_l1 = np.log(l1[fitted])
    slope = float(np.polyfit(times[fitted], log_l1, 1)[0]) if fitted.sum() >= 2 else None
    scaled_l1 = np.zeros_like(l1)
    scaled_l1[fitted] = np.exp(lam0 * times[fitted] + log_l1)
    return DecayDiagnostics(c_inf=c_inf, scaled_l1=scaled_l1, slope=slope)


def radon_distance_to_limit(solutions):
    """Total-variation distance from the limit measure, one value per time:
    the two mass gaps plus the interior L1 norm, and on a t = 0 row, whose
    density has no atom slot, the interior atoms' mass as well.  For
    nonnegative data the gaps add up to the interior mass, so the value is
    twice it.  Whether a mass stays below its limit is scenario._gate's."""
    a_inf, b_inf = solutions.coeffs.limits
    rho = (a_inf - solutions.a) + (b_inf - solutions.b) + solutions.density_l1()
    return rho + sum(m for _, m in solutions.coeffs.measure.atoms) * (solutions.t == 0.0)


def radon_bound_constant(basis):
    """Constant in the D_1-weighted decay bound for the distance to the
    limit, computed from the resolved modes, plus a tail bound from the
    quarter-power decay of the mode masses."""
    if basis.n_modes < 2:
        raise ValueError(f"modes={basis.n_modes}: the decay bound's tail estimate needs at "
                         "least two modes; raise modes")
    lam, m = basis.eigenvalues, basis.n_modes
    c0 = float(np.sqrt(np.sum(basis.mode_masses**2 / lam)))
    cq = float(np.max(np.abs(basis.mode_masses) * lam**0.25))
    growth = lam[-1] / (m - 1) ** 2
    # cq sqrt(growth^(-3/2) (m - 1)^(-2) / 2)
    return c0, float(cq / ((m - 1) * np.sqrt(2.0 * growth**1.5)))
