"""Evolution of the full measure: density plus growing endpoint masses.

Starting from a uniform density on the neutral model, the interior mass
drains into the endpoints at rate exp(-2t) while total mass and the
fixation moment stay constant.  Both boundary-mass routes (term-wise flux
series and the conservation laws) agree, and the distance to the limit
measure is exactly twice the interior L1 norm.
"""

import numpy as np

import kimdiff as kd

model = kd.make_kimura(0.0, 0.0)
profile = kd.fixation_profile(model, 2049)
basis = kd.build_basis(model, 32, 2048)
init = kd.InitialMeasure(density="uniform")
coeffs = kd.project_initial(model, basis, init, profile)
limits = kd.limit_masses(model, profile, init)
print(f"final masses: extinction {limits[0]:.3f}, fixation {limits[1]:.3f}")

times = [0.1, 0.5, 1.0, 2.0, 3.0]
sols = [kd.solution_at(model, basis, coeffs, init, t) for t in times]

print("\n  t      a(t)      b(t)     ||q||_1    mass     radon/2||q||")
for sol in sols:
    l1 = sol.density_l1()
    mass = sol.a + sol.b + np.trapezoid(sol.density, sol.grid)
    rho = kd.radon_distance_to_limit(sol, limits)
    print(f"{sol.t:5.1f}  {sol.a:.6f}  {sol.b:.6f}  {l1:.6f}  {mass:.8f}  "
          f"{rho / (2 * l1):.8f}")

report = kd.conservation_residuals(model, profile, init, sols)
print(f"\nmass drift {report.mass_drift:.2e}, fixation-moment drift "
      f"{report.psi_mass_drift:.2e}")

route_gap = max(
    kd.mass_cross_check(model, basis, coeffs, profile, init, t)[2] for t in times
)
print(f"series route vs conservation route: max gap {route_gap:.2e}")

diag = kd.decay_diagnostics(basis, coeffs, np.linspace(0.5, 1.5, 11))
print(f"decay slope of log||q||_1: {diag.slope:.6f} (spectral gap: "
      f"-{basis.eigenvalues[0]:.6f})")
print(f"limit constant: exp(2t)||q||_1 -> {diag.c_inf:.6f}")

# interior point mass: its coefficients do not decay, but the boundary masses
# are anchored at the exact limits, so the total mass stays at its initial
# value at every positive time
atom = kd.InitialMeasure(atoms=[(0.25, 1.0)])
atom_coeffs = kd.project_initial(model, basis, atom, profile)
atom_sols = [kd.solution_at(model, basis, atom_coeffs, atom, t) for t in times]
atom_report = kd.conservation_residuals(model, profile, atom, atom_sols)
print(f"\npoint mass at 0.25: mass drift {atom_report.mass_drift:.2e} against the "
      f"initial mass 1, constancy span {atom_report.mass_span:.2e}")
a_inf, b_inf = kd.limit_masses(model, profile, atom)
print(f"its limits from the fixation profile: ({a_inf:.4f}, {b_inf:.4f})")
