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
sols = kd.solutions_at(model, basis, coeffs, init, times)

print("\n  t      a(t)      b(t)     ||q||_1    mass     radon/2||q||")
for sol in sols:
    l1 = sol.density_l1()
    mass = sol.a + sol.b + np.trapezoid(sol.density, sol.grid)
    rho = kd.radon_distance_to_limit(sol, limits)
    print(f"{sol.t:5.1f}  {sol.a:.6f}  {sol.b:.6f}  {l1:.6f}  {mass:.8f}  "
          f"{rho / (2 * l1):.8f}")

psi = profile(basis.closed_grid)  # the fixation probability on the solution grid
report = kd.conservation_residuals(init, sols, limits, psi)
print(f"\nmass drift {report.mass_drift:.2e}, fixation-moment drift "
      f"{report.psi_mass_drift:.2e}")

route_gap = max(kd.mass_cross_check(sol, limits, psi)[2] for sol in sols)
print(f"series route vs conservation route: max gap {route_gap:.2e}")

decay_sols = kd.solutions_at(model, basis, coeffs, init, np.linspace(0.5, 1.5, 11))
diag = kd.decay_diagnostics(basis, coeffs, decay_sols)
print(f"decay slope of log||q||_1: {diag.slope:.6f} (spectral gap: "
      f"-{basis.eigenvalues[0]:.6f})")
print(f"limit constant: exp(2t)||q||_1 -> {diag.c_inf:.6f}")

# interior point mass: its coefficients do not decay, but the boundary masses
# are anchored at the exact limits, so the total mass stays at its initial
# value at every positive time
atom = kd.InitialMeasure(atoms=[(0.25, 1.0)])
atom_coeffs = kd.project_initial(model, basis, atom, profile)
atom_sols = kd.solutions_at(model, basis, atom_coeffs, atom, times)
atom_report = kd.conservation_residuals(atom, atom_sols, atom_coeffs.limits, psi)
print(f"\npoint mass at 0.25: mass drift {atom_report.mass_drift:.2e} against the "
      f"initial mass 1, constancy span {atom_report.mass_span:.2e}")
a_inf, b_inf = kd.limit_masses(model, profile, atom)
print(f"its limits from the fixation profile: ({a_inf:.4f}, {b_inf:.4f})")
