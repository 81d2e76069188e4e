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
profile = kd.fixation_profile(model)
basis = kd.build_basis(model, 32)
x = np.linspace(0.0, 1.0, 2050)  # the solution grid, as at a scenario's default resolution
init = kd.InitialMeasure(density="uniform")
coeffs = kd.project_initial(basis, init, profile)  # carries basis, measure and profile
limits = coeffs.limits  # from the fixation profile, taken once by project_initial
print(f"final masses: extinction {limits[0]:.3f}, fixation {limits[1]:.3f}")

times = [0.1, 0.5, 1.0, 2.0, 3.0]
sols = kd.solutions_at(coeffs, times, x)  # one row per time
report = kd.conservation_residuals(sols)  # reads psi on the solution grid itself
l1 = sols.density_l1()
rho = kd.radon_distance_to_limit(sols)

print("\n  t      a(t)      b(t)     ||q||_1    mass     radon/2||q||")
for row in zip(sols.t, sols.a, sols.b, l1, report.mass_values, rho / (2 * l1)):
    print("{:5.1f}  {:.6f}  {:.6f}  {:.6f}  {:.8f}  {:.8f}".format(*row))

print(f"\nmass drift {report.mass_drift:.2e}, fixation-moment drift "
      f"{report.psi_mass_drift:.2e}")
# the conservation route a2 = a_inf - int (1 - psi) q, b2 = b_inf - int psi q
# leaves the series masses by mass - psi_mass - a_inf and psi_mass - b_inf
print(f"series route vs conservation route: max gap {report.route_gap:.2e}")

decay_sols = kd.solutions_at(coeffs, np.linspace(0.5, 1.5, 11), x)
diag = kd.decay_diagnostics(decay_sols)
print(f"decay slope of log||q||_1: {diag.slope:.6f} (spectral gap: "
      f"-{basis.eigenvalues[0]:.6f})")
print(f"limit constant: exp(2t)||q||_1 -> {diag.c_inf:.6f}")

# interior point mass: its coefficients do not decay, but the boundary masses
# are anchored at the exact limits, so the total mass stays at its initial
# value at every positive time
atom = kd.InitialMeasure(atoms=[(0.25, 1.0)])
atom_coeffs = kd.project_initial(basis, atom, profile)
atom_sols = kd.solutions_at(atom_coeffs, times, x)
atom_report = kd.conservation_residuals(atom_sols)
print(f"\npoint mass at 0.25: mass drift {atom_report.mass_drift:.2e} against the "
      f"initial mass 1, constancy span {atom_report.mass_span:.2e}")
a_inf, b_inf = atom_coeffs.limits
print(f"its limits from the fixation profile: ({a_inf:.4f}, {b_inf:.4f})")
