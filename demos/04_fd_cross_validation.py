"""Cross-validation of the spectral route against the finite-difference
reference solver.

The two solvers share no numerics: one expands in eigenmodes, the other
steps a conservative Crank-Nicolson scheme (two runs, combined to cancel its
time error) and harvests the boundary fluxes.
Agreement of densities and endpoint masses, plus the second-order shrink of
the gap under mesh refinement, validates both ends.
"""

import numpy as np

import kimdiff as kd

model = kd.make_kimura(1.0, -0.5)
profile = kd.fixation_profile(model)
basis = kd.build_basis(model, 128)
x = np.linspace(0.0, 1.0, 2050)  # compare_with_spectral interpolates these to the FD cells
init = kd.InitialMeasure(density="bump(0.4, 0.2)")
coeffs = kd.project_initial(model, basis, init, profile)

times = [0.1, 0.5, 1.0]
spectral = kd.solutions_at(model, basis, coeffs, init, times, x)
fd_states = kd.evolve_fd(model, init, times, 1024)

print("spectral vs finite-difference (1024 cells):")
print("  t     L1(q) gap    |a| gap      |b| gap")
for row in kd.compare_with_spectral(fd_states, spectral):
    print(f"{row.t:5.2f}  {row.q_l1_diff:.3e}  {row.a_diff:.3e}  {row.b_diff:.3e}")

mass0 = init.total_mass()
drift = max(abs(st.total_mass() - mass0) for st in fd_states)
print(f"\nFD discrete mass drift: {drift:.2e} (conservative by construction)")

print("\nmesh refinement study at t=0.5:")
ref = kd.solutions_at(model, basis, coeffs, init, [0.5], x)
prev = None
for cells in (128, 256, 512, 1024):
    states = kd.evolve_fd(model, init, [0.5], cells)
    gap = kd.compare_with_spectral(states, ref)[0].q_l1_diff
    note = "" if prev is None else f"  (ratio {prev / gap:.2f})"
    print(f"  {cells:5d} cells: L1 gap {gap:.3e}{note}")
    prev = gap
print("halving the mesh shrinks the gap about 4x: the scheme is second order")
