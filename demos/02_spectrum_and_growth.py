"""The eigenproblem behind the dynamics.

The forward operator's spectrum is a positive increasing sequence growing
like K j^2; for the neutral model the eigenvalues are exactly
(j+1)(j+2) with polynomial density modes.  Each mode's mass ties to its
endpoint values through the integrated flux identity, the chi = 1 row of
the per-mode weak-form identity that build_basis tabulates; the table
doubles as a resolution diagnostic.
"""

import numpy as np

import kimdiff as kd

neutral = kd.make_kimura(0.0, 0.0)
selection = kd.make_kimura(1.0, -0.5)

print("neutral eigenvalues vs (j+1)(j+2):")
basis = kd.build_basis(neutral, 32, 4096)
j = np.arange(8)
for jj, lam in zip(j, basis.eigenvalues[:8]):
    print(f"  j={jj}: computed {lam:.9f}   exact {(jj + 1) * (jj + 2)}")

k_est, residuals = kd.eigenvalue_growth(basis)
print(f"\ngrowth constant K (fit over top half): {k_est:.4f}  (neutral limit: 1)")
print(f"last residuals lambda_j/j^2 - K: {residuals[-3:]}")

print(f"weak-form identity max relative residual: {np.max(basis.identity_residuals):.2e}")

scaled_mass = np.abs(basis.mode_masses) * basis.eigenvalues**0.25
sup_phi = np.max(np.abs(basis.eigenfunctions), axis=0)
print(f"boundedness: max |Q_j| lam^1/4 = {np.max(scaled_mass):.3f}, "
      f"max sup|phi_j| = {np.max(sup_phi):.3f}")

print("\nselection model (eta=1, beta=-0.5):")
sel_basis = kd.build_basis(selection, 16, 2048)
print(f"  lowest eigenvalues: {sel_basis.eigenvalues[:5]}")
print(f"  spectral gap lambda_0 = {sel_basis.eigenvalues[0]:.6f} "
      "(sets the absorption rate)")
