"""The eigenproblem behind the dynamics.

The forward operator's spectrum is a positive increasing sequence growing
like K j^2; for the neutral model the eigenvalues are exactly
(j+1)(j+2) with polynomial density modes.  Each mode's mass ties to its
endpoint values through the integrated flux identity, the chi = 1 row of
the per-mode weak-form identity that build_basis tabulates; the table
doubles as a resolution diagnostic.  The eigenfunctions at a scenario's
default resolution (64 modes, grid 2048) go to
demos/output/eigenfunctions.csv, one column per mode.
"""

import csv
from pathlib import Path

import numpy as np

import kimdiff as kd

neutral = kd.make_kimura(0.0, 0.0)
selection = kd.make_kimura(1.0, -0.5)

print("neutral eigenvalues vs (j+1)(j+2):")
basis = kd.build_basis(neutral, 32)
j = np.arange(8)
for jj, lam in zip(j, basis.eigenvalues[:8]):
    print(f"  j={jj}: computed {lam:.9f}   exact {(jj + 1) * (jj + 2)}")

m = basis.n_modes  # least squares of lambda_j against j^2 over the top half
top = np.arange(m // 2, m)
k_est = np.polyfit(top**2, basis.eigenvalues[m // 2:], 1)[0]
residuals = basis.eigenvalues[m // 2:] / top**2 - k_est
print(f"\ngrowth constant K (fit over top half): {k_est:.4f}  (neutral limit: 1)")
print(f"last residuals lambda_j/j^2 - K: {residuals[-3:]}")

print(f"weak-form identity max relative residual: {np.max(basis.identity_residuals):.2e}")

scaled_mass = np.abs(basis.mode_masses) * basis.eigenvalues**0.25
sup_phi = np.max(np.abs(basis.mode_values(np.linspace(0.0, 1.0, 4098)[1:-1])), axis=0)
print(f"boundedness: max |Q_j| lam^1/4 = {np.max(scaled_mass):.3f}, "
      f"max sup|phi_j| = {np.max(sup_phi):.3f}")

print("\nselection model (eta=1, beta=-0.5):")
sel_basis = kd.build_basis(selection, 16)
print(f"  lowest eigenvalues: {sel_basis.eigenvalues[:5]}")
print(f"  spectral gap lambda_0 = {sel_basis.eigenvalues[0]:.6f} "
      "(sets the absorption rate)")

# the neutral eigenfunctions at a scenario's default resolution, sampled on the interior grid
basis = kd.build_basis(neutral, 64)
x = np.linspace(0.0, 1.0, 2050)[1:-1]
root = Path(__file__).resolve().parents[1]
path = root / "demos" / "output" / "eigenfunctions.csv"
path.parent.mkdir(parents=True, exist_ok=True)
with open(path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["x"] + [f"phi{j}" for j in range(basis.n_modes)])
    writer.writerows(zip(x.tolist(), *basis.mode_values(x).T.tolist()))
print(f"wrote {path.relative_to(root)}")
