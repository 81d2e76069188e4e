"""High modes near the degenerate endpoint look like Bessel functions.

Close to x = 0 the eigenfunctions of the singular eigenproblem follow a
turning-point approximation built from the Bessel function of order one
evaluated on the Liouville-Green phase.  The sup distance between the
eigenfunction and its comparison function shrinks as the mode index grows.
The script ends by writing output/bessel.json: the sup error of modes 4, 8
and 16 of the default 64-mode basis, and whether it decreases along them.
"""

import json
from pathlib import Path

import numpy as np

import kimdiff as kd

model = kd.make_kimura(0.0, 0.0)
basis = kd.build_basis(model, 24, 8192)

print("sup |phi_j - bessel comparison| on (0, 1/2]:")
for j in (4, 6, 8, 12, 16, 20):
    err = kd.bessel_comparison(model, basis, j)
    print(f"  j={j:2d}: {err:.4e}   (1/sqrt(lambda_j) = {basis.eigenvalues[j]**-0.5:.4e})")

print("\nthe error tracks the 1/sqrt(lambda) envelope of the asymptotic theory")

# the same phase integral predicts the eigenvalue growth constant
s_total = 2 * np.arcsin(1.0)  # neutral phase integral over (0, 1): pi
print(f"phase-based growth prediction K = pi^2 / {s_total:.4f}^2 = "
      f"{np.pi**2 / s_total**2:.4f}")
k_est, _ = kd.eigenvalue_growth(basis)
print(f"fitted growth constant: {k_est:.4f}")

# the comparison on the default resolution of a scenario (64 modes, grid 2048)
basis = kd.build_basis(model, 64, 2048)
comparison = [{"mode": j, "sup_error": kd.bessel_comparison(model, basis, j)}
              for j in (4, 8, 16)]
payload = {"comparison": comparison,
           "decreasing": all(a["sup_error"] > b["sup_error"]
                             for a, b in zip(comparison, comparison[1:]))}
path = Path(__file__).resolve().parent / "output" / "bessel.json"
path.parent.mkdir(parents=True, exist_ok=True)
path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
print(f"wrote {path}")
