"""High modes near the degenerate endpoint look like Bessel functions.

Close to x = 0 the eigenfunctions of the singular eigenproblem follow a
turning-point approximation built from the Bessel function of order one
evaluated on the Liouville-Green phase.  The sup distance between the
eigenfunction and its comparison function shrinks as the mode index grows.
The script ends by writing output/bessel.json: the sup error of modes 4, 8
and 16 of the default 64-mode basis, and whether it decreases along them.
Run as a script it prints and writes all of this; the tests import
phase_values and bessel_comparison from it without running the script body.
"""

import json
from pathlib import Path

import numpy as np
from scipy.special import j1

import kimdiff as kd
from kimdiff._quadrature import TABLE_NODES, running_integral_table, table_values


def phase_values(model, x):
    """Liouville-Green phase S(x) = integral_0^x sqrt(weight) at points x in [0, 1].

    Substituting x = sin^2(pi tau / 2) turns sqrt(weight) dx into
    pi dtau / sqrt(Psi), which is smooth on [0, 1] although the weight is
    singular at both endpoints, so S is one running-integral table in tau.
    """
    table = running_integral_table(
        np.pi / np.sqrt(model.psi_at(np.sin(0.5 * np.pi * TABLE_NODES) ** 2)),
        "the Liouville-Green phase integrand",
    )
    return table_values(table, np.arcsin(np.sqrt(x)) * (2.0 / np.pi))


def bessel_comparison(basis, j, n_grid):
    """Sup distance on (0, 1/2] between eigenfunction j and its turning-point
    comparison function built from the Bessel function of order one, over
    the interior grid x_i = i / (n_grid + 1), i = 1..n_grid.

    The comparison is A * S * J1(sqrt(lambda_j) S) / sqrt(2 S sqrt(w)), with
    S the Liouville-Green phase and A fixed by unit weighted norm, matching
    the eigenfunction normalization.  Accuracy degrades away from the left
    endpoint; that is expected and simply reflected in the returned value.
    """
    j = int(j)
    if j < 4:
        raise ValueError(f"mode {j} lies outside the asymptotic regime; use modes >= 4")
    if j >= basis.n_modes:
        raise ValueError(f"mode {j} not in basis ({basis.n_modes} modes)")
    h = 1.0 / (n_grid + 1)
    x = np.arange(1, n_grid + 1) * h
    w = basis.model.weight(x)
    s_vals = phase_values(basis.model, x)
    z = np.sqrt(basis.eigenvalues[j]) * s_vals
    comp = s_vals * j1(z) / np.sqrt(2.0 * s_vals * np.sqrt(w))
    comp /= np.sqrt(h * np.sum(comp**2 * w))
    phi = basis.mode_values(x)[:, j]
    if comp[0] * phi[0] < 0.0:
        comp = -comp
    mask = x <= 0.5
    return float(np.max(np.abs(phi[mask] - comp[mask])))


if __name__ == "__main__":
    model = kd.make_kimura(0.0, 0.0)
    basis = kd.build_basis(model, 24)

    print("sup |phi_j - bessel comparison| on (0, 1/2]:")
    for j in (4, 6, 8, 12, 16, 20):
        err = bessel_comparison(basis, j, 8192)
        print(f"  j={j:2d}: {err:.4e}   (1/sqrt(lambda_j) = {basis.eigenvalues[j]**-0.5:.4e})")

    print("\nthe error tracks the 1/sqrt(lambda) envelope of the asymptotic theory")

    # the same phase integral predicts the eigenvalue growth constant
    s_total = 2 * np.arcsin(1.0)  # neutral phase integral over (0, 1): pi
    print(f"phase-based growth prediction K = pi^2 / {s_total:.4f}^2 = "
          f"{np.pi**2 / s_total**2:.4f}")
    m = basis.n_modes  # least squares of lambda_j against j^2 over the top half
    top = np.arange(m // 2, m)
    k_est = np.polyfit(top**2, basis.eigenvalues[m // 2:], 1)[0]
    print(f"fitted growth constant: {k_est:.4f}")

    # the comparison on the default resolution of a scenario (64 modes, grid 2048)
    basis = kd.build_basis(model, 64)
    comparison = [{"mode": j, "sup_error": bessel_comparison(basis, j, 2048)}
                  for j in (4, 8, 16)]
    payload = {"comparison": comparison,
               "decreasing": all(a["sup_error"] > b["sup_error"]
                                 for a, b in zip(comparison, comparison[1:]))}
    root = Path(__file__).resolve().parents[1]
    path = root / "demos" / "output" / "bessel.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(root)}")
