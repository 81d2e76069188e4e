"""Measure-valued solutions of degenerate Kimura-type forward equations.

The interior density decays while probability mass accumulates in growing
point masses at the two absorbing endpoints; this package computes the
density, the endpoint masses, the fixation probability, the underlying
spectral data, conservation diagnostics, and large-time decay constants,
with an independent finite-difference solver for cross-validation.
"""

from .model import CoefficientModel, make_kimura
from .fixation import FixationProfile, fixation_profile
from .spectral import SpectralBasis, build_basis, eigenvalue_growth
from .evolution import (
    ConservationReport,
    DecayDiagnostics,
    InitialMeasure,
    Solutions,
    SpectralCoefficients,
    bump_density,
    conservation_residuals,
    decay_diagnostics,
    density_from_spec,
    ds_norm,
    limit_masses,
    project_initial,
    radon_bound_constant,
    radon_distance_to_limit,
    solutions_at,
)
from .fd import compare_with_spectral, solve_fd

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel",
    "make_kimura",
    "FixationProfile",
    "fixation_profile",
    "SpectralBasis",
    "build_basis",
    "eigenvalue_growth",
    "InitialMeasure",
    "SpectralCoefficients",
    "Solutions",
    "ConservationReport",
    "DecayDiagnostics",
    "project_initial",
    "solutions_at",
    "limit_masses",
    "conservation_residuals",
    "ds_norm",
    "decay_diagnostics",
    "radon_distance_to_limit",
    "radon_bound_constant",
    "bump_density",
    "density_from_spec",
    "solve_fd",
    "compare_with_spectral",
]
