"""Measure-valued solutions of degenerate Kimura-type forward equations.

The interior density decays while probability mass accumulates in growing
point masses at the two absorbing endpoints; this package computes the
density, the endpoint masses, the fixation probability, the underlying
spectral data, conservation diagnostics, the distance to the limit measure
with the norm its decay bound reads, and an independent finite-difference
solver for cross-validation.
"""

from .model import CoefficientModel, make_kimura
from .fixation import FixationProfile, fixation_profile
from .spectral import SpectralBasis, build_basis
from .evolution import (
    ConservationReport,
    InitialMeasure,
    Solutions,
    SpectralCoefficients,
    bump_density,
    conservation_residuals,
    density_from_spec,
    ds_norm,
    limit_masses,
    project_initial,
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
    "InitialMeasure",
    "SpectralCoefficients",
    "Solutions",
    "ConservationReport",
    "project_initial",
    "solutions_at",
    "limit_masses",
    "conservation_residuals",
    "ds_norm",
    "radon_distance_to_limit",
    "bump_density",
    "density_from_spec",
    "solve_fd",
    "compare_with_spectral",
]
