"""
Exterior divergence-curl problems on the outside of a sphere.

The package solves

    curl v = f,   div v = 0   for |x| > r0,
    v = 0         on |x| = r0,
    v -> v_inf    as |x| -> infinity,

by expanding everything in vector spherical harmonics, where the problem
decouples into one explicitly integrable ODE system per (l, m) mode.
Solvability is not automatic: the data must be orthogonal to the family
of pseudo-harmonic fields Phi_lm / r^(l+1), which reduces to one radial
moment per mode.  The pieces:

    grids           composite Gauss-Legendre shell grids and quadrature
    harmonics       normalized Legendre / spherical harmonic tables
    frames          spherical <-> Cartesian point and vector conversions
    transform       analyze / synthesize and spectral div, grad, curl
    solver          solvability diagnostics and the explicit solution
    pseudoharmonic  the obstruction family and its identities
    biotsavart      direct volume-integral evaluation (independent check)
    planar          the two-dimensional moment conditions
    fileio          text formats (.vfld, .vshc, .pfld, point lists)
    cli             the `divcurl` command-line tool
"""

from .biotsavart import (ProximityError, biot_savart_eval,
                         circulation_diagnostic, sphere_points)
from .fileio import (FileFormatError, read_points, read_polar, read_vfld,
                     read_vshc, write_points, write_polar, write_vfld,
                     write_vshc)
from .frames import (cart_to_sph_points, sph_to_cart_points,
                     sph_to_cart_vector)
from .grids import (AngularGrid, RadialGrid, SampledField, make_grids,
                    surface_integral)
from .planar import PlanarGeometry, PolarGrid, planar_moments
from .pseudoharmonic import (PseudoHarmonicReport, phf_field,
                             verify_pseudoharmonic)
from .solver import (DEFAULT_TOL, REFUSE_TOL, BoundaryTrace, CompatReport,
                     CompatibilityWarning, IncompatibilityError, boundary_trace,
                     check_compatibility, far_field_coeffs,
                     partial_slip_project, solve_exterior)
from .transform import (ScalarSpectral, SpectralField, analyze, mode_degrees,
                        mode_index, spectral_curl, spectral_div, spectral_grad,
                        synthesize, synthesize_at)

__version__ = "0.1.0"

__all__ = [
    "AngularGrid", "BoundaryTrace", "CompatReport", "CompatibilityWarning",
    "DEFAULT_TOL", "FileFormatError", "IncompatibilityError", "PlanarGeometry",
    "PolarGrid", "ProximityError", "PseudoHarmonicReport", "REFUSE_TOL",
    "RadialGrid", "SampledField", "ScalarSpectral", "SpectralField", "analyze",
    "biot_savart_eval", "boundary_trace", "cart_to_sph_points",
    "check_compatibility", "circulation_diagnostic", "far_field_coeffs",
    "make_grids", "mode_degrees", "mode_index", "partial_slip_project",
    "phf_field", "planar_moments", "read_points", "read_polar", "read_vfld",
    "read_vshc", "solve_exterior", "spectral_curl", "spectral_div",
    "spectral_grad", "sph_to_cart_points", "sph_to_cart_vector",
    "sphere_points", "surface_integral", "synthesize", "synthesize_at",
    "verify_pseudoharmonic", "write_points", "write_polar", "write_vfld",
    "write_vshc"]
