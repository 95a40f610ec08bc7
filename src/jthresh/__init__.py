"""Exact thresholds for twisted energy functionals from cohomological data.

Computes, in exact arithmetic, the optimal coercivity constant of the
twisted energy functional on surfaces (and toric manifolds of any
dimension), the Seshadri-type cone constants T and sigma, solvable
subcones along boundary paths, and a numerical existence criterion for
constant-scalar-curvature metrics driven by a user-supplied alpha
invariant.  Inputs are intersection lattices with nef-cone data, or fans.
"""

from .catalog import CatalogEntry, build, ross_gamma_closed_form, ross_polarization
from .cones import (ConeConstants, LightConeFacet, NefConeModel, cone_constants,
                    is_kahler, is_nef, seshadri_T, sigma_inf, validate_cone)
from .errors import JThreshError
from .exactnum import (QuadNum, Rat, RatPoly, decimal_str, format_rat,
                       poly_roots_quadratic, rat, rat_sqrt)
from .lattice import (DivClass, IntersectionLattice, diagonal_lattice, segment,
                      validate_signature)
from .surface import (CsckReport, Interval, PathAnalysis, PerfectCone,
                      StableSubcone, Status, ThresholdResult, c_constant,
                      csck_criterion, is_solvable, path_R, sample_path,
                      stable_subcone, surface_gamma)
from .toric import (Fan, SubvarietyScore, ToricGammaResult, canonicalize,
                    classes_equivalent, enumerate_orbits, intersection_number,
                    invariant_curves, is_ample, is_nef_toric, subvariety_score,
                    toric_gamma, toric_seshadri_T, validate_fan)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "ConeConstants", "CsckReport", "DivClass", "Fan",
    "IntersectionLattice", "Interval", "JThreshError", "LightConeFacet",
    "NefConeModel", "PathAnalysis", "PerfectCone", "QuadNum", "Rat", "RatPoly",
    "StableSubcone", "Status", "SubvarietyScore", "ThresholdResult",
    "ToricGammaResult", "build", "c_constant", "canonicalize",
    "classes_equivalent", "cone_constants", "csck_criterion", "decimal_str",
    "diagonal_lattice", "enumerate_orbits", "format_rat", "intersection_number",
    "invariant_curves", "is_ample", "is_kahler", "is_nef", "is_nef_toric",
    "is_solvable", "path_R", "poly_roots_quadratic", "rat",
    "rat_sqrt", "ross_gamma_closed_form", "ross_polarization", "sample_path",
    "segment", "seshadri_T", "sigma_inf", "stable_subcone", "subvariety_score",
    "surface_gamma", "toric_gamma", "toric_seshadri_T", "validate_cone",
    "validate_fan", "validate_signature",
]
