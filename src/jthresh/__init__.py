"""Exact thresholds for twisted energy functionals from cohomological data.

Computes, in exact arithmetic, the optimal coercivity constant of the
twisted energy functional on surfaces (and toric manifolds of any
dimension), the Seshadri-type cone constants T and sigma, solvable
subcones along boundary paths, and a numerical existence criterion for
constant-scalar-curvature metrics driven by a user-supplied alpha
invariant.  Inputs are intersection lattices with nef-cone data, or fans.
The names below are the ones README.md documents; everything else is
imported from its submodule.
"""

from .catalog import build, ross_gamma_closed_form, ross_polarization
from .cones import LightConeFacet, NefConeModel, cone_constants
from .errors import JThreshError
from .exactnum import QuadNum
from .lattice import DivClass, IntersectionLattice, diagonal_lattice
from .surface import (Status, csck_criterion, is_solvable, sample_path, stable_subcone,
                      surface_gamma)
from .toric import Fan, intersection_number, subvariety_score, toric_gamma

__version__ = "0.1.0"

__all__ = [
    "DivClass", "Fan", "IntersectionLattice", "JThreshError", "LightConeFacet",
    "NefConeModel", "QuadNum", "Status", "build", "cone_constants", "csck_criterion",
    "diagonal_lattice", "intersection_number", "is_solvable", "ross_gamma_closed_form",
    "ross_polarization", "sample_path", "stable_subcone", "subvariety_score",
    "surface_gamma", "toric_gamma",
]
