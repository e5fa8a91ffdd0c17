"""Exact simplicity classification of right-angled multi-parameter Hecke
C*-algebras, with desk-scale verification of the supporting word-combinatorial
and operator identities."""

from .coxeter import CoxeterDiagram, DiagramError, parse_diagram
from .enumeration import Ball, BallCapExceeded, ball, sphere_weight
from .growth import (GrowthReport, Verdict, character_list, classify_simplicity,
                     growth_reciprocal, pole_and_rho, region_membership)
from .hecke import (HeckeElement, MultiParameter, central_projection_partial,
                    char_value, cliq_decomposition, flip_parameters)

__version__ = "0.1.0"

__all__ = [
    "CoxeterDiagram", "DiagramError", "parse_diagram",
    "Ball", "BallCapExceeded", "ball", "sphere_weight",
    "GrowthReport", "Verdict", "growth_reciprocal", "pole_and_rho",
    "region_membership", "classify_simplicity", "character_list",
    "HeckeElement", "MultiParameter", "central_projection_partial",
    "char_value", "cliq_decomposition", "flip_parameters",
    "__version__",
]
