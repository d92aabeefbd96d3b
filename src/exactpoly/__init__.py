"""Exact-arithmetic polytope combinatorics.

Exact facet enumeration (integer arithmetic inside, rationals at the edges),
dual-graph widths of prismatoids, the width-6 counterexample to the d-step
property in dimension five, and the constructions that turn it into
non-Hirsch polytopes.
"""

from .geometry import Inequality, OrthMap, affine_rank, evaluate, hyperplane_through
from .polytopes import (
    HPolytope,
    VPolytope,
    certify_vertices,
    dual_graph,
    face_maximizing,
    facet_enumeration,
    is_simple,
    is_simplicial,
    polar,
    vertex_graph,
)
from .prismatoids import Prismatoid, has_dstep_property, is_spindle, make_prismatoid, width
from .rationals import Rat, format_rat, parse_rat

__all__ = [
    "HPolytope",
    "Inequality",
    "OrthMap",
    "Prismatoid",
    "Rat",
    "VPolytope",
    "affine_rank",
    "certify_vertices",
    "dual_graph",
    "evaluate",
    "face_maximizing",
    "facet_enumeration",
    "format_rat",
    "has_dstep_property",
    "hyperplane_through",
    "is_simple",
    "is_simplicial",
    "is_spindle",
    "make_prismatoid",
    "parse_rat",
    "polar",
    "vertex_graph",
    "width",
]
