"""Exact-arithmetic polytope combinatorics.

Exact facet enumeration (integer arithmetic inside, rationals at the edges),
dual-graph widths of prismatoids, the width-6 counterexample to the d-step
property in dimension five, and the constructions that turn it into
non-Hirsch polytopes.
"""

from .geometry import OrthMap, affine_rank
from .polytopes import (
    HPolytope,
    VPolytope,
    certify_vertices,
    dual_graph,
    facet_enumeration,
    polar,
    vertex_graph,
)
from .prismatoids import Prismatoid, is_spindle, make_prismatoid, width
from .rationals import Rat, format_rat, parse_rat

__all__ = [
    "HPolytope",
    "OrthMap",
    "Prismatoid",
    "Rat",
    "VPolytope",
    "affine_rank",
    "certify_vertices",
    "dual_graph",
    "facet_enumeration",
    "format_rat",
    "is_spindle",
    "make_prismatoid",
    "parse_rat",
    "polar",
    "vertex_graph",
    "width",
]
