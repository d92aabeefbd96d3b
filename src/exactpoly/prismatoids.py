"""Prismatoids (two parallel facets containing all vertices) and spindles.

Width is the dual-graph distance between the two base facets; a prismatoid
has the d-step property when its width does not exceed its dimension.
Spindles are the polar notion: two vertices such that every facet contains
exactly one of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph
from .polytopes import (
    Hull,
    VPolytope,
    certify_vertices,
    dual_graph,
    facet_enumeration,
    vertex_graph,
)
from .rationals import Rat


class NotAPrismatoid(ValueError):
    pass


def _parallel(q1, q2) -> bool:
    """Do two facet rows have proportional coefficient vectors?"""
    c1, c2 = q1[:-1], q2[:-1]
    i = next(j for j, v in enumerate(c1) if v != 0)
    if c2[i] == 0:
        return False
    r = Rat(c2[i], c1[i])
    return all(c2[j] == r * c1[j] for j in range(len(c1)))


@dataclass(frozen=True)
class Prismatoid:
    polytope: VPolytope
    hull: Hull
    base_plus: int
    base_minus: int

    @property
    def dim(self) -> int:
        return self.hull.dim

    @property
    def n_vertices(self) -> int:
        return self.polytope.n_vertices

    @property
    def n_facets(self) -> int:
        return self.hull.incidence.n_facets

    def base_plus_vertices(self):
        return self.hull.incidence.vertices_of(self.base_plus)

    def base_minus_vertices(self):
        return self.hull.incidence.vertices_of(self.base_minus)

    @property
    def asimpliciality(self) -> int:
        return self.n_vertices - 2 * self.dim


def make_prismatoid(
    poly: VPolytope,
    hull: Optional[Hull] = None,
    base_plus: Optional[int] = None,
    base_minus: Optional[int] = None,
) -> Prismatoid:
    """Verify the prismatoid structure; auto-detect base facets if not given.

    Auto-detection scans facet pairs in lexicographic order and picks the
    first parallel pair whose incidence covers every vertex.
    """
    if hull is None:
        hull = facet_enumeration(poly)
    certify_vertices(poly, hull)
    inc = hull.incidence
    full = (1 << poly.n_vertices) - 1
    if base_plus is None or base_minus is None:
        found = None
        m = inc.n_facets
        for a in range(m):
            for b in range(a + 1, m):
                if inc.facet_masks[a] | inc.facet_masks[b] != full:
                    continue
                if inc.facet_masks[a] & inc.facet_masks[b]:
                    continue
                if _parallel(hull.hrep.inequalities[a], hull.hrep.inequalities[b]):
                    found = (a, b)
                    break
            if found:
                break
        if not found:
            raise NotAPrismatoid("no parallel facet pair covers all vertices")
        base_plus, base_minus = found
    else:
        qa = hull.hrep.inequalities[base_plus]
        qb = hull.hrep.inequalities[base_minus]
        if not _parallel(qa, qb):
            raise NotAPrismatoid("base facets are not parallel")
        if inc.facet_masks[base_plus] | inc.facet_masks[base_minus] != full:
            raise NotAPrismatoid("base facets do not contain all vertices")
        if inc.facet_masks[base_plus] & inc.facet_masks[base_minus]:
            raise NotAPrismatoid("base facets share a vertex")
    return Prismatoid(poly, hull, base_plus, base_minus)


def width(pr: Prismatoid, graph: Optional[Graph] = None) -> int:
    """Dual-graph distance between the two base facets."""
    if graph is None:
        graph = dual_graph(pr.polytope, pr.hull)
    return graph.distance(pr.base_plus, pr.base_minus)


def is_spindle(poly: VPolytope, hull: Optional[Hull] = None):
    """First vertex pair (u, v) such that every facet contains exactly one,
    with their vertex-graph distance; None if the polytope is not a spindle."""
    if hull is None:
        hull = facet_enumeration(poly)
    inc = hull.incidence
    n = poly.n_vertices
    all_facets = (1 << inc.n_facets) - 1
    vmasks = inc.vertex_masks
    for u in range(n):
        mu = vmasks[u]
        for v in range(u + 1, n):
            if mu & vmasks[v] == 0 and mu | vmasks[v] == all_facets:
                g = vertex_graph(poly, hull)
                return u, v, g.distance(u, v)
    return None
