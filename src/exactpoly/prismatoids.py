"""Prismatoids (two parallel facets containing all vertices) and spindles.

Width is the dual-graph distance between the two base facets; a prismatoid
has the d-step property when its width does not exceed its dimension.
Spindles are the polar notion: two vertices such that every facet contains
exactly one of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .polytopes import (
    Hull,
    VPolytope,
    dual_graph,
    facet_enumeration,
    vertex_graph,
)


class NotAPrismatoid(ValueError):
    pass


def _parallel(q1, q2) -> bool:
    """Do two facet rows have proportional coefficient vectors?"""
    c1, c2 = q1[:-1], q2[:-1]
    i = next(j for j, v in enumerate(c1) if v != 0)
    if c2[i] == 0:
        return False
    return all(c2[j] * c1[i] == c1[j] * c2[i] for j in range(len(c1)))


def _complementary_pairs(masks, full):
    """Pairs (a, b), a < b, in lexicographic order, whose masks are
    disjoint with union `full`.  Each a is paired with the first index that
    holds the mask it needs, so every such pair comes when the masks are
    distinct, and the first pair always does."""
    first = {}
    for i, m in enumerate(masks):
        first.setdefault(m, i)
    for a, m in enumerate(masks):
        b = first.get(full ^ m)
        if b is not None and b > a:
            yield a, b


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

    Auto-detection picks, in lexicographic order, the first parallel pair
    of facets whose incidences split the points, looking each facet's
    partner up by its mask.  The points are not certified as vertices here:
    a caller whose points may not all be vertices runs `certify_vertices`
    first.  Without `hull`, the one `facet_enumeration` keeps on `poly` is
    read.
    """
    if hull is None:
        hull = facet_enumeration(poly)
    inc = hull.incidence
    full = (1 << poly.n_vertices) - 1
    if base_plus is None or base_minus is None:
        rows = hull.hrep.inequalities
        found = next(
            (
                (a, b)
                for a, b in _complementary_pairs(inc.facet_masks, full)
                if _parallel(rows[a], rows[b])
            ),
            None,
        )
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


def width(pr: Prismatoid) -> int:
    """Dual-graph distance between the two base facets."""
    return dual_graph(pr.polytope, pr.hull).distance(pr.base_plus, pr.base_minus)


def is_spindle(poly: VPolytope, hull: Hull):
    """First vertex pair (u, v) such that every facet contains exactly one,
    with their vertex-graph distance; None if the polytope is not a spindle."""
    inc = hull.incidence
    pair = next(_complementary_pairs(inc.vertex_masks, (1 << inc.n_facets) - 1), None)
    if pair is None:
        return None
    u, v = pair
    return u, v, vertex_graph(poly, hull).distance(u, v)
