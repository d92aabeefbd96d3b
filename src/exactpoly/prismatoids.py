"""Prismatoids (two parallel facets containing all vertices) and spindles.

Width is the dual-graph distance between the two base facets; a prismatoid
has the d-step property when its width does not exceed its dimension.
Spindles are the polar notion: two vertices such that every facet contains
exactly one of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import matrix_rank
from .polytopes import Hull, VPolytope, facet_enumeration


class NotAPrismatoid(ValueError):
    pass


def _parallel(q1, q2) -> bool:
    """Do two facet rows, whose coefficient vectors are not zero, have
    proportional coefficient vectors?"""
    return matrix_rank([q1[:-1], q2[:-1]]) == 1


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
    base_plus: int
    base_minus: int

    @property
    def hull(self) -> Hull:
        """The hull `facet_enumeration` keeps on the polytope."""
        return facet_enumeration(self.polytope)

    @property
    def dim(self) -> int:
        return self.hull.dim

    @property
    def n_vertices(self) -> int:
        return self.polytope.n_vertices

    @property
    def n_facets(self) -> int:
        return self.hull.incidence.n_facets

    @property
    def asimpliciality(self) -> int:
        return self.n_vertices - 2 * self.dim


def make_prismatoid(poly: VPolytope, bases: Optional[tuple] = None) -> Prismatoid:
    """Verify the prismatoid structure of `poly` on the hull
    `facet_enumeration` keeps on it, with `bases` the (plus, minus) pair of
    base facet indices; auto-detect them if not given.

    Auto-detection picks, in lexicographic order, the first parallel pair
    of facets whose incidences split the points, looking each facet's
    partner up by its mask; it passes the checks a given pair passes.  The
    points are not certified as vertices here: a caller whose points may not
    all be vertices runs `certify_vertices` first.
    """
    hull = facet_enumeration(poly)
    inc = hull.incidence
    rows = hull.hrep.inequalities
    full = (1 << poly.n_vertices) - 1
    if bases is None:
        bases = next(
            (
                (a, b)
                for a, b in _complementary_pairs(inc.facet_masks, full)
                if _parallel(rows[a], rows[b])
            ),
            None,
        )
        if not bases:
            raise NotAPrismatoid("no parallel facet pair covers all vertices")
    base_plus, base_minus = bases
    if not _parallel(rows[base_plus], rows[base_minus]):
        raise NotAPrismatoid("base facets are not parallel")
    if inc.facet_masks[base_plus] | inc.facet_masks[base_minus] != full:
        raise NotAPrismatoid("base facets do not contain all vertices")
    if inc.facet_masks[base_plus] & inc.facet_masks[base_minus]:
        raise NotAPrismatoid("base facets share a vertex")
    return Prismatoid(poly, base_plus, base_minus)


def width(pr: Prismatoid) -> int:
    """Dual-graph distance between the two base facets."""
    return pr.hull.dual_graph.distance(pr.base_plus, pr.base_minus)


def is_spindle(poly: VPolytope):
    """First vertex pair (u, v) such that every facet contains exactly one,
    with their vertex-graph distance; None if the polytope is not a spindle."""
    hull = facet_enumeration(poly)
    inc = hull.incidence
    pair = next(_complementary_pairs(inc.vertex_masks, (1 << inc.n_facets) - 1), None)
    if pair is None:
        return None
    u, v = pair
    return u, v, hull.vertex_graph.distance(u, v)
