"""Normal cones, Minkowski sums with bi-dimension bookkeeping, the pair
d-step property, transversality, the interiority of two normal maps, cube
vertex figures, and flat-torus coordinates for plotting.  These are general
tools; the width-6 sections built from them live in `counterexample`.

All cone work is exact and polyhedral: a direction lies strictly inside the
normal cone of a vertex exactly when that vertex is the unique maximizer of
the direction over the polytope, so no spherical geometry is ever needed.
The torus angles are floating point and feed the SVG plots only.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .geometry import DegenerateInput, affine_rank, integer_points
from .polytopes import (
    Face,
    FacetIncidence,
    Hull,
    VPolytope,
    bits,
    dual_graph,
    extreme_indices,
    face_maximizing,
    facet_enumeration,
    iter_bits,
)
from .prismatoids import Prismatoid
from .rationals import Rat, primitive_ints
from .report import Report


@dataclass(frozen=True)
class NormalCone:
    """Normal cone of a vertex: generated by the normals of its facets."""

    owner: int
    generators: tuple


def facet_normals(hull: Hull):
    """Canonical facet normals as integer points."""
    return tuple(tuple(q.coeffs) for q in hull.hrep.inequalities)


def normal_cone(hull: Hull, v: int) -> NormalCone:
    normals = facet_normals(hull)
    gens = tuple(normals[f] for f in iter_bits(hull.incidence.vertex_masks[v]))
    return NormalCone(v, gens)


def interior_owner(poly: VPolytope, direction) -> Optional[int]:
    """The vertex whose normal cone strictly contains `direction`, if unique."""
    face = face_maximizing(poly, direction)
    if len(face.vertex_indices) == 1:
        return face.vertex_indices[0]
    return None


def cone_contains_strictly(poly: VPolytope, v: int, direction) -> bool:
    return interior_owner(poly, direction) == v


def direction_key(coeffs):
    """Primitive integer vector of a direction (positive scaling only)."""
    return tuple(primitive_ints(list(coeffs)))


# ---------------------------------------------------------------------------
# Minkowski sums


@dataclass(frozen=True)
class MinkowskiFacet:
    """A facet of a sum with its unique decomposition into summand faces."""

    normal: tuple
    offset: object
    face_plus: Face
    face_minus: Face

    @property
    def bi_dimension(self):
        return (self.face_plus.dim, self.face_minus.dim)


@dataclass(frozen=True)
class MinkowskiSum:
    polytope: VPolytope
    hull: Hull
    facets: tuple
    provenance: tuple  # per sum vertex: tuple of (i, j) summand index pairs

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def graph(self):
        """Dual graph of the sum, built on first use."""
        return dual_graph(self.polytope, self.hull)


def minkowski_sum(a: VPolytope, b: VPolytope) -> MinkowskiSum:
    """Hull of all pairwise vertex sums, annotated facet by facet with the
    decomposition F = F+ + F- found by maximizing the facet normal."""
    if a.ambient_dim != b.ambient_dim:
        raise DegenerateInput("summands must share the ambient dimension")
    sums = {}
    for i, p in enumerate(a.vertices):
        for j, q in enumerate(b.vertices):
            s = tuple(p[t] + q[t] for t in range(len(p)))
            sums.setdefault(s, []).append((i, j))
    points = tuple(sums)
    raw = VPolytope(points)
    hull_all = facet_enumeration(raw)
    keep = extreme_indices(raw, hull_all)
    old_to_new = {o: n for n, o in enumerate(keep)}
    poly = VPolytope(tuple(points[o] for o in keep))
    masks = tuple(
        bits(old_to_new[v] for v in iter_bits(m) if v in old_to_new)
        for m in hull_all.incidence.facet_masks
    )
    hull = Hull(hull_all.hrep, FacetIncidence(masks, poly.n_vertices), hull_all.dim)
    # faces and their dimensions do not change under scaling, so the normals
    # are maximized over integer copies of the summands
    a_int, b_int = (VPolytope(tuple(integer_points(x.vertices)[0])) for x in (a, b))
    facets = tuple(
        MinkowskiFacet(
            normal=tuple(q.coeffs),
            offset=q.offset,
            face_plus=face_maximizing(a_int, q.coeffs),
            face_minus=face_maximizing(b_int, q.coeffs),
        )
        for q in hull.hrep.inequalities
    )
    provenance = tuple(tuple(sums[points[o]]) for o in keep)
    return MinkowskiSum(poly, hull, facets, provenance)


# ---------------------------------------------------------------------------
# slices of a prismatoid


def intermediate_slice(pr: Prismatoid, lam1) -> VPolytope:
    """Cross-section at the hyperplane whose slice is lam1*Q+ + lam2*Q-.

    Vertices come from the edges joining the two bases; returned in the full
    ambient dimension (the slice is degenerate there).
    """
    lam1 = Rat(lam1)
    if not 0 < lam1 < 1:
        raise ValueError("slice parameter must be strictly between 0 and 1")
    lam2 = 1 - lam1
    from .polytopes import vertex_graph

    g = vertex_graph(pr.polytope, pr.hull)
    plus = set(pr.base_plus_vertices())
    minus = set(pr.base_minus_vertices())
    pts = []
    seen = set()
    for i, j in g.edges:
        if i in plus and j in minus:
            hi, lo = i, j
        elif j in plus and i in minus:
            hi, lo = j, i
        else:
            continue
        p = tuple(
            lam1 * pr.polytope.vertices[hi][t] + lam2 * pr.polytope.vertices[lo][t]
            for t in range(pr.polytope.ambient_dim)
        )
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return VPolytope(tuple(pts))


# ---------------------------------------------------------------------------
# pair d-step property


def pair_dstep_property(qplus: VPolytope, qminus: VPolytope, d: int, ms=None):
    """(has property, minimum facet-sequence length) for a pair of bases.

    The sequence runs in the dual graph of the Minkowski sum from facets
    whose first decomposition component is a facet of Q+ to those whose
    second is a facet of Q-; the pair property asks for length <= d - 1.
    """
    if ms is None:
        ms = minkowski_sum(qplus, qminus)
    dim_plus = affine_rank(qplus.vertices)
    dim_minus = affine_rank(qminus.vertices)
    start = [f for f, mf in enumerate(ms.facets) if mf.face_plus.dim == dim_plus - 1]
    end = {f for f, mf in enumerate(ms.facets) if mf.face_minus.dim == dim_minus - 1}
    if not start or not end:
        raise DegenerateInput("no facet has the required bi-dimension")
    g = ms.graph
    dist = {f: 0 for f in start}
    queue = deque(start)
    best = None
    while queue:
        f = queue.popleft()
        if f in end:
            best = dist[f]
            break
        for h in g.adj[f]:
            if h not in dist:
                dist[h] = dist[f] + 1
                queue.append(h)
    if best is None:
        raise DegenerateInput("no dual path between the base-adjacent facets")
    min_facets = best + 1
    return min_facets <= d - 1, min_facets


# ---------------------------------------------------------------------------
# transversality


def transversality_check(pr: Prismatoid) -> Report:
    """Every non-base facet F satisfies
    dim(F ∩ Q+) + dim(F ∩ Q-) = dim F - 1."""
    rep = Report("transversality")
    inc = pr.hull.incidence
    plus_mask = inc.facet_masks[pr.base_plus]
    minus_mask = inc.facet_masks[pr.base_minus]
    verts = pr.polytope.vertices
    bad = []
    total = 0
    for f in range(inc.n_facets):
        if f in (pr.base_plus, pr.base_minus):
            continue
        total += 1
        m = inc.facet_masks[f]
        dp = affine_rank([verts[v] for v in iter_bits(m & plus_mask)]) if m & plus_mask else -1
        dm = affine_rank([verts[v] for v in iter_bits(m & minus_mask)]) if m & minus_mask else -1
        if dp + dm != pr.dim - 2:
            bad.append((f, dp, dm))
    rep.add(
        "all non-base facets transversal",
        not bad,
        f"{total - len(bad)}/{total}" + (f" first bad {bad[0]}" if bad else ""),
    )
    return rep


# ---------------------------------------------------------------------------
# interiority of the two normal maps (the key step of the second width proof)


def normal_map_interiority_check(
    qplus: VPolytope,
    hull_plus: Hull,
    qminus: VPolytope,
    hull_minus: Hull,
    plus_orbit,
    minus_orbit,
) -> Report:
    """Three containment statements between the two normal maps.

    1. every facet normal of Q- lies strictly inside the normal cone of a
       Q+ vertex from `plus_orbit`;
    2. symmetrically for facet normals of Q+ and `minus_orbit`;
    3. for each facet normal v of Q+, with C the normal cone of the Q-
       vertex strictly containing v: no generator of C lands, under its own
       strict containment, in a normal cone whose owner lies on the Q+ facet
       with normal v.
    """
    rep = Report("normal map interiority")
    normals_p = facet_normals(hull_plus)
    normals_m = facet_normals(hull_minus)
    plus_orbit = set(plus_orbit)
    minus_orbit = set(minus_orbit)

    owners_of_minus = {}
    ok1 = True
    for f, w in enumerate(normals_m):
        o = interior_owner(qplus, w)
        owners_of_minus[f] = o
        if o is None or o not in plus_orbit:
            ok1 = False
    rep.add("facet normals of Q- interior to orbit cones of Q+", ok1, f"{len(normals_m)} normals")

    owners_of_plus = {}
    ok2 = True
    for f, v in enumerate(normals_p):
        o = interior_owner(qminus, v)
        owners_of_plus[f] = o
        if o is None or o not in minus_orbit:
            ok2 = False
    rep.add("facet normals of Q+ interior to orbit cones of Q-", ok2, f"{len(normals_p)} normals")

    ok3 = True
    detail = ""
    for f, v in enumerate(normals_p):
        c = owners_of_plus[f]
        if c is None:
            ok3 = False
            break
        tight_mask = hull_plus.incidence.facet_masks[f]
        for g in iter_bits(hull_minus.incidence.vertex_masks[c]):
            o = owners_of_minus[g]
            if o is None or tight_mask >> o & 1:
                ok3 = False
                detail = f"normal {v} meets its own facet via cone generator {normals_m[g]}"
                break
        if not ok3:
            break
    rep.add("no cone generator returns to the starting facet", ok3, detail)
    return rep


# ---------------------------------------------------------------------------
# torus coordinates (plotting only)


def torus_project(p):
    """Longitude/latitude angles in [0, 2*pi) of a 4-dimensional direction."""
    x1, x2, x3, x4 = (float(v) for v in p[:4])
    if x1 == 0 and x2 == 0 or x3 == 0 and x4 == 0:
        raise DegenerateInput("direction lies on a coordinate 2-plane")
    tau = 2 * math.pi
    return (math.atan2(x2, x1) % tau, math.atan2(x4, x3) % tau)


def torus_membership_check(points, square1=26, square2=5) -> Report:
    rep = Report("torus membership")
    bad = [
        p
        for p in points
        if p[0] * p[0] + p[1] * p[1] != square1 or p[2] * p[2] + p[3] * p[3] != square2
    ]
    rep.add(
        f"x1^2+x2^2={square1} and x3^2+x4^2={square2}",
        not bad,
        f"{len(points) - len(bad)}/{len(points)}",
    )
    return rep


def torus_plot_data(hull: Hull, graph, prefix: str):
    """Plot-data lines: one TORUS line per facet normal, EDGE lines from the
    dual graph (edges of the normal map)."""
    normals = facet_normals(hull)
    names = [f"{prefix}{'_'.join(str(int(c)) for c in n)}" for n in normals]
    lines = []
    for name, n in zip(names, normals):
        a1, a2 = torus_project(n)
        lines.append(f"TORUS {name} {a1:.6f} {a2:.6f}")
    for a, b in graph.edges:
        lines.append(f"EDGE {names[a]} {names[b]}")
    return lines


# ---------------------------------------------------------------------------
# vertex figures


def is_combinatorial_cube(points) -> bool:
    """Eight points whose hull has the face structure of a 3-cube."""
    if len(points) != 8 or affine_rank(points) != 3:
        return False
    hull = facet_enumeration(VPolytope(tuple(points)))
    inc = hull.incidence
    return (
        inc.n_facets == 6
        and all(m.bit_count() == 4 for m in inc.facet_masks)
        and all(m.bit_count() == 3 for m in inc.vertex_masks)
    )
