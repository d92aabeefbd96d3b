"""Normal cones, Minkowski sums with bi-dimension bookkeeping, the pair
d-step property, transversality, the interiority of two normal maps, cube
vertex figures, and flat-torus coordinates for plotting.  These are general
tools; the width-6 sections built from them live in `counterexample`.

All cone work is exact and polyhedral: a direction lies strictly inside the
normal cone of a vertex exactly when that vertex is the unique maximizer of
the direction over the polytope, so no spherical geometry is ever needed.
One routine, `polytopes.maximizers`, finds faces, on integer copies (faces
do not change under positive scaling); each distinct face of a summand is
ranked once, and an owner needs no rank.
The torus angles are floating point and feed the SVG plots only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .geometry import DegenerateInput, affine_rank, integer_points, vsub
from .linalg import primitive
from .polytopes import (
    Face,
    FacetIncidence,
    Hull,
    VPolytope,
    bits,
    dual_graph,
    extreme_indices,
    facet_enumeration,
    iter_bits,
    maximizers,
)
from .prismatoids import Prismatoid
from .report import Report


def facet_normals(hull: Hull):
    """Facet normals as integer points: the rows without their offsets."""
    return tuple(q[:-1] for q in hull.hrep.inequalities)


def normal_cone(hull: Hull, v: int) -> tuple:
    """Generators of the normal cone of vertex v: the normals of its facets."""
    normals = facet_normals(hull)
    return tuple(normals[f] for f in iter_bits(hull.incidence.vertex_masks[v]))


def interior_owner(poly: VPolytope, direction) -> Optional[int]:
    """The vertex whose normal cone strictly contains `direction`: the
    unique maximizer, if there is one."""
    idx = maximizers(poly.vertices, direction)
    return idx[0] if len(idx) == 1 else None


# ---------------------------------------------------------------------------
# Minkowski sums


@dataclass(frozen=True)
class MinkowskiFacet:
    """A facet of a sum with its unique decomposition into summand faces."""

    normal: tuple
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


def _edge_directions(pts):
    """Per integer point p of `pts`, the set of primitive directions q - p
    to the other points q: the same for every positive scaling."""
    return [{primitive(vsub(q, p)) for q in pts if q != p} for p in pts]


def minkowski_sum(a: VPolytope, b: VPolytope) -> MinkowskiSum:
    """Hull of the pairwise vertex sums that can be vertices, annotated
    facet by facet with the decomposition F = F+ + F- found by maximizing
    the facet normal."""
    if a.ambient_dim != b.ambient_dim:
        raise DegenerateInput("summands must share the ambient dimension")
    # a_i + b_j is no vertex when a_k - a_i is a positive multiple of
    # b_j - b_l: it lies inside the segment from a_i + b_l to a_k + b_j.
    # Such pairs never reach the hull.  No pair that sums to a vertex is
    # skipped, so the vertices and their provenance are unchanged.
    away = _edge_directions(integer_points(a.vertices))
    into = _edge_directions([tuple(-v for v in p) for p in integer_points(b.vertices)])
    sums = {}
    for i, p in enumerate(a.vertices):
        for j, q in enumerate(b.vertices):
            if away[i].isdisjoint(into[j]):
                s = tuple(p[t] + q[t] for t in range(len(p)))
                sums.setdefault(s, []).append((i, j))
    points = tuple(sums)
    raw = VPolytope(points)
    hull_all = facet_enumeration(raw)
    keep = extreme_indices(hull_all)
    old_to_new = {o: n for n, o in enumerate(keep)}
    poly = VPolytope(tuple(points[o] for o in keep))
    masks = tuple(
        bits(old_to_new[v] for v in iter_bits(m) if v in old_to_new)
        for m in hull_all.incidence.facet_masks
    )
    hull = Hull(hull_all.hrep, FacetIncidence(masks, poly.n_vertices), hull_all.dim)
    # faces and their dimensions do not change under scaling, so the normals
    # are maximized over integer copies of the summands; each distinct face
    # is ranked once
    summands = [integer_points(x.vertices) for x in (a, b)]
    faces = {}

    def face(side, normal):
        idx = maximizers(summands[side], normal)
        if (side, idx) not in faces:
            faces[side, idx] = Face(idx, affine_rank([summands[side][i] for i in idx]))
        return faces[side, idx]

    facets = tuple(MinkowskiFacet(n, face(0, n), face(1, n)) for n in facet_normals(hull))
    provenance = tuple(tuple(sums[points[o]]) for o in keep)
    return MinkowskiSum(poly, hull, facets, provenance)


# ---------------------------------------------------------------------------
# pair d-step property


def pair_dstep_property(qplus: VPolytope, qminus: VPolytope, d: int, ms: MinkowskiSum):
    """(has property, minimum facet-sequence length) for a pair of bases
    and their Minkowski sum `ms`.

    The sequence runs in the dual graph of the Minkowski sum from facets
    whose first decomposition component is a facet of Q+ to those whose
    second is a facet of Q-; the pair property asks for length <= d - 1.
    """
    dim_plus = affine_rank(qplus.vertices)
    dim_minus = affine_rank(qminus.vertices)
    start = [f for f, mf in enumerate(ms.facets) if mf.face_plus.dim == dim_plus - 1]
    end = {f for f, mf in enumerate(ms.facets) if mf.face_minus.dim == dim_minus - 1}
    if not start or not end:
        raise DegenerateInput("no facet has the required bi-dimension")
    dist = ms.graph.bfs_distances(*start)
    best = min((dist[f] for f in end if dist[f] >= 0), default=None)
    if best is None:
        raise DegenerateInput("no dual path between the base-adjacent facets")
    min_facets = best + 1
    return min_facets <= d - 1, min_facets


# ---------------------------------------------------------------------------
# transversality


def bi_dimensions(pr: Prismatoid) -> dict:
    """Non-base facet index -> (dim F ∩ Q+, dim F ∩ Q-), with -1 for an
    empty side."""
    inc = pr.hull.incidence
    # ranks do not change under positive scaling
    verts = integer_points(pr.polytope.vertices)
    base_masks = (inc.facet_masks[pr.base_plus], inc.facet_masks[pr.base_minus])
    table = {}
    for f, m in enumerate(inc.facet_masks):
        if f in (pr.base_plus, pr.base_minus):
            continue
        table[f] = tuple(
            affine_rank([verts[v] for v in iter_bits(m & b)]) if m & b else -1
            for b in base_masks
        )
    return table


def transversality_check(pr: Prismatoid, bidims: dict) -> Report:
    """Every non-base facet F satisfies
    dim(F ∩ Q+) + dim(F ∩ Q-) = dim F - 1, read from the `bi_dimensions`
    table `bidims`."""
    rep = Report("transversality")
    bad = [(f, dp, dm) for f, (dp, dm) in bidims.items() if dp + dm != pr.dim - 2]
    total = len(bidims)
    rep.add(
        "all non-base facets transversal",
        not bad,
        f"{total - len(bad)}/{total}" + (f" first bad {bad[0]}" if bad else ""),
    )
    return rep


# ---------------------------------------------------------------------------
# interiority of the two normal maps (the key step of the second width proof)


def normal_map_interiority_check(
    qplus: VPolytope, qminus: VPolytope, plus_orbit, minus_orbit
) -> Report:
    """Three containment statements between the two normal maps, read from
    the hulls `facet_enumeration` keeps on the bases.

    1. every facet normal of Q- lies strictly inside the normal cone of a
       Q+ vertex from `plus_orbit`;
    2. symmetrically for facet normals of Q+ and `minus_orbit`;
    3. for each facet normal v of Q+, with C the normal cone of the Q-
       vertex strictly containing v: no generator of C lands, under its own
       strict containment, in a normal cone whose owner lies on the Q+ facet
       with normal v.
    """
    rep = Report("normal map interiority")
    hull_plus, hull_minus = facet_enumeration(qplus), facet_enumeration(qminus)
    # the owners do not change under positive scaling
    qplus, qminus = (VPolytope(tuple(integer_points(q.vertices))) for q in (qplus, qminus))
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


def torus_membership_check(points) -> Report:
    rep = Report("torus membership")
    bad = [p for p in points if p[0] * p[0] + p[1] * p[1] != 26 or p[2] * p[2] + p[3] * p[3] != 5]
    rep.add(
        "x1^2+x2^2=26 and x3^2+x4^2=5",
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
