"""Normal cones, Minkowski sums with bi-dimension bookkeeping, the pair
d-step property, transversality, the interiority of two normal maps, cube
vertex figures, and flat-torus coordinates for plotting.  These are general
tools; the width-6 sections built from them live in `counterexample`.

All cone work is exact and polyhedral: a direction lies strictly inside the
normal cone of a vertex exactly when that vertex is the unique maximizer of
the direction over the polytope, so no spherical geometry is ever needed.
One routine, `polytopes.maximizers`, finds an owner.

A Minkowski sum A + B is read off its summands' Cayley polytope
C = conv(A x {1} u B x {-1}), whose slice at height 0 is (A + B)/2 (the
"Cayley trick" of Huber, Rambau & Santos 2000).  Every facet of C but the
two bases (the rows with a zero x-part) meets both ends, so a row
(alpha, c, beta) of C, tight on the face F+ of A at height 1 and on F- of
B at height -1, is the sum's facet alpha . x <= 2 beta, tight exactly at
the sums of F+ and F-.  One derivation, `_sum_from_cayley`, turns a
verified hull of C into the sum, and has two callers.  `minkowski_sum`
builds C: one double-description build of |A| + |B| points one dimension
up, not one of the |A| |B| pairwise sums.  `minkowski_sum_from_cayley`
reads the hull a polytope already keeps, after checking by value that its
points are those of C, in order: the paper's prismatoid puts its bases at
x5 = 1 and x5 = -1, so it is C of its bases, and full verification reads
the sum off the prismatoid's own hull.  Each facet's decomposition is the
two halves of its mask of C, and each distinct face is ranked once, on
integer copies (faces do not change under positive scaling).  The
candidate sums are all |A| |B| pairwise sums, formed in integers, the
summands scaled by one common denominator, and only the vertices become
rationals.  No pair is filtered out: a sum strictly inside the segment
between two others (a_k - a_i a positive multiple of b_j - b_l) is no
vertex, but dropping such sums changes no output and saves no time, since
no hull is built on the candidates; each costs only its digit in the
packed verification against the rows derived from C.  A sum of lower
dimension takes the same path on the coordinates of its
`polytopes.affine_chart`, whose equality rows, found on the scaled sums,
are rescaled to the sum.  The derived rows pass the full
`polytopes._verify` against every pairwise sum, and again against the
vertices, whose polytope keeps the hull.
The torus angles are floating point and feed the SVG plots only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from operator import add
from typing import NamedTuple, Optional

from .geometry import DegenerateInput, affine_rank, integer_points
from .linalg import primitive
from .polytopes import (
    Chart,
    Face,
    Hull,
    VPolytope,
    affine_chart,
    bits,
    dual_graph,
    extreme_indices,
    facet_enumeration,
    iter_bits,
    keep_hull,
    maximizers,
)
from .prismatoids import Prismatoid
from .rationals import Rat
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
    facets: tuple
    provenance: tuple  # per sum vertex: tuple of (i, j) summand index pairs

    @property
    def hull(self) -> Hull:
        """The hull `minkowski_sum` verified and kept on the polytope."""
        return facet_enumeration(self.polytope)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def graph(self):
        """Dual graph of the sum, built on first use."""
        return dual_graph(self.polytope, self.hull)


class _Candidates(NamedTuple):
    """Every pairwise sum of two summands' vertices: `sums`, each as an
    integer point (the sum times `scale`) with its (i, j) pairs,
    `scale`, the lcm of the summands' denominators, the summands as integer
    points at that scale, and the `Chart` of the sums' affine hull."""

    sums: dict
    scale: int
    summands: tuple
    chart: Chart


def _candidates(a: VPolytope, b: VPolytope) -> _Candidates:
    """The candidate sums of `a` and `b`, formed in integers; only the
    sum's vertices ever become rationals.  Every pair is a candidate; see
    the module docstring for why no pair is skipped."""
    if a.ambient_dim != b.ambient_dim:
        raise DegenerateInput("summands must share the ambient dimension")
    ints, scale = integer_points(a.vertices + b.vertices)
    summands = (ints[: a.n_vertices], ints[a.n_vertices :])
    sums = {}
    for i, p in enumerate(summands[0]):
        for j, q in enumerate(summands[1]):
            sums.setdefault(tuple(map(add, p, q)), []).append((i, j))
    chart = affine_chart(tuple(sums))[2]
    # a . s = c on the scaled sums s is (scale a) . (s / scale) = c on the
    # sums; a positive factor keeps each row's sign
    equalities = sorted(primitive(tuple(scale * v for v in r[:-1]) + r[-1:]) for r in chart.equalities)
    return _Candidates(sums, scale, summands, chart._replace(equalities=tuple(equalities)))


def _cayley_points(a: VPolytope, b: VPolytope, chart: Chart) -> tuple:
    """The points of the summands' Cayley polytope on the chart: those of
    `a` at height 1, then those of `b` at height -1."""
    return tuple(chart.project(p) + (1,) for p in a.vertices) + tuple(
        chart.project(q) + (-1,) for q in b.vertices
    )


def _face_ranks(points):
    """Face mask -> affine rank of the `points` in it, each distinct face
    ranked once: facets share their faces.  Ranks do not change under
    positive scaling, so `points` may be integer copies."""

    @cache
    def rank(mask):
        return affine_rank([points[i] for i in iter_bits(mask)])

    return rank


def _sum_from_cayley(a: VPolytope, b: VPolytope, cand: _Candidates, cayley: Hull) -> MinkowskiSum:
    """The sum of `a` and `b`, read off `cayley`, the verified hull of
    `_cayley_points(a, b, cand.chart)`; see the module docstring."""
    sums, scale, summands, chart = cand
    points = tuple(sums)
    k, n = len(chart.cols), a.n_vertices
    # the homogeneous vector of the sum s / scale on the chart, up to a
    # positive factor, which the verification does not see
    vectors = [(*(-s[c] for c in chart.cols), scale) for s in points]
    # per summand vertex, the candidate sums whose first pair holds it: a
    # sum is tight on a row iff the summands of any one of its pairs are
    on_a, on_b = [0] * n, [0] * b.n_vertices
    for c, ((i, j), *_) in enumerate(sums.values()):
        on_a[i] |= 1 << c
        on_b[j] |= 1 << c
    derived = []
    for row, mask in zip(cayley.hrep.inequalities, cayley.incidence.facet_masks):
        if any(row[:k]):  # the bases have a zero x-part
            tight_a = tight_b = 0
            for i in iter_bits(mask & (1 << n) - 1):
                tight_a |= on_a[i]
            for j in iter_bits(mask >> n):
                tight_b |= on_b[j]
            derived.append((primitive(row[:k] + (2 * row[-1],)), tight_a & tight_b, mask))
    derived.sort()
    pairs = [(h, m) for h, m, _ in derived]
    hull_all = chart.hull(vectors, pairs)
    keep = extreme_indices(hull_all)
    old_to_new = {o: new for new, o in enumerate(keep)}
    poly = VPolytope(tuple(tuple(Rat(v, scale) for v in points[o]) for o in keep))
    keep_hull(
        poly,
        chart.hull(
            [vectors[o] for o in keep],
            [(h, bits(old_to_new[v] for v in iter_bits(m) if v in old_to_new)) for h, m in pairs],
        ),
    )
    ranks = [_face_ranks(points) for points in summands]

    def face(side, mask):
        return Face(tuple(iter_bits(mask)), ranks[side](mask))

    facets = tuple(
        MinkowskiFacet(normal, face(0, mask & (1 << n) - 1), face(1, mask >> n))
        for normal, (_, _, mask) in zip(facet_normals(hull_all), derived)
    )
    provenance = tuple(tuple(sums[points[o]]) for o in keep)
    return MinkowskiSum(poly, facets, provenance)


def minkowski_sum(a: VPolytope, b: VPolytope) -> MinkowskiSum:
    """Hull of the pairwise vertex sums, derived from the hull of the
    summands' Cayley polytope and annotated facet by facet with the
    decomposition F = F+ + F-; see the module docstring."""
    cand = _candidates(a, b)
    cayley = VPolytope(_cayley_points(a, b, cand.chart))
    return _sum_from_cayley(a, b, cand, facet_enumeration(cayley))


def minkowski_sum_from_cayley(a: VPolytope, b: VPolytope, cayley: VPolytope) -> MinkowskiSum:
    """`minkowski_sum(a, b)`, read off the hull `facet_enumeration` keeps
    on `cayley`, the Cayley polytope of `a` and `b`: its points must be
    those of `a` on the chart of the sum's affine hull at height 1, then
    those of `b` at height -1, in order.  Raises DegenerateInput when they
    are not, so no other polytope's hull is read as a sum."""
    cand = _candidates(a, b)
    if cayley.vertices != _cayley_points(a, b, cand.chart):
        raise DegenerateInput("not the Cayley polytope of the summands")
    return _sum_from_cayley(a, b, cand, facet_enumeration(cayley))


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
    """Non-base facet index -> (dim F ∩ Q+, dim F ∩ Q-); a non-base facet
    of a prismatoid meets both bases."""
    inc = pr.hull.incidence
    rank = _face_ranks(integer_points(pr.polytope.vertices)[0])
    base_masks = (inc.facet_masks[pr.base_plus], inc.facet_masks[pr.base_minus])
    return {
        f: tuple(rank(m & b) for b in base_masks)
        for f, m in enumerate(inc.facet_masks)
        if f not in (pr.base_plus, pr.base_minus)
    }


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
    qplus, qminus = (VPolytope(tuple(integer_points(q.vertices)[0])) for q in (qplus, qminus))
    normals_p = facet_normals(hull_plus)
    normals_m = facet_normals(hull_minus)
    # the owner of each facet normal of one base in the other; None, no
    # owner, lies in no orbit
    owners_of_minus = [interior_owner(qplus, w) for w in normals_m]
    ok1 = set(owners_of_minus) <= set(plus_orbit)
    rep.add("facet normals of Q- interior to orbit cones of Q+", ok1, f"{len(normals_m)} normals")
    owners_of_plus = [interior_owner(qminus, v) for v in normals_p]
    ok2 = set(owners_of_plus) <= set(minus_orbit)
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
