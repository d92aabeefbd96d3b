"""Normal cones, Minkowski sums with their facets' bi-dimensions, the pair
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
the sums of F+ and F-, with bi-dimension (dim F+, dim F-).  One
derivation, `_sum_from_cayley`, turns a verified hull of C into the sum,
and has two callers.  `minkowski_sum` builds C: one double-description
build of |A| + |B| points one dimension up, not one of the |A| |B|
pairwise sums.  `minkowski_sum_from_cayley` reads the hull a polytope
already keeps, after checking by value that its points are those of C, in
order: the paper's prismatoid puts its bases at x5 = 1 and x5 = -1, so it
is C of its bases, and full verification reads the sum off the
prismatoid's own hull.
Each distinct face of C is ranked once: `VPolytope.face_rank` keeps the
ranks on the Cayley polytope, so `bi_dimensions` of the prismatoid and the
sum's bi-dimensions (the two halves of each facet's mask of C) share them.

The sum's vertices are read off C's vertex graph, which the verified hull
keeps: the slice of C at height 0 meets no vertex of C, so its vertices
are where C's edges cross it, the midpoints of the *mixed edges*
(i, n + j) from a_i at height 1 to b_j at height -1.  Two edges meet at
most in a vertex of C, so distinct edges give distinct vertices, each the
sum of one pair (i, j), listed in (i, j) order; a point of a summand that
is no vertex of C lies on no edge.  The vertex a_i + b_j lies on a derived
facet iff both ends of its edge lie in that facet of C.  Every pairwise
sum, vertex or not, lies inside every derived row with no test: C's row
(alpha, c, beta) at a_i x {1} plus the same row at b_j x {-1} is
alpha . (a_i + b_j) <= 2 beta, so the verified rows of C bound all |A| |B|
sums, and only the vertices are listed.  They are formed in integers, the
summands scaled by one common denominator, and then become rationals.
A sum of lower dimension takes the same path on the coordinates of its
`polytopes.affine_chart`, found from the |A| + |B| - 1 sums a_i + b_0 and
a_0 + b_j, which span the affine hull of all the sums (a chart depends on
the affine hull alone); its equality rows, found on the scaled sums, are
rescaled to the sum.
The sum is checked once (`Chart.vertex_hull`): one `polytopes._verify`
meets every listed vertex with every derived row in one packed exact test
and runs the rank certificates and the repeated-row test on them, and the
vertex test then reads that exact incidence, so a listed sum that is no
vertex is refused.
The torus angles are floating point and feed the SVG plots only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Optional

from .geometry import DegenerateInput, affine_rank, integer_points
from .linalg import primitive
from .polytopes import (
    Chart,
    FacetIncidence,
    Hull,
    VPolytope,
    affine_chart,
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
class MinkowskiSum:
    """A sum's `polytope`, which keeps its verified hull, and `bidims`,
    per facet of that hull in order, its bi-dimension (dim F+, dim F-): the
    dimensions of the faces of the two summands whose sum it is."""

    polytope: VPolytope
    bidims: tuple

    @property
    def hull(self) -> Hull:
        """The hull `minkowski_sum` verified and kept on the polytope."""
        return facet_enumeration(self.polytope)


def _sum_chart(a: VPolytope, b: VPolytope) -> tuple:
    """(ints, scale, chart): the points of `a`, then those of `b`, as
    integer points, scaled by `scale`, the lcm of their denominators, and
    the `Chart` of the affine hull of the pairwise sums, with its equality
    rows rescaled from the scaled sums to the sums."""
    if a.ambient_dim != b.ambient_dim:
        raise DegenerateInput("summands must share the ambient dimension")
    ints, scale = integer_points(a.vertices + b.vertices)
    ints_a, ints_b = ints[: a.n_vertices], ints[a.n_vertices :]
    # a `Chart` depends on the affine hull alone, which the sums a_i + b_0
    # and a_0 + b_j span: |a| + |b| - 1 points, some maybe equal
    span = [tuple(map(add, p, ints_b[0])) for p in ints_a]
    span += [tuple(map(add, ints_a[0], q)) for q in ints_b[1:]]
    chart = affine_chart(tuple(dict.fromkeys(span)))[1]
    # a . s = c on the scaled sums s is (scale a) . (s / scale) = c on the
    # sums; a positive factor keeps each row's sign
    equalities = sorted(primitive(tuple(scale * v for v in r[:-1]) + r[-1:]) for r in chart.equalities)
    return ints, scale, chart._replace(equalities=tuple(equalities))


def _cayley_points(a: VPolytope, b: VPolytope, chart: Chart) -> tuple:
    """The points of the summands' Cayley polytope on the chart: those of
    `a` at height 1, then those of `b` at height -1."""
    return tuple(chart.project(p) + (1,) for p in a.vertices) + tuple(
        chart.project(q) + (-1,) for q in b.vertices
    )


def _sum_from_cayley(ints, scale, chart: Chart, n: int, cayley: VPolytope) -> MinkowskiSum:
    """The sum of the summands a and b of `_sum_chart`'s (ints, scale,
    chart), read off the verified hull `facet_enumeration` keeps on
    `cayley`, whose points are `_cayley_points(a, b, chart)`, the `n`
    points of a first; see the module docstring."""
    hull = facet_enumeration(cayley)
    k = len(chart.cols)
    # the mixed edges (i, n + j), in (i, j) order, are the sum's vertices
    edges = [(i, v) for i, v in hull.vertex_graph.edges if i < n <= v]
    inc = hull.incidence
    vm = inc.vertex_masks
    # per facet of C, the mask of the edges with both ends on it: the
    # transpose of each edge's mask of the facets through both its ends
    tight = FacetIncidence(tuple(vm[i] & vm[v] for i, v in edges), inc.n_facets).vertex_masks
    derived = sorted(
        (primitive(row[:k] + (2 * row[-1],)), t, mask)
        for row, mask, t in zip(hull.hrep.inequalities, inc.facet_masks, tight)
        if any(row[:k])  # the bases have a zero x-part
    )
    points = [tuple(map(add, ints[i], ints[v])) for i, v in edges]
    # the homogeneous vector of the sum s / scale on the chart, up to a
    # positive factor, which the verification does not see
    vectors = [(*(-s[c] for c in chart.cols), scale) for s in points]
    poly = VPolytope(tuple(tuple(Rat(v, scale) for v in s) for s in points))
    keep_hull(poly, chart.vertex_hull(vectors, [(h, m) for h, m, _ in derived]))
    # `derived` is sorted as the hull's rows are; F+ and F- are the halves
    # of a facet's mask of C, ranked on C's points, where a's stand first:
    # ranks kept on `cayley` are shared
    rank, low = cayley.face_rank, (1 << n) - 1
    return MinkowskiSum(poly, tuple((rank(m & low), rank(m >> n << n)) for _, _, m in derived))


def minkowski_sum(a: VPolytope, b: VPolytope) -> MinkowskiSum:
    """Hull of the pairwise vertex sums, derived from the hull of the
    summands' Cayley polytope, with each facet's bi-dimension; see the
    module docstring."""
    ints, scale, chart = _sum_chart(a, b)
    return _sum_from_cayley(ints, scale, chart, a.n_vertices, VPolytope(_cayley_points(a, b, chart)))


def minkowski_sum_from_cayley(a: VPolytope, b: VPolytope, cayley: VPolytope) -> MinkowskiSum:
    """`minkowski_sum(a, b)`, read off the hull `facet_enumeration` keeps
    on `cayley`, the Cayley polytope of `a` and `b`: its points must be
    those of `a` on the chart of the sum's affine hull at height 1, then
    those of `b` at height -1, in order.  Raises DegenerateInput when they
    are not, so no other polytope's hull is read as a sum."""
    ints, scale, chart = _sum_chart(a, b)
    if cayley.vertices != _cayley_points(a, b, chart):
        raise DegenerateInput("not the Cayley polytope of the summands")
    return _sum_from_cayley(ints, scale, chart, a.n_vertices, cayley)


# ---------------------------------------------------------------------------
# pair d-step property


def pair_dstep_property(qplus: VPolytope, qminus: VPolytope, d: int, ms: MinkowskiSum):
    """(has property, minimum facet-sequence length) for a pair of bases
    and their Minkowski sum `ms`.

    The sequence runs in the dual graph of the Minkowski sum from facets
    whose face F+ is a facet of Q+ to those whose F- is a facet of Q-, read
    from their bi-dimensions; the pair property asks for length <= d - 1.
    """
    dim_plus = affine_rank(qplus.vertices)
    dim_minus = affine_rank(qminus.vertices)
    start = [f for f, (dp, _) in enumerate(ms.bidims) if dp == dim_plus - 1]
    end = {f for f, (_, dm) in enumerate(ms.bidims) if dm == dim_minus - 1}
    if not start or not end:
        raise DegenerateInput("no facet has the required bi-dimension")
    dist = ms.hull.dual_graph.bfs_distances(*start)
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
    rank = pr.polytope.face_rank
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


def torus_plot_data(hull: Hull, prefix: str):
    """Plot-data lines: one TORUS line per facet normal, EDGE lines from the
    dual graph `hull` keeps (edges of the normal map)."""
    normals = facet_normals(hull)
    names = [f"{prefix}{'_'.join(str(int(c)) for c in n)}" for n in normals]
    lines = []
    for name, n in zip(names, normals):
        a1, a2 = torus_project(n)
        lines.append(f"TORUS {name} {a1:.6f} {a2:.6f}")
    for a, b in hull.dual_graph.edges:
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
