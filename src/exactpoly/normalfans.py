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

The candidate sums are all |A| |B| pairwise sums, formed in integers, the
summands scaled by one common denominator, and only the vertices become
rationals.  No pair is filtered out: a sum strictly inside the segment
between two others (a_k - a_i a positive multiple of b_j - b_l) is no
vertex, but dropping such sums changes no output and saves no time, since
no hull is built on the candidates; each costs only its digit in the
packed check against the rows derived from C.  A sum of lower dimension
takes the same path on the coordinates of its `polytopes.affine_chart`,
found from the |A| + |B| - 1 sums a_i + b_0 and a_0 + b_j, which span the
affine hull of all the sums (a chart depends on the affine hull alone);
its equality rows, found on the scaled sums, are rescaled to the sum.
The sum is checked once (`Chart.vertex_hull`): the vertex test reads the
derived incidence, one packed exact test meets every pairwise sum with
every derived row, so that incidence is exact, and the rank certificates
and the repeated-row test of `polytopes._verify` run on the vertices'
hull, which their polytope keeps.
The torus angles are floating point and feed the SVG plots only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import NamedTuple, Optional

from .geometry import DegenerateInput, affine_rank, integer_points
from .linalg import primitive
from .polytopes import (
    Chart,
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


class _Candidates(NamedTuple):
    """Every pairwise sum of two summands' vertices: `sums`, each as an
    integer point (the sum times `scale`) with its first (i, j) pair, `scale`,
    the lcm of the summands' denominators, and the `Chart` of the sums'
    affine hull."""

    sums: dict
    scale: int
    chart: Chart


def _candidates(a: VPolytope, b: VPolytope) -> _Candidates:
    """The candidate sums of `a` and `b`, formed in integers; only the
    sum's vertices ever become rationals.  Every pair is a candidate; see
    the module docstring for why no pair is skipped."""
    if a.ambient_dim != b.ambient_dim:
        raise DegenerateInput("summands must share the ambient dimension")
    ints, scale = integer_points(a.vertices + b.vertices)
    ints_a, ints_b = ints[: a.n_vertices], ints[a.n_vertices :]
    sums = {}
    for i, p in enumerate(ints_a):
        for j, q in enumerate(ints_b):
            sums.setdefault(tuple(map(add, p, q)), (i, j))
    # a `Chart` depends on the affine hull alone, which the sums a_i + b_0
    # and a_0 + b_j span: |a| + |b| - 1 points, some maybe equal
    span = [tuple(map(add, p, ints_b[0])) for p in ints_a]
    span += [tuple(map(add, ints_a[0], q)) for q in ints_b[1:]]
    chart = affine_chart(tuple(dict.fromkeys(span)))[2]
    # a . s = c on the scaled sums s is (scale a) . (s / scale) = c on the
    # sums; a positive factor keeps each row's sign
    equalities = sorted(primitive(tuple(scale * v for v in r[:-1]) + r[-1:]) for r in chart.equalities)
    return _Candidates(sums, scale, chart._replace(equalities=tuple(equalities)))


def _cayley_points(a: VPolytope, b: VPolytope, chart: Chart) -> tuple:
    """The points of the summands' Cayley polytope on the chart: those of
    `a` at height 1, then those of `b` at height -1."""
    return tuple(chart.project(p) + (1,) for p in a.vertices) + tuple(
        chart.project(q) + (-1,) for q in b.vertices
    )


def _derived_rows(cand: _Candidates, n: int, cayley: Hull) -> list:
    """Per facet of `cayley` but its two bases, sorted: the sum's row
    alpha . x <= 2 beta on the chart, the mask of the candidate sums it
    holds tightly, and the facet's mask of C, whose first `n` bits are the
    summand `a`'s points; see the module docstring."""
    sums, k = cand.sums, len(cand.chart.cols)
    # per summand vertex, the candidate sums whose kept pair holds it: a
    # sum is tight on a row iff the summands of any pair forming it are
    on_a, on_b = [0] * n, [0] * (cayley.incidence.n_vertices - n)
    for c, (i, j) in enumerate(sums.values()):
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
    return derived


def _sum_from_cayley(cand: _Candidates, n: int, cayley: VPolytope) -> MinkowskiSum:
    """The sum of the summands a and b of `cand`, read off the verified
    hull `facet_enumeration` keeps on `cayley`, whose points are
    `_cayley_points(a, b, cand.chart)`, the `n` points of a first; see the
    module docstring."""
    sums, scale, chart = cand
    points = tuple(sums)
    derived = _derived_rows(cand, n, facet_enumeration(cayley))
    pairs = [(h, m) for h, m, _ in derived]
    # the homogeneous vector of the sum s / scale on the chart, up to a
    # positive factor, which the verification does not see
    vectors = [(*(-s[c] for c in chart.cols), scale) for s in points]
    keep, hull = chart.vertex_hull(vectors, pairs)
    poly = VPolytope(tuple(tuple(Rat(v, scale) for v in points[o]) for o in keep))
    keep_hull(poly, hull)
    # `derived` is sorted as the hull's rows are; F+ and F- are the halves
    # of a facet's mask of C, ranked on C's points, where a's stand first:
    # ranks kept on `cayley` are shared
    rank, low = cayley.face_rank, (1 << n) - 1
    return MinkowskiSum(poly, tuple((rank(m & low), rank(m >> n << n)) for _, _, m in derived))


def minkowski_sum(a: VPolytope, b: VPolytope) -> MinkowskiSum:
    """Hull of the pairwise vertex sums, derived from the hull of the
    summands' Cayley polytope, with each facet's bi-dimension; see the
    module docstring."""
    cand = _candidates(a, b)
    return _sum_from_cayley(cand, a.n_vertices, VPolytope(_cayley_points(a, b, cand.chart)))


def minkowski_sum_from_cayley(a: VPolytope, b: VPolytope, cayley: VPolytope) -> MinkowskiSum:
    """`minkowski_sum(a, b)`, read off the hull `facet_enumeration` keeps
    on `cayley`, the Cayley polytope of `a` and `b`: its points must be
    those of `a` on the chart of the sum's affine hull at height 1, then
    those of `b` at height -1, in order.  Raises DegenerateInput when they
    are not, so no other polytope's hull is read as a sum."""
    cand = _candidates(a, b)
    if cayley.vertices != _cayley_points(a, b, cand.chart):
        raise DegenerateInput("not the Cayley polytope of the summands")
    return _sum_from_cayley(cand, a.n_vertices, cayley)


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
