"""Convex-hull facet enumeration with exact incidence data, and the derived
combinatorics: dual and vertex graphs, simplicity tests, polar duality, faces
by linear functional.

The enumerator is an incremental beneath-beyond hull in exact integer
arithmetic.  Non-full-dimensional input is first mapped to rational chart
coordinates inside the affine hull, whose equality constraints are reported
separately.  The (charted) points are then scaled once to integers by the lcm
of their denominators, and everything inside the hull stays in `int`: facets
as primitive (coeffs, offset) vectors, slacks, ridge ranks, new hyperplanes
and the final self-verification pass (every point against every facet,
incidence, facet rank).  Points are inserted in input order after a starting
simplex is chosen greedily; degenerate insertions (point on existing facet
hyperplanes) extend those facets' incidence instead of creating duplicates.
Only at the end is each facet mapped back to a canonical inequality at the
input's scale.  Output facets are sorted by canonical coefficients, so every
run is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Optional

from .geometry import (
    DegenerateInput,
    DimensionMismatch,
    Inequality,
    affine_rank,
    check_same_dim,
    dot,
    hyperplane_through,
    canonical_hyperplane,
    integer_points,
    vsub,
)
from .graphs import Graph
from .linalg import echelon, matrix_rank, nullspace, solve_square
from .rationals import Rat, ZERO, format_rat


class DuplicatePoints(DegenerateInput):
    pass


class NotAVertex(ValueError):
    pass


@dataclass(frozen=True)
class VPolytope:
    """A polytope as an ordered list of points (tuples of rationals)."""

    vertices: tuple
    labels: Optional[tuple] = None

    def __post_init__(self):
        check_same_dim(self.vertices)
        if self.labels is not None and len(self.labels) != len(self.vertices):
            raise ValueError("labels/vertices length mismatch")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def index_of_label(self, label: str) -> int:
        if self.labels is None:
            return int(label)
        return self.labels.index(label)


@dataclass(frozen=True)
class HPolytope:
    """Irredundant facet inequalities plus the affine hull's equalities."""

    ambient_dim: int
    inequalities: tuple
    equalities: tuple = ()


class FacetIncidence:
    """Facet-by-vertex tightness, stored as one bitmask per facet."""

    def __init__(self, facet_masks, n_vertices: int):
        self.facet_masks = tuple(facet_masks)
        self.n_vertices = n_vertices
        self._vertex_masks = None

    @property
    def n_facets(self) -> int:
        return len(self.facet_masks)

    @property
    def vertex_masks(self):
        """One bitmask per vertex over facet indices (the transpose)."""
        if self._vertex_masks is None:
            masks = [0] * self.n_vertices
            for f, fm in enumerate(self.facet_masks):
                bit = 1 << f
                m = fm
                while m:
                    low = m & -m
                    masks[low.bit_length() - 1] |= bit
                    m ^= low
            self._vertex_masks = tuple(masks)
        return self._vertex_masks

    def vertices_of(self, f: int):
        return tuple(iter_bits(self.facet_masks[f]))

    def facets_of(self, v: int):
        return tuple(iter_bits(self.vertex_masks[v]))

    def matrix(self):
        return tuple(
            tuple(bool(self.facet_masks[f] >> v & 1) for v in range(self.n_vertices))
            for f in range(self.n_facets)
        )


class Hull(NamedTuple):
    hrep: HPolytope
    incidence: FacetIncidence
    dim: int


def bits(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_duplicates(points):
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide")
        seen[p] = i


def _affine_basis(points):
    """Greedy indices of an affinely independent spanning subset."""
    idx = [0]
    rows = []
    base = points[0]
    for i in range(1, len(points)):
        if len(rows) == len(base):
            break
        cand = rows + [vsub(points[i], base)]
        if matrix_rank(cand) == len(cand):
            rows = cand
            idx.append(i)
    return idx


class _Chart:
    """Exact coordinates inside the affine hull of a point set."""

    def __init__(self, points):
        self.basis = _affine_basis(points)
        self.base_point = points[self.basis[0]]
        self.dim = len(self.basis) - 1
        d = len(self.base_point)
        self.full = self.dim == d
        if self.full:
            return
        dirs = [vsub(points[i], self.base_point) for i in self.basis[1:]]
        # rows of D^T are the direction vectors; pivot columns pick coordinates
        # that already determine chart coordinates exactly.
        self.pivot_cols = echelon([list(v) for v in dirs])
        self.r_rows = [[dirs[j][c] for j in range(self.dim)] for c in self.pivot_cols]
        self.rt_rows = [[dirs[j][c] for c in self.pivot_cols] for j in range(self.dim)]
        self.equalities = tuple(
            sorted(
                (
                    canonical_hyperplane(Inequality(vec, dot(vec, self.base_point)))
                    for vec in nullspace(dirs)
                ),
                key=lambda e: e.key,
            )
        )

    def to_chart(self, p):
        if self.full:
            return p
        rhs = [p[c] - self.base_point[c] for c in self.pivot_cols]
        return tuple(solve_square(self.r_rows, rhs))

    def lift_ineq(self, ineq: Inequality) -> Inequality:
        if self.full:
            return ineq.canonical()
        y = solve_square(self.rt_rows, list(ineq.coeffs))
        coeffs = [ZERO] * len(self.base_point)
        for j, c in enumerate(self.pivot_cols):
            coeffs[c] = y[j]
        offset = ineq.offset + dot(coeffs, self.base_point)
        return Inequality(tuple(coeffs), offset).canonical()


class _Facet:
    """A facet in the integer scale of the hull: coeffs . x <= offset with
    primitive int entries, and the mask of its tight points."""

    __slots__ = ("coeffs", "offset", "mask")

    def __init__(self, ineq, mask):
        self.coeffs = ineq.coeffs
        self.offset = ineq.offset
        self.mask = mask


def _oriented(ineq: Inequality, inside, weight) -> Inequality:
    """`ineq` or its negation, whichever has `inside / weight` strictly on
    its feasible side."""
    s = ineq.offset * weight - dot(ineq.coeffs, inside)
    if s == 0:
        raise DegenerateInput("reference point on candidate facet hyperplane")
    return ineq if s > 0 else ineq.negated()


def _hull_full_dim(points, simplex):
    """Facets of the hull of full-dimensional integer points, as (primitive
    int Inequality, tight mask) pairs; `simplex` indexes an affine basis.

    Everything here is `int` arithmetic: slacks, ridge ranks, new
    hyperplanes and the verification pass."""
    n = len(points)
    k = len(simplex) - 1
    # the vertex sum of the starting simplex is k + 1 times an interior point
    inside = tuple(sum(points[i][j] for i in simplex) for j in range(k))

    facets = {}
    for drop in simplex:
        rest = [i for i in simplex if i != drop]
        h = _oriented(hyperplane_through([points[i] for i in rest]), inside, k + 1)
        facets[h.key] = _Facet(h, bits(rest))

    processed = list(simplex)
    in_simplex = set(simplex)
    for i in range(n):
        if i in in_simplex:
            continue
        p = points[i]
        above = []
        kept = {}
        for key, f in facets.items():
            s = f.offset - sum(map(mul, f.coeffs, p))
            if s < 0:
                above.append(f)
            else:
                if s == 0:
                    f.mask |= 1 << i
                kept[key] = f
        if above:
            new = {}
            for fa in above:
                amask = fa.mask
                for key, fk in kept.items():
                    common = amask & fk.mask
                    if common.bit_count() < k - 1:
                        continue
                    cpts = [points[j] for j in iter_bits(common)]
                    if k > 2 and affine_rank(cpts) != k - 2:
                        continue
                    h = _oriented(hyperplane_through(cpts + [p]), inside, k + 1)
                    hkey = h.key
                    if hkey in kept or hkey in new:
                        continue
                    c, off = h.coeffs, h.offset
                    mask = 1 << i
                    for j in processed:
                        if off == sum(map(mul, c, points[j])):
                            mask |= 1 << j
                    new[hkey] = _Facet(h, mask)
            kept.update(new)
            facets = kept
        processed.append(i)

    # full verification: every point inside every facet, every facet spans a
    # hyperplane of tight points
    for f in facets.values():
        c, off, fmask = f.coeffs, f.offset, f.mask
        for i, p in enumerate(points):
            s = off - sum(map(mul, c, p))
            if s < 0:
                raise DegenerateInput("hull verification failed: point outside facet")
            if (s == 0) != bool(fmask >> i & 1):
                raise DegenerateInput("hull verification failed: incidence mismatch")
        tight = [points[j] for j in iter_bits(fmask)]
        if len(tight) < k or affine_rank(tight) != k - 1:
            raise DegenerateInput("hull verification failed: facet rank")
    return [(Inequality(f.coeffs, f.offset), f.mask) for f in facets.values()]


def _unscaled(h: Inequality, scale) -> Inequality:
    """A facet of points scaled by `scale`, as one of the points themselves."""
    return h if scale == 1 else Inequality(h.coeffs, Rat(h.offset, scale))


def facet_enumeration(poly: VPolytope) -> Hull:
    """Complete irredundant facet list with exact incidence.

    Facets are canonical inequalities sorted lexicographically by
    coefficients; for non-full-dimensional input the affine hull's equality
    constraints are reported in `hrep.equalities` and facets cut within it.
    The charted points are scaled once to integers by the lcm of their
    denominators; the facets come back to the input's scale at the end.
    """
    pts = poly.vertices
    _check_duplicates(pts)
    chart = _Chart(pts)
    if chart.dim < 1:
        raise DegenerateInput("affine rank < 1: a single point has no facets")
    scaled, scale = integer_points([chart.to_chart(p) for p in pts])
    lifted = sorted(
        (
            (chart.lift_ineq(_unscaled(h, scale)), mask)
            for h, mask in _hull_full_dim(scaled, chart.basis)
        ),
        key=lambda t: t[0].key,
    )
    hrep = HPolytope(
        ambient_dim=poly.ambient_dim,
        inequalities=tuple(t[0] for t in lifted),
        equalities=() if chart.full else chart.equalities,
    )
    inc = FacetIncidence([t[1] for t in lifted], poly.n_vertices)
    return Hull(hrep, inc, chart.dim)


def facet_enumeration_bruteforce(poly: VPolytope) -> tuple:
    """Oracle enumerator: test every dim-subset spanning a hyperplane with all
    points on one side.  Exponential; intended for cross-checking small cases
    (dim <= 4, <= 12 points)."""
    from itertools import combinations

    pts = poly.vertices
    _check_duplicates(pts)
    d = affine_rank(pts)
    if d != poly.ambient_dim:
        raise DegenerateInput("oracle requires full-dimensional input")
    found = {}
    for subset in combinations(range(len(pts)), d):
        chosen = [pts[i] for i in subset]
        if affine_rank(chosen) != d - 1:
            continue
        h = hyperplane_through(chosen)
        signs = {(-1 if h.slack(p) < 0 else (1 if h.slack(p) > 0 else 0)) for p in pts}
        if -1 in signs and 1 in signs:
            continue
        if -1 in signs:
            h = h.negated().canonical()
        found[h.key] = h
    return tuple(found[k] for k in sorted(found))


def _tight_ranks(poly: VPolytope, hull: Hull):
    """Per input point: the rank of the equalities and the facet normals
    tight at it (the ambient dimension exactly for a vertex)."""
    eq_rows = [e.coeffs for e in hull.hrep.equalities]
    ineqs = hull.hrep.inequalities
    for vmask in hull.incidence.vertex_masks:
        yield matrix_rank(eq_rows + [ineqs[f].coeffs for f in iter_bits(vmask)])


def certify_vertices(poly: VPolytope, hull: Optional[Hull] = None) -> VPolytope:
    """Confirm every listed point is an extreme point; raises NotAVertex."""
    if hull is None:
        hull = facet_enumeration(poly)
    d = poly.ambient_dim
    for i, rank in enumerate(_tight_ranks(poly, hull)):
        if rank != d:
            raise NotAVertex(
                f"point {poly.label_of(i)} = ({', '.join(map(format_rat, poly.vertices[i]))}) "
                f"is not a vertex "
                f"(tight normals have rank {rank} < {d})"
            )
    return poly


def extreme_indices(poly: VPolytope, hull: Hull):
    """Indices of the points that are vertices of the hull."""
    d = poly.ambient_dim
    return tuple(i for i, rank in enumerate(_tight_ranks(poly, hull)) if rank == d)


def dual_graph(poly: VPolytope, hull: Hull) -> Graph:
    """Facets sharing a ridge: common tight points of affine rank dim - 2."""
    k = hull.dim
    inc = hull.incidence
    m = inc.n_facets
    pts, _ = integer_points(poly.vertices)
    edges = []
    masks = inc.facet_masks
    for a in range(m):
        ma = masks[a]
        for b in range(a + 1, m):
            common = ma & masks[b]
            if common.bit_count() < k - 1:
                continue
            if k == 2 or affine_rank([pts[i] for i in iter_bits(common)]) == k - 2:
                edges.append((a, b))
    return Graph(m, edges)


def vertex_graph(poly: VPolytope, hull: Hull) -> Graph:
    """Vertices joined by 1-faces; v, w adjacent iff the smallest face
    containing both is exactly {v, w}."""
    inc = hull.incidence
    n = poly.n_vertices
    vmasks = inc.vertex_masks
    fmasks = inc.facet_masks
    edges = []
    for a in range(n):
        va = vmasks[a]
        for b in range(a + 1, n):
            fm = va & vmasks[b]
            if fm == 0:
                # smallest common face is the whole polytope
                if n == 2:
                    edges.append((a, b))
                continue
            face = -1
            for f in iter_bits(fm):
                face &= fmasks[f]
            if face == (1 << a | 1 << b):
                edges.append((a, b))
    return Graph(n, edges)


def is_simple(poly: VPolytope, hull: Hull) -> bool:
    k = hull.dim
    return all(m.bit_count() == k for m in hull.incidence.vertex_masks)


def is_simplicial(poly: VPolytope, hull: Hull) -> bool:
    k = hull.dim
    return all(m.bit_count() == k for m in hull.incidence.facet_masks)


def centroid(points):
    n = Rat(len(points))
    d = len(points[0])
    return tuple(sum((p[j] for p in points), ZERO) / n for j in range(d))


def polar(poly: VPolytope, hull: Optional[Hull] = None) -> VPolytope:
    """Polar polytope after translating the vertex centroid to the origin.

    Vertices of the polar are facet normals scaled so normal . x = 1 on the
    facet; facets of the polar correspond to vertices of the input, with the
    transposed incidence.
    """
    c = centroid(poly.vertices)
    shifted = VPolytope(tuple(vsub(p, c) for p in poly.vertices), poly.labels)
    h = facet_enumeration(shifted) if hull is None else None
    if h is None:
        # caller passed the hull of the *unshifted* polytope; shift offsets
        ineqs = tuple(
            Inequality(q.coeffs, q.offset - dot(q.coeffs, c)).canonical()
            for q in hull.hrep.inequalities
        )
        if hull.hrep.equalities:
            raise DegenerateInput("polar requires a full-dimensional polytope")
        ineqs = tuple(sorted(ineqs, key=lambda q: q.key))
    else:
        if h.hrep.equalities:
            raise DegenerateInput("polar requires a full-dimensional polytope")
        ineqs = h.hrep.inequalities
    for q in ineqs:
        if q.offset <= 0:
            raise DegenerateInput("origin not interior after centroid shift")
    verts = tuple(tuple(Rat(a, q.offset) for a in q.coeffs) for q in ineqs)
    return VPolytope(verts)


class Face(NamedTuple):
    vertex_indices: tuple
    dim: int


def face_maximizing(poly: VPolytope, direction) -> Face:
    """The face on which `direction` attains its maximum over the polytope."""
    if all(c == 0 for c in direction):
        raise DegenerateInput("zero direction")
    values = [dot(direction, p) for p in poly.vertices]
    best = max(values)
    idx = tuple(i for i, v in enumerate(values) if v == best)
    return Face(idx, affine_rank([poly.vertices[i] for i in idx]))
