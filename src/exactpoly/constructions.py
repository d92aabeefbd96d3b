"""Polytope-building operations.

One-point suspensions, vertex pushing with validate-and-halve, the strong
d-step inductive step and its bounded iteration, products,
combinatorial blending, and Hirsch-excess arithmetic.  Every randomized
operation takes an explicit seed and is deterministic given (inputs, seed).

A perturbation search builds the hull of its fixed points once and
extends it by one moved point per candidate (`HullBuilder.extend`).  The
fixed rows pass `_verify` before any candidate is counted, so a moved point
that sees none of them lies in the hull of the fixed points: it is counted
"not a vertex" with no hull built, verified or certified, and the search
makes the same draws, in the same order, with the same counts, as if it
had built one.
Points move in integers: a step is the vector (-e, D) of the displacement
e / D, added to the moved vertex's vector by `geometry.plus`, and each
halving doubles D, so no search forms a rational.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .geometry import DegenerateInput, dot, integer_points, lift, plus
from .graphs import Graph
from .linalg import nullspace, primitive
from .polytopes import (
    DuplicatePoints,
    HullBuilder,
    NotAVertex,
    VPolytope,
    bits,
    certify_vertices,
    facet_enumeration,
    iter_bits,
    keep_hull,
)
from .prismatoids import NotAPrismatoid, Prismatoid, make_prismatoid, width
from .rationals import Rat

# the most halvings of one step: `push_vertex`'s, and `strong_dstep_step`'s
# per push and per apex direction
MAX_HALVINGS = 64
STEP_HALVINGS = 16

# step directions `strong_dstep_step` draws for each apex
APEX_REDRAWS = 4

# the checks a pushed vertex must pass in `push_vertex`, in order
PUSH_REJECTION_CAUSES = ("not a vertex", "facet merge violated", "not generic")

# the checks a moved apex must pass in `strong_dstep_step`, in order
REJECTION_CAUSES = (
    "not a vertex", "base facet missing", "not a prismatoid", "width not increased"
)


class ConstructionFailed(RuntimeError):
    pass


class PushFailed(ConstructionFailed):
    pass


class VacuousFamily(ValueError):
    """The seed meets the Hirsch bound, so the family bound says nothing."""


# ---------------------------------------------------------------------------
# one-point suspension


def one_point_suspension(poly: VPolytope, v: int) -> VPolytope:
    """Replace vertex v by two new vertices u = (v, 1) and w = (v, -1) one
    dimension up, embedding the polytope at last coordinate 0
    (`geometry.lift`).

    Index layout: old vertex i != v becomes vertex i - (i > v), and u and w
    are the last two vertices.
    """
    if not 0 <= v < poly.n_vertices:
        raise ValueError(f"vertex index {v} out of range")
    rest = [i for i in range(poly.n_vertices) if i != v]
    q = poly.vectors[v]
    verts = [lift(poly.vectors[i], 0) for i in rest] + [lift(q, 1), lift(q, -1)]
    labels = None
    if poly.labels:
        lbl = poly.labels[v]
        labels = tuple(poly.labels[i] for i in rest) + (f"u({lbl})", f"w({lbl})")
    return VPolytope(tuple(verts), labels)


# ---------------------------------------------------------------------------
# pushing


def _relative_interior_point(poly: VPolytope, region, rng):
    """The `homogeneous` vector of a random strictly positive combination
    of the region's vertices, summed in integers: the vertices scaled by the
    lcm L of their denominators, the sum over L times the total weight."""
    weights = [rng.randrange(1, 64) for _ in region]
    ints, scale = integer_points([poly.vectors[i] for i in region])
    sums = [-sum(map(mul, weights, column)) for column in zip(*ints)]
    return primitive((*sums, sum(weights) * scale))


def _facet_merge_ok(old_hull, new_hull) -> bool:
    """Each facet of the pushed polytope fits inside exactly one old facet
    (after mapping the moved vertex back to its original position)."""
    vmasks = old_hull.incidence.vertex_masks
    for mask in new_hull.incidence.facet_masks:
        # indices coincide: the moved vertex keeps its slot
        candidates = -1
        for j in iter_bits(mask):
            candidates &= vmasks[j]
        if candidates.bit_count() != 1:
            return False
    return True


def _exhausted(rejected) -> str:
    """The message of a failed search: its candidates, counted by cause of rejection."""
    counts = ", ".join(f"{cause} {n}" for cause, n in rejected.items())
    return f"perturbation search exhausted after {sum(rejected.values())} candidates: {counts}"


def push_vertex(poly: VPolytope, v: int, seed: int) -> VPolytope:
    """Move vertex v toward a seeded random interior point of the polytope,
    halving the step up to MAX_HALVINGS times until every facet of the
    result fits inside exactly one facet of `poly`.

    Raises NotAVertex when a point of `poly` is not a vertex, and PushFailed
    when no step length passes.
    """
    if not 0 <= v < poly.n_vertices:
        raise ValueError(f"vertex index {v} out of range")
    fixed = _fixed_builder(poly, v)
    # v sees no facet of the others' hull only when it is no vertex; then
    # poly's own hull names the first point that is none
    start = certify_vertices(_moved(poly, v, poly.vectors[v], fixed) or poly)
    return _push(start, v, fixed, range(poly.n_vertices), seed, None, MAX_HALVINGS)


def _fixed_builder(poly: VPolytope, v: int) -> Optional[HullBuilder]:
    """The hull builder of the vectors of every vertex but v, or None when
    those vertices are not full-dimensional."""
    vectors = list(poly.vectors)
    vectors[v] = None
    try:
        return HullBuilder(vectors)
    except DegenerateInput:
        return None


def _moved(poly: VPolytope, v: int, q, fixed: Optional[HullBuilder]) -> Optional[VPolytope]:
    """Poly with vertex v at the point of the `homogeneous` vector q,
    keeping its verified hull: `fixed` extended by q in slot v, or a facet
    enumeration when there is no builder.  None, with no hull built, when
    the point sees no facet of `fixed`: it then lies in the hull of the
    fixed points, so it is no vertex.  Moved to its own position, a vertex
    v gives a copy of poly with the same points and labels whose hull is
    kept."""
    hull = None if fixed is None else fixed.extend(v, q)
    if fixed is not None and hull is None:
        return None
    new_poly = VPolytope(poly.vectors[:v] + (q,) + poly.vectors[v + 1:], poly.labels)
    if hull is None:
        facet_enumeration(new_poly)
    else:
        keep_hull(new_poly, hull)
    return new_poly


def _halvings(poly, v, fixed, step, max_halvings, rejected):
    """Move vertex v by e/D, e/2D, ..., e/(2^max_halvings D) for the step
    vector (-e, D), D > 0; yield each candidate polytope, which keeps its
    verified hull, at which the moved point is a vertex, and count every
    other one (a coincident point included) under rejected["not a vertex"].

    Each candidate extends `fixed`, whose rows pass `_verify` at its first
    `extend`, so a candidate whose point sees none of them lies in the hull
    of the fixed points: it is counted with no hull built, and a builder
    that fails raises before any count."""
    q = poly.vectors[v]
    for _ in range(max_halvings + 1):
        try:
            new_poly = _moved(poly, v, plus(q, step), fixed)
            if new_poly is not None:
                certify_vertices(new_poly)
        except (NotAVertex, DuplicatePoints):
            new_poly = None
        if new_poly is None:
            rejected["not a vertex"] += 1
        else:
            yield new_poly
        step = step[:-1] + (2 * step[-1],)


def _push(poly, v, fixed, region, seed, genericity, max_halvings):
    """The push of vertex v of `poly`, which keeps its verified hull, over
    the builder `fixed` of every vertex but v: the target is a seeded
    random point of the relative interior of the face whose vertex indices
    are `region`, and a candidate must also pass the predicate
    genericity(new_poly, v) unless that is None."""
    target = _relative_interior_point(poly, region, random.Random(seed))
    *x, w = poly.vectors[v]
    rejected = dict.fromkeys(PUSH_REJECTION_CAUSES, 0)
    # the step target - vertex: the sum of the target and minus the vertex
    step = plus(target, (*(-a for a in x), w))
    old_hull = facet_enumeration(poly)
    for new_poly in _halvings(poly, v, fixed, step, max_halvings, rejected):
        if not _facet_merge_ok(old_hull, facet_enumeration(new_poly)):
            rejected["facet merge violated"] += 1
        elif genericity is not None and not genericity(new_poly, v):
            rejected["not generic"] += 1
        else:
            return new_poly
    raise PushFailed(f"push of vertex {v}: {_exhausted(rejected)}")


# ---------------------------------------------------------------------------
# strong d-step


@dataclass(frozen=True)
class StepRecord:
    dim: int
    n_vertices: int
    n_facets: int
    width: int

    def line(self, i: int) -> str:
        return (
            f"STEP {i} dim={self.dim} vertices={self.n_vertices} "
            f"facets={self.n_facets} width={self.width}"
        )


def strong_dstep_step(pr: Prismatoid, old_width: int, seed: int):
    """One inductive step: dimension +1, one vertex more, width at least
    old_width + 1, where old_width is the width of `pr`.

    Suspends over a vertex of one base, then pulls one apex of the other
    (non-simplex) base out of its hyperplane by a seeded rational step,
    parallel to the bases and inside the affine hull of the suspension,
    halving up to STEP_HALVINGS times until the result verifies as a
    prismatoid of larger width.
    The apexes are tried in a seeded order.  The suspension's hull is the
    builder of the other vertices extended by the first apex at its own
    position, and that builder then serves the first apex's search.  Returns (prismatoid, StepRecord).
    """
    if pr.asimpliciality <= 0:
        raise ConstructionFailed("both bases are simplices; nothing to gain")
    rng = random.Random(seed)
    d = pr.dim
    plus_set = set(pr.hull.incidence.vertices_of(pr.base_plus))
    minus_set = set(pr.hull.incidence.vertices_of(pr.base_minus))
    plus_facet = pr.base_plus
    if len(plus_set) == d:  # plus base is a simplex: swap roles
        plus_set, minus_set = minus_set, plus_set
        plus_facet = pr.base_minus

    # suspend over the base-minus vertex lying on the fewest facets
    vmasks = pr.hull.incidence.vertex_masks
    v = min(minus_set, key=lambda i: (vmasks[i].bit_count(), i))
    S = one_point_suspension(pr.polytope, v)
    u_idx, w_idx = S.n_vertices - 2, S.n_vertices - 1
    new_plus = sorted(i - (i > v) for i in plus_set)
    apex_order = list(new_plus)
    rng.shuffle(apex_order)
    # the suspension's hull is the builder of the other vertices extended
    # by the first apex, and its search then starts from that builder; the
    # copy of S that keeps that hull replaces S (an apex that is no vertex
    # of S gives no copy, and S's hull is enumerated)
    first_fixed = _fixed_builder(S, apex_order[0])
    S = _moved(S, apex_order[0], S.vectors[apex_order[0]], first_fixed) or S
    plus_mask = bits(new_plus)
    pyramid_masks = {plus_mask | 1 << u_idx, plus_mask | 1 << w_idx}
    if not pyramid_masks <= set(facet_enumeration(S).incidence.facet_masks):
        raise ConstructionFailed("suspension lost the pyramid facets over the base")

    def generic(p, a):
        # the apex-genericity condition: the non-simplicial facets at the
        # apex are exactly the two pyramids over the base
        h = facet_enumeration(p)
        at_apex = {m for m in h.incidence.facet_masks if m >> a & 1 and m.bit_count() != h.dim}
        return at_apex == pyramid_masks

    # the apex moves parallel to the bases inside S's affine hull: off the
    # rows of A, the equality normals of S's hull and the base normal
    A = [e[:-1] for e in facet_enumeration(S).hrep.equalities]
    A.append(pr.hull.hrep.inequalities[plus_facet][:-1] + (0,))
    gram = [[dot(a, b) for b in A] for a in A]
    amb = S.ambient_dim
    minus_mask = ((1 << S.n_vertices) - 1) ^ plus_mask  # every other point of S

    # why move_apex rejected its candidates, over the whole search
    rejected = dict.fromkeys(REJECTION_CAUSES, 0)

    def move_apex(poly, apex, fixed):
        # pull the apex out of the base hyperplane, parallel to the bases,
        # halving the step until the prismatoid verifies with larger width
        for _ in range(APEX_REDRAWS):
            # the step is raw / 32, with raw drawn in integers and ending in 32
            raw = [rng.randrange(-8, 9) for _ in range(amb - 1)] + [32]
            # the direction is raw minus its projection A^T y onto the rows
            # of A, over 32, where (A A^T) y = A raw: the kernel vector
            # (t y, t), t > 0, of [A A^T | -A raw] gives the step vector
            # (A^T t y - t raw, 32 t)
            *ty, t = nullspace([g + [-dot(a, raw)] for g, a in zip(gram, A)])[-1]
            direction = (*(dot(ty, col) - t * x for x, col in zip(raw, zip(*A))), 32 * t)
            for cand in _halvings(poly, apex, fixed, direction, STEP_HALVINGS, rejected):
                masks = facet_enumeration(cand).incidence.facet_masks
                if plus_mask not in masks or minus_mask not in masks:
                    rejected["base facet missing"] += 1
                    continue
                bases = masks.index(plus_mask), masks.index(minus_mask)
                try:
                    new_pr = make_prismatoid(cand, bases)
                except NotAPrismatoid:
                    rejected["not a prismatoid"] += 1
                    continue
                new_width = width(new_pr)
                if new_width < old_width + 1:
                    rejected["width not increased"] += 1
                    continue
                rec = StepRecord(new_pr.dim, new_pr.n_vertices, new_pr.n_facets, new_width)
                return new_pr, rec
        return None

    # the apex-genericity condition of the inductive proof is a means to the
    # width gain; the final gate is always the verified width increase, so a
    # failed genericity push falls back to a plain push or the raw apex.  The
    # push and the apex move change only the apex, so one builder of the
    # other vertices serves both.
    for apex in apex_order:
        fixed = first_fixed if apex == apex_order[0] else _fixed_builder(S, apex)
        start = S
        if not generic(S, apex):
            for strictness in (generic, None):
                try:
                    start = _push(
                        S, apex, fixed, new_plus, rng.randrange(1 << 30), strictness, STEP_HALVINGS
                    )
                    break
                except PushFailed:
                    pass
        result = move_apex(start, apex, fixed)
        if result is not None:
            return result
    raise ConstructionFailed(_exhausted(rejected))


def strong_dstep_iterate(pr: Prismatoid, max_steps: int, seed: int):
    """Apply the step min(max_steps, asimpliciality) times.

    Returns (prismatoid, trace) where trace[0] records the input and each
    later entry one accepted step.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    trace = [StepRecord(pr.dim, pr.n_vertices, pr.n_facets, width(pr))]
    rng = random.Random(seed)
    steps = min(max_steps, max(pr.asimpliciality, 0))
    current = pr
    for _ in range(steps):
        current, rec = strong_dstep_step(current, trace[-1].width, rng.randrange(1 << 30))
        trace.append(rec)
    return current, tuple(trace)


# ---------------------------------------------------------------------------
# products


def product(p1: VPolytope, p2: VPolytope) -> VPolytope:
    """All coordinate concatenations; facets are the lifted factor facets.
    The point (p, s) is the sum of (p, 0) and (0, s)."""
    zeros1, zeros2 = (0,) * p1.ambient_dim, (0,) * p2.ambient_dim
    return VPolytope(tuple(
        plus(a[:-1] + zeros2 + a[-1:], zeros1 + b) for a in p1.vectors for b in p2.vectors
    ))


# ---------------------------------------------------------------------------
# blending (combinatorial)


@dataclass(frozen=True)
class BlendGraph:
    """Vertex graph of a blend of two simple polytopes at simple vertices."""

    graph: Graph
    facet_count: int
    dim: int


def blend_graph(p1: VPolytope, v1: int, p2: VPolytope, v2: int) -> BlendGraph:
    """Glue the vertex graphs at v1/v2: drop both vertices and join each
    neighbor of v1 to the neighbor of v2 leaving the matched facet.

    The facets through v1 are matched to those through v2 in sorted order
    of their indices.  The diameter is measured, never assumed.
    """
    for poly, v in ((p1, v1), (p2, v2)):
        if not 0 <= v < poly.n_vertices:
            raise ValueError(f"vertex index {v} out of range")
    hull1 = facet_enumeration(p1)
    hull2 = facet_enumeration(p2)
    d = hull1.dim
    if hull2.dim != d:
        raise DegenerateInput("blend requires equal dimensions")
    if d < 2:
        # the facet count n1 + n2 - d needs d >= 2: a segment's facet
        # through the glued vertex is that vertex, and goes with it
        raise DegenerateInput("blend requires dimension at least 2")
    for hull in (hull1, hull2):
        if not all(m.bit_count() == d for m in hull.incidence.vertex_masks):
            raise DegenerateInput("blend requires simple polytopes")
    vm1, vm2 = hull1.incidence.vertex_masks, hull2.incidence.vertex_masks
    matched = dict(zip(iter_bits(vm1[v1]), iter_bits(vm2[v2])))

    g1 = hull1.vertex_graph
    g2 = hull2.vertex_graph
    id1 = {i: n for n, i in enumerate(i for i in range(p1.n_vertices) if i != v1)}
    off = len(id1)
    id2 = {i: off + n for n, i in enumerate(i for i in range(p2.n_vertices) if i != v2)}
    edges = [
        (id1[a], id1[b]) for a, b in g1.edges if a != v1 and b != v1
    ] + [(id2[a], id2[b]) for a, b in g2.edges if a != v2 and b != v2]

    def leaving_facet(hull, v, n):
        # the polytope is simple, so the edge vn lies in all facets through
        # v but one, the facet it leaves
        vmasks = hull.incidence.vertex_masks
        return (vmasks[v] & ~vmasks[n]).bit_length() - 1

    by_facet2 = {leaving_facet(hull2, v2, n): n for n in g2.adj[v2]}
    for nbr in g1.adj[v1]:
        f = leaving_facet(hull1, v1, nbr)
        edges.append((id1[nbr], id2[by_facet2[matched[f]]]))

    n1 = hull1.incidence.n_facets
    n2 = hull2.incidence.n_facets
    return BlendGraph(Graph(off + len(id2), edges), n1 + n2 - d, d)


# ---------------------------------------------------------------------------
# Hirsch arithmetic


@dataclass(frozen=True)
class ExcessReport:
    dim: int
    facets: int
    diameter: int
    excess: object

    @property
    def is_hirsch(self) -> bool:
        return self.diameter <= self.facets - self.dim


def hirsch_excess(d: int, n: int, l: int) -> ExcessReport:
    """excess = l/(n-d) - 1; positive exactly for non-Hirsch parameters."""
    if not (n > d >= 1) or l < 0:
        raise ValueError("need n > d >= 1 and l >= 0")
    return ExcessReport(d, n, l, Rat(l, n - d) - 1)


@dataclass(frozen=True)
class FamilyParameters:
    """Parameters of the glued k-fold-power family built from a non-Hirsch seed."""

    dim: int
    facets: int
    diameter_lb: int
    excess_lb: object
    excess_limit: object
    theorem_bound: object
    refined_bound: object


def family_parameters(d: int, n: int, l: int, k: int, j: int) -> FamilyParameters:
    """Glue j copies of the k-fold power of a non-Hirsch d-polytope with n
    facets and diameter l; exact excess arithmetic."""
    if k < 1 or j < 1:
        raise ValueError("need k >= 1 and j >= 1")
    eps = hirsch_excess(d, n, l).excess
    if eps <= 0:
        raise VacuousFamily("family bound is vacuous for Hirsch input")
    b = l - n + d
    return FamilyParameters(
        dim=k * d,
        facets=j * (k * n - k * d) + k * d,
        diameter_lb=j * (k * l - 1) + 1,
        excess_lb=eps - Rat(j - 1, j * k * (n - d)),
        excess_limit=eps - Rat(1, k * (n - d)),
        theorem_bound=(1 - Rat(1, k)) * eps,
        refined_bound=(1 - Rat(1, b * k)) * eps,
    )
