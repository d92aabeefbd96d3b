"""The double-description hull builder against full facet enumeration, its
packed slack check against plain dot products, and the face test for
vertices against a rank reference.

A builder of the fixed points extended by one point must give exactly the
hull that `facet_enumeration` gives for the whole set, whether the point
lands outside the hull, on a facet hyperplane, or brings denominators the
fixed points do not have, and no hull when it lands inside.  The inputs
lean toward the cases that are not in general position: {-1,0,1} grids,
where many points share each facet hyperplane, and prisms, whose side
facets are not simplices.
The rank of a facet's tight points is proved by a triangular certificate
read off exactly verified incidence, with an elimination only when none is
found: a differential test checks that a certificate is found only for
points of rank `dim`, and that every rank-deficient row still fails, and a
guard checks that the q48 artifacts need no elimination at all.  The
corruption tests corrupt one candidate's step (`polytopes._add`) or the
builder itself, and check that what one candidate verified never vouches
for a different facet in another.  A candidate checks the rows it carried
from its verified builder only at its new point, so they also flip such a
row's bit and step with another point than the one checked: each must fail
verification.  A builder corrupted before its first `extend` makes every
`extend` raise, and one reassigned after it changes no later candidate.

The ridge and adjacency tests take their candidates from the incidence, so
they are also checked where that is easiest to get wrong: segments, whose
two facets share no point, and the dual graph of lattice boxes and
one-point suspensions, where facets hold many more than k points.  One
routine builds the dual graph and the vertex graph, from either side of the
incidence, so both are checked against their pair-by-pair references, on
the hypothesis corpus and on q48 artifacts whose members take each way of
finding candidates.  The brute-force oracle checks rows and masks on inputs
not in general position, and a signed coordinate permutation of each input
must give the mapped hull, its facets, dual graph and vertex graph.

Each double-description step takes its ridge candidates from the facets
that meet the visible region, not from a scan of every facet; after every
step the facets must be those the full scan gives, on the same corpus and
on the q48 polar and the base Minkowski sum.  The points enter as integer
vectors: the greedy starting simplex must be the one the Fraction
elimination picks, and a duplicate must be named as the rationals name it.
The simplex's facets come from one elimination and must be those of one
kernel per facet, also where a pivot is 0 and under either sign of the
determinant.
"""
import contextlib
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from exactpoly import constructions, polytopes
from exactpoly.cli import main
from exactpoly.constructions import one_point_suspension, push_vertex, strong_dstep_iterate
from exactpoly.counterexample import base_minus, base_plus, vertices48
from exactpoly.geometry import DegenerateInput, DimensionMismatch, homogeneous, vadd
from exactpoly.linalg import matrix_rank, reduce_rows
from exactpoly.normalfans import minkowski_sum
from exactpoly.polytopes import (
    DuplicatePoints,
    FacetIncidence,
    HPolytope,
    Hull,
    HullBuilder,
    NotAVertex,
    _tight_masks,
    _triangular_certificate,
    bits,
    certify_vertices,
    dual_graph,
    extreme_indices,
    facet_enumeration,
    iter_bits,
    polar,
    vertex_graph,
)
from helpers import (
    apply_ineq,
    check_hull_against_oracle,
    fractions,
    mat_apply,
    primitive_ints,
    reference_add,
    reference_affine_basis,
    reference_dual_graph_edges,
    reference_extreme_indices,
    reference_rref,
    reference_start,
    reference_vertex_graph_edges,
    relabeled,
    signed_matrix,
    slack,
    vpoly,
)

COORD = st.integers(-3, 3)
WEIGHT = fractions(Fraction(1, 7), 3, 7)


@st.composite
def point_sets(draw):
    """Distinct point sets in dims 2-4, most of them full-dimensional:
    random lattice points, subsets of the {-1,0,1} grid, or prisms over two
    polytopes."""
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("random", "grid", "prism")))
    if kind == "grid":
        pool = list(itertools.product((-1, 0, 1), repeat=dim))
        pts = draw(st.lists(st.sampled_from(pool), min_size=dim + 2, max_size=12, unique=True))
    elif kind == "prism":
        face = st.lists(st.tuples(*[COORD] * (dim - 1)), min_size=1, max_size=5, unique=True)
        top = draw(face)
        bottom = top if draw(st.booleans()) else draw(face)
        pts = [p + (1,) for p in top] + [p + (-1,) for p in bottom]
    else:
        pts = draw(st.lists(st.tuples(*[COORD] * dim), min_size=dim + 2, max_size=10, unique=True))
    if draw(st.booleans()):
        pts = [tuple(Fraction(c) for c in p) for p in pts]
    return pts


def _vectors(slots):
    """The `homogeneous` vectors of the points in `slots`, a builder's
    input; None marks an empty slot."""
    return [None if p is None else homogeneous(p) for p in slots]


def _same_hull(got, want):
    assert got.dim == want.dim
    assert got.hrep == want.hrep
    assert got.incidence.facet_masks == want.incidence.facet_masks


def _moved_point(data, pts, v):
    """A new position for point v, relative to the hull of the others."""
    others = pts[:v] + pts[v + 1:]
    fixed_hull = facet_enumeration(vpoly(tuple(others)))
    ineqs = fixed_hull.hrep.inequalities
    f = data.draw(st.integers(0, len(ineqs) - 1))
    tight = [others[j] for j in iter_bits(fixed_hull.incidence.facet_masks[f])]
    dim = len(pts[0])
    kind = data.draw(st.sampled_from(("outside", "inside", "on facet", "rational")))
    if kind == "outside":
        # beyond facet f: a tight point plus a positive multiple of its normal
        c = data.draw(WEIGHT)
        return tuple(t + c * a for t, a in zip(tight[0], ineqs[f][:-1]))
    if kind == "inside":
        # a strictly positive convex combination of all the others
        weights = [data.draw(WEIGHT) for _ in others]
        total = sum(weights)
        return tuple(sum(w * p[j] for w, p in zip(weights, others)) / total for j in range(dim))
    if kind == "on facet":
        # an affine combination of the facet's tight points, inside the facet
        # or out on its hyperplane
        weights = [data.draw(fractions(-2, 2, 5)) for _ in tight[1:]]
        first = 1 - sum(weights, Fraction(0))
        combo = [first] + weights
        return tuple(sum(w * p[j] for w, p in zip(combo, tight)) for j in range(dim))
    return tuple(
        data.draw(fractions(-4, 4, 7)) for _ in range(dim)
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets(), st.data())
def test_insert_into_fixed_builder_matches_facet_enumeration(pts, data):
    v = data.draw(st.integers(0, len(pts) - 1))
    slots = list(pts)
    slots[v] = None
    try:
        fixed = HullBuilder(_vectors(slots))
    except DegenerateInput:
        # the others are not full-dimensional: the searches fall back to
        # facet_enumeration there
        return
    before = fixed.points, fixed.rows, fixed.masks
    # the original point first, then a moved one, each its own candidate
    for point in (pts[v], _moved_point(data, pts, v)):
        moved = list(pts)
        moved[v] = point
        poly = vpoly(tuple(moved))
        got = fixed.extend(v, homogeneous(point))
        if got is None:
            # the point sees no facet: it lies in the hull of the others,
            # a copy of one of them included
            with contextlib.suppress(DuplicatePoints):
                assert v not in extreme_indices(facet_enumeration(poly))
            continue
        _same_hull(got, facet_enumeration(poly))
        _assert_graphs_match_references(poly, got)
    # the candidates left the fixed builder as it was
    assert (fixed.points, fixed.rows, fixed.masks) == before and fixed.points[v] is None


def test_segment_dual_graph_is_one_edge():
    seg = vpoly(((Fraction(-2),), (Fraction(5),)))
    hull = facet_enumeration(seg)
    assert dual_graph(seg, hull).edges == ((0, 1),) == reference_dual_graph_edges(seg, hull)


@st.composite
def lines(draw):
    """(distinct rationals t, a map t -> base + t dir into d-space, d = 1-4)."""
    values = draw(st.lists(
        fractions(-9, 9, 5), min_size=2, max_size=9, unique=True
    ))
    d = draw(st.integers(1, 4))
    direction = draw(st.tuples(*[WEIGHT | WEIGHT.map(lambda w: -w) | st.just(0)] * d).filter(any))
    base = draw(st.tuples(*[fractions(-3, 3, 4)] * d))
    return values, base, direction


def _line_points(data):
    values, base, direction = data
    return [tuple(b + t * c for b, c in zip(base, direction)) for t in values]


@settings(max_examples=100, deadline=None)
@given(lines())
@example(([0, 1, 3, -2, 7, Fraction(1, 2), Fraction(5, 3)], (0,), (1,)))
@example(([2, -1, 0, 9, -4], (Fraction(1, 2), 0, 1), (1, Fraction(-2, 3), 0)))
def test_one_dimensional_hull_keeps_both_ends(data):
    """The two facets of a segment share no point, so every facet must be a
    ridge candidate when k = 1: a point beyond one end replaces that end,
    and an interior point changes nothing."""
    values, base, _ = data
    poly = vpoly(tuple(_line_points(data)))
    hull = facet_enumeration(poly)
    ends = {values.index(min(values)), values.index(max(values))}
    assert hull.dim == 1
    assert sorted(hull.incidence.facet_masks) == sorted(1 << i for i in ends)
    if len(base) == 1:
        check_hull_against_oracle(poly)


@st.composite
def boxes(draw, max_points=256):
    """The corners of a lattice box in dims 2-4 and a drawn subset of its
    other lattice points, at most `max_points` in all (so the dimension is
    at most log2 of it): facets hold many points, most of them not
    vertices, so |F| - (k-1) > 1."""
    dim = draw(st.integers(2, min(4, max_points.bit_length() - 1)))
    sides = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    pool = list(itertools.product(*(range(s + 1) for s in sides)))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    corners = [p for p in pool if all(c in (0, s) for c, s in zip(p, sides))]
    extra = [p for p, k in zip(pool, keep) if k and p not in corners]
    return sorted(corners + extra[: max_points - len(corners)])


@settings(max_examples=40, deadline=None)
@given(boxes())
def test_dual_graph_matches_reference_on_grids(pts):
    poly = vpoly(tuple(pts))
    hull = facet_enumeration(poly)
    assert dual_graph(poly, hull).edges == reference_dual_graph_edges(poly, hull)


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.data())
def test_dual_graph_matches_reference_on_suspensions(pts, data):
    """The two new points of a one-point suspension lie on nearly every
    facet."""
    poly = vpoly(tuple(pts))
    v = data.draw(st.integers(0, len(pts) - 1))
    susp = one_point_suspension(poly, v)
    hull = facet_enumeration(susp)
    assert dual_graph(susp, hull).edges == reference_dual_graph_edges(susp, hull)


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.data())
def test_builder_rows_are_the_hull_rows(pts, data):
    """A builder keeps each facet as its HPOLY row (a, b), and point p as
    (-w p, w) with w > 0, so a row meets it in w (b - a . p); the builder
    of all points but v extended by v has the same rows, unless v is no
    vertex."""
    v = data.draw(st.integers(0, len(pts) - 1))
    slots = list(pts)
    slots[v] = None
    try:
        fixed = HullBuilder(_vectors(slots))
    except DegenerateInput:
        return
    builder = HullBuilder(_vectors(pts))
    hull = builder.hull()
    assert set(builder.rows) == set(hull.hrep.inequalities)
    extended = fixed.extend(v, homogeneous(pts[v]))
    assert extended is None or extended.hrep == hull.hrep
    for p, q in zip(pts, builder.points):
        w = q[-1]
        assert w > 0 and all(Fraction(-c, w) == x for c, x in zip(q, p))
        for h in builder.rows:
            assert sum(a * b for a, b in zip(h, q)) == w * (h[-1] - sum(a * x for a, x in zip(h, p)))


def test_builder_refuses_bad_use():
    square = [(0, 0), (1, 0), (0, 1), None]
    with pytest.raises(DegenerateInput, match="not full-dimensional"):
        HullBuilder(_vectors([(0, 0), (1, 1), (2, 2), None]))
    with pytest.raises(DegenerateInput, match="needs points"):
        HullBuilder([None, None])
    builder = HullBuilder(_vectors(square))
    assert all(type(x) is tuple for x in (builder.points, builder.rows, builder.masks))
    with pytest.raises(ValueError, match="empty"):
        builder.hull()
    with pytest.raises(DimensionMismatch):
        builder.extend(3, homogeneous((1, 1, 1)))
    with pytest.raises(ValueError, match="already filled"):
        builder.extend(0, homogeneous((1, 1)))
    assert builder.extend(3, homogeneous((1, 1))).incidence.n_facets == 4
    # a candidate that leaves another slot empty has no hull
    with pytest.raises(ValueError, match="hull slot 4 is empty"):
        HullBuilder(_vectors(square + [None])).extend(3, homogeneous((1, 1)))


@st.composite
def packed_slack_inputs(draw):
    """Homogeneous points (w > 0) and rows with small and very large
    entries; a row may be shifted to be tight at one point, then nudged."""
    k = draw(st.integers(1, 5))
    big = st.integers(-(2**70), 2**70)
    entry = st.one_of(st.integers(-3, 3), big)
    pts = draw(st.lists(
        st.tuples(st.integers(1, 2**40), *[entry] * k), min_size=1, max_size=12
    ))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        h = [draw(entry) for _ in range(k)]
        if draw(st.booleans()):
            # w_t h0 + h . x_t == 0 for h0 = -(h . x_t) after scaling h by w_t
            t = pts[draw(st.integers(0, len(pts) - 1))]
            h = [t[0] * v for v in h]
            h0 = -sum(a * b for a, b in zip(h, t[1:])) // t[0] + draw(st.integers(-1, 1))
        else:
            h0 = draw(entry)
        rows.append((h0, *h))
    return pts, rows


@st.composite
def empty_slot_inputs(draw):
    """`packed_slack_inputs` with the zero vector in some slots, as
    `HullBuilder.extend` packs a builder's empty slots, and, half the time, one
    more row (2^(b-1), 0, ..., 0) that makes the digit width a whole number
    of bytes, so `_tight_masks` pads nothing."""
    pts, rows = draw(packed_slack_inputs())
    k = len(pts[0])
    for _ in range(draw(st.integers(0, 3))):
        pts.insert(draw(st.integers(0, len(pts))), (0,) * k)
    if draw(st.booleans()):
        a = max(max(map(abs, q)) for q in pts).bit_length()
        b = max(sum(map(abs, h)) for h in rows).bit_length()
        b += -(a + b + 1) % 8 + 8 * draw(st.integers(0, 2))
        rows.append((1 << (b or 8) - 1,) + (0,) * (k - 1))
    return pts, rows


@settings(max_examples=300, deadline=None)
@given(empty_slot_inputs())
@example(([(3, -2)], [(2, 3), (0, 0)]))  # one point, tight at both rows
@example(([(1, 0, 0), (5, 7, -1)], [(0, 1, 8)]))  # a point outside
@example(([(0, 0), (1, 2), (0, 0)], [(16, 0), (4, -2)]))  # w = 2 + 5 + 1, zero slots tight
@example(([(1, 127), (2, -1)], [(255, 0), (127, -1)]))  # w = 7 + 8 + 1
@example(([(127, -127), (1, 127), (0, -1)], [(0, 0)]))  # entries at +-(2^(w-1) - 1), w = 8
@example(([(1, -255), (255, 255)], [(0, 0), (1, 0)]))  # w = 8 + 1 + 1, rounded to 16
@example(([(w, -w, 3 - w) for w in range(1, 10)], [(1, 1, 0), (3, 1, 1), (-1, 0, 0)]))  # 9 points
def test_tight_masks_match_plain_dot_products(data):
    """Tight points, rows with a point outside, a single point, zero
    vectors in empty slots, negative coordinates, entries at the bound of
    the digit width, point counts that are no multiple of 8, and digit
    widths on a byte boundary."""
    pts, rows = data
    want = []
    for h in rows:
        slacks = [sum(a * b for a, b in zip(h, q)) for q in pts]
        want.append(None if min(slacks) < 0 else bits(i for i, s in enumerate(slacks) if s == 0))
    assert list(_tight_masks(pts, rows)) == want


def _per_bit_transpose(masks, n):
    """Bit f of entry j iff bit j of masks[f], one bit at a time."""
    return tuple(bits(f for f, m in enumerate(masks) if m >> j & 1) for j in range(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=70))
))
@example((0, []))  # no points, no facets
@example((5, []))  # no facets
@example((7, [0b1010011]))  # a single mask
@example((9, [0b111111111, 0, 0b100000001]))  # 9 points, all and none tight
def test_vertex_masks_match_the_per_bit_transpose(data):
    n, masks = data
    assert FacetIncidence(tuple(masks), n).vertex_masks == _per_bit_transpose(masks, n)


def test_derived_facts_are_kept_on_their_owners():
    """A second read of an incidence's transpose or smallest faces, or of a
    polytope's face ranks, returns the same object, as the graphs do (see
    `_assert_graphs_match_references`); an equal polytope that is another
    object derives its own ranks."""
    cube = vpoly(tuple(tuple(map(Fraction, p)) for p in itertools.product((0, 1), repeat=3)))
    inc = facet_enumeration(cube).incidence
    vmasks, faces, rank = inc.vertex_masks, inc.smallest_faces, cube.face_rank
    assert inc.vertex_masks is vmasks and inc.smallest_faces is faces and cube.face_rank is rank
    assert [rank(m) for m in (inc.facet_masks[0], 0b11, 0b1, (1 << 8) - 1)] == [2, 1, 0, 3]
    twin = vpoly(cube.vertices)
    assert twin == cube and twin.face_rank is not rank


# ---------------------------------------------------------------------------
# the face test for vertices


@st.composite
def certify_inputs(draw):
    """Point sets that may hold non-vertices: the centroid (interior) and
    midpoints of two points (on an edge, inside a face or interior), and may
    be embedded in one dimension more, where the hull needs a chart."""
    pts = list(draw(point_sets()))
    dim = len(pts[0])
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            extra = tuple(sum(Fraction(p[j]) for p in pts) / len(pts) for j in range(dim))
        else:
            i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
            extra = tuple((Fraction(a) + b) / 2 for a, b in zip(pts[i], pts[j]))
        if extra not in pts:
            pts.append(extra)
    if draw(st.booleans()):
        # the graph of an affine function, as a new coordinate at position c
        c = draw(st.integers(0, dim))
        coeffs = [draw(fractions(-2, 2, 3)) for _ in range(dim + 1)]
        pts = [
            p[:c] + (coeffs[0] + sum(a * x for a, x in zip(coeffs[1:], p)),) + p[c:]
            for p in pts
        ]
    return pts


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(certify_inputs(), st.data())
def test_face_test_matches_rank_reference(pts, data):
    poly = vpoly(tuple(pts))
    hull = facet_enumeration(poly)
    want = reference_extreme_indices(poly, hull)
    assert extreme_indices(hull) == want
    outside = [i for i in range(len(pts)) if i not in want]
    if outside:
        with pytest.raises(NotAVertex, match=f"^point {outside[0]} = .* is not a vertex"):
            certify_vertices(poly, hull)
    else:
        assert certify_vertices(poly, hull) is poly
    # with facets left out (each still valid, with exact incidence) the test
    # may miss vertices but never accepts a point that is not one
    keep = [f for f in range(hull.incidence.n_facets) if data.draw(st.booleans())]
    partial = Hull(
        HPolytope(
            hull.hrep.ambient_dim,
            tuple(hull.hrep.inequalities[f] for f in keep),
            hull.hrep.equalities,
        ),
        FacetIncidence(tuple(hull.incidence.facet_masks[f] for f in keep), len(pts)),
        hull.dim,
    )
    assert set(extreme_indices(partial)) <= set(want)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    point_sets(), certify_inputs().filter(lambda pts: len(pts) <= 12), boxes(max_points=12)
))
def test_builder_matches_oracle_and_reference_dual_graph(pts):
    """Random, grid and prism point sets, the same with points on edges,
    inside faces or inside the polytope, and lattice boxes, whose facets
    hold many points: at most 12 points, because the oracle tries every
    dim-subset."""
    poly = vpoly(tuple(pts))
    hull = facet_enumeration(poly)
    if hull.dim == poly.ambient_dim:
        check_hull_against_oracle(poly)
    assert dual_graph(poly, hull).edges == reference_dual_graph_edges(poly, hull)


# ---------------------------------------------------------------------------
# one adjacency routine for the dual graph and the vertex graph


def _assert_graphs_match_references(poly, hull):
    """Both graphs equal their references, and each is kept on the hull:
    a second call returns the same object."""
    for graph, reference in (
        (vertex_graph, reference_vertex_graph_edges),
        (dual_graph, reference_dual_graph_edges),
    ):
        g = graph(poly, hull)
        assert g.edges == reference(poly, hull)
        assert graph(poly, hull) is g


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(certify_inputs(), boxes(), lines().map(_line_points)),
    st.sampled_from((polytopes._PAIR_LOOP_MEMBERS, 0, 10**9)),
)
# a square on the plane z = x + y: on its chart its edges meet in k-1 = 1
# point, where the ambient k-1 = 2 would join none of them
@example([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)], polytopes._PAIR_LOOP_MEMBERS)
def test_graphs_match_their_references(pts, members):
    """Random, grid and prism point sets with points inside faces or inside
    the polytope, some embedded one dimension up; lattice boxes; and
    segments with points inside them.  Few of their graphs have more than
    64 members, so each way of finding candidates is also forced: with
    `_PAIR_LOOP_MEMBERS` at 0 every member counts misses wherever that
    costs less than the pass, and at 10**9 every member takes the pass.
    The graphs of a lifted hull use the dimension of its chart."""
    poly = vpoly(tuple(pts))
    hull = facet_enumeration(poly)
    assert hull.dim == poly.ambient_dim - len(hull.hrep.equalities)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, "_PAIR_LOOP_MEMBERS", members)
        _assert_graphs_match_references(poly, hull)


def _slack_vectors(poly, hull):
    """Each facet's slacks at the points, as primitive integers: a facet of
    a lower-dimensional hull is a row only up to the equalities, but its
    slacks are fixed up to a positive scale."""
    return [
        tuple(primitive_ints([slack(row, p) for p in poly.vertices]))
        for row in hull.hrep.inequalities
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(certify_inputs(), boxes()), st.data())
def test_signed_coordinate_permutation_images(pts, data):
    """The hull of m(P), its points in P's order, for a random signed
    coordinate permutation m.  Full-dimensional: its rows are exactly the
    images of P's rows.  Embedded: the chart's columns move with the
    coordinates, so the facets are matched by their slacks instead, and the
    equalities span the images of P's.  Either way the induced facet
    permutation carries P's masks and dual graph onto the image's, and the
    vertex graph is unchanged."""
    dim = len(pts[0])
    order = data.draw(st.permutations(range(dim)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    m = signed_matrix(tuple(zip(order, signs)))
    poly = vpoly(tuple(pts))
    image = vpoly(tuple(mat_apply(m, p) for p in pts))
    hull, image_hull = facet_enumeration(poly), facet_enumeration(image)
    rows = hull.hrep.inequalities
    if hull.dim == dim:
        assert image_hull.hrep.inequalities == tuple(sorted(apply_ineq(m, q) for q in rows))
    eqs = image_hull.hrep.equalities
    assert all(next(a for a in e if a) > 0 for e in eqs)
    want = [apply_ineq(m, e) for e in hull.hrep.equalities]
    assert reference_rref(list(eqs))[1] == reference_rref(want)[1]
    index = {v: i for i, v in enumerate(_slack_vectors(image, image_hull))}
    pi = [index[v] for v in _slack_vectors(poly, hull)]
    masks = hull.incidence.facet_masks
    assert [image_hull.incidence.facet_masks[pi[f]] for f in range(len(rows))] == list(masks)
    assert dual_graph(image, image_hull).edges == relabeled(dual_graph(poly, hull).edges, pi)
    assert vertex_graph(image, image_hull).edges == vertex_graph(poly, hull).edges


def _counted(masks, k):
    """How many members `_adjacency` gives candidates by counting misses over
    the transpose; the others take the pass over every mask, and all of them
    do in a graph of at most `_PAIR_LOOP_MEMBERS` members."""
    if len(masks) <= polytopes._PAIR_LOOP_MEMBERS:
        return 0
    return sum(m.bit_count() * (m.bit_count() - k + 1) < len(masks) for m in masks)


def test_q48_graphs_take_both_candidate_branches(certificate):
    # the q48 vertex graph has 48 members, so every vertex takes the pass
    # over the masks, while a facet or a polar vertex holds a few of 48
    # points or facets among 322 members, so it counts misses; the polar's
    # hull is built from a fresh object, not read from the one `polar`
    # derived and kept
    q48, hull = certificate.poly, certificate.hull
    pol = polar(q48)
    pol_hull = facet_enumeration(vpoly(pol.vertices))
    assert _counted(hull.incidence.vertex_masks, hull.dim) < 48 // 2
    assert _counted(hull.incidence.facet_masks, hull.dim) > 322 // 2
    assert _counted(pol_hull.incidence.vertex_masks, pol_hull.dim) > 322 // 2
    _assert_graphs_match_references(q48, hull)
    _assert_graphs_match_references(pol, pol_hull)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cross_polytope_graphs(dim, monkeypatch):
    # a vertex of the octahedron lies on 4 of 8 facets and passes over the
    # masks even where misses may be counted (`_PAIR_LOOP_MEMBERS` 0), and
    # each edge lies in exactly k-1 = 2 facets; its vertex graph joins all
    # but antipodal points, its dual graph is the cube's
    poly = vpoly(tuple(
        tuple(s if j == i else 0 for j in range(dim)) for i in range(dim) for s in (1, -1)
    ))
    rows = facet_enumeration(poly).hrep.inequalities
    for members in (0, polytopes._PAIR_LOOP_MEMBERS):
        monkeypatch.setattr(polytopes, "_PAIR_LOOP_MEMBERS", members)
        # a new object each time, so the graphs are built, not read
        hull = facet_enumeration(vpoly(poly.vertices))
        assert _counted(hull.incidence.vertex_masks, dim) == (
            2 * dim if dim == 2 and members == 0 else 0
        )
        assert vertex_graph(poly, hull).edges == tuple(
            (a, b) for a, b in itertools.combinations(range(2 * dim), 2) if b != a + 1 or a % 2
        )
        assert dual_graph(poly, hull).edges == tuple(
            (f, g) for f, g in itertools.combinations(range(len(rows)), 2)
            if sum(x != y for x, y in zip(rows[f], rows[g])) == 1
        )
        _assert_graphs_match_references(poly, hull)


def test_cube_with_an_edge_midpoint_keeps_the_edge_ends_apart(monkeypatch):
    # the two ends of the edge each lie on k = 3 facets and share k-1 = 2
    # of them, which makes two simplex facets adjacent on the facet side;
    # on the vertex side they are no edge, since the midpoint lies between
    pts = [tuple(1 if m >> i & 1 else -1 for i in range(3)) for m in range(8)]
    poly = vpoly(tuple(pts + [(0, -1, -1)]))
    vmasks = facet_enumeration(poly).incidence.vertex_masks
    assert vmasks[0].bit_count() == vmasks[1].bit_count() == 3
    assert (vmasks[0] & vmasks[1]).bit_count() == 2
    cube_edges = {(a, b) for a, b in itertools.combinations(range(8), 2) if (a ^ b).bit_count() == 1}
    for members in (0, polytopes._PAIR_LOOP_MEMBERS):
        monkeypatch.setattr(polytopes, "_PAIR_LOOP_MEMBERS", members)
        # a new object each time, so the graphs are built, not read
        hull = facet_enumeration(vpoly(poly.vertices))
        assert set(vertex_graph(poly, hull).edges) == cube_edges - {(0, 1)}
        _assert_graphs_match_references(poly, hull)


def test_graphs_of_the_base_sum_and_a_lift_match_their_references(certificate):
    ms = certificate.base_sum
    _assert_graphs_match_references(ms.polytope, ms.hull)
    lift, _ = strong_dstep_iterate(certificate.pr, 1, seed=0)
    _assert_graphs_match_references(lift.polytope, lift.hull)


# ---------------------------------------------------------------------------
# the verification pass refuses a corrupted builder or candidate


def _cube_builder():
    pts = [tuple(1 if m >> i & 1 else -1 for i in range(3)) for m in range(8)]
    return pts, HullBuilder(_vectors(pts))


def _corrupt(rows, masks, f, how, point):
    """Corrupt facet f of the lists `rows` and `masks` in place: flip the
    bit of `point` in its mask, or shift its row's offset by +1 or -1."""
    if how == "mask":
        masks[f] ^= 1 << point
    else:
        rows[f] = rows[f][:-1] + (rows[f][-1] + (1 if how == "offset+" else -1),)


def _corrupted(builder, f, how, point):
    """Corrupt facet f of `builder` by `_corrupt`, reassigning its tuples,
    as nothing in the engine does."""
    rows, masks = list(builder.rows), list(builder.masks)
    _corrupt(rows, masks, f, how, point)
    builder.rows, builder.masks = tuple(rows), tuple(masks)


@contextlib.contextmanager
def _steps_then(change):
    """Every `polytopes._add` made while the block runs, the real step
    followed by change(rows, masks) on the lists it stepped: a candidate
    of `HullBuilder.extend` with a corrupted step."""
    add = polytopes._add

    def changed(dim, rows, masks, i, q):
        saw = add(dim, rows, masks, i, q)
        change(rows, masks)
        return saw

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, "_add", changed)
        yield


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 7), st.sampled_from(("mask", "offset+", "offset-")))
def test_corrupted_copy_raises(f, point, how):
    # a candidate, the cube's builder extended by a point above its top
    # face, whose step comes back with facet f corrupted, raises; the
    # builder's next candidate, stepped as it should be, gets its hull
    pts, _ = _cube_builder()
    fixed = HullBuilder(_vectors(pts + [None]))
    apex = homogeneous((0, 0, 2))
    with _steps_then(lambda rows, masks: _corrupt(rows, masks, f, how, point)):
        with pytest.raises(DegenerateInput, match="hull verification failed"):
            fixed.extend(8, apex)
    _same_hull(fixed.extend(8, apex), facet_enumeration(vpoly(tuple(pts + [(0, 0, 2)]))))


def _supporting_row(pts, point, axis, how):
    """(row, mask) of a valid, exactly incident row that is no facet of the
    cube: a . x <= b tight at the vertex `point` alone, or along its edge in
    direction `axis`."""
    a = list(pts[point])
    if how == "edge":
        a[axis] = 0
    b = sum(map(abs, a))
    tight = bits(i for i, p in enumerate(pts) if sum(x * y for x, y in zip(a, p)) == b)
    return tuple(a) + (b,), tight


def _cube_without(v):
    """(cube vertices, the builder of all but vertex v).  Extended by v at
    its own position, it carries all six of its rows into the cube's hull:
    the triangle cut off at v goes, and the three faces at v gain it."""
    pts, _ = _cube_builder()
    slots = list(pts)
    slots[v] = None
    return pts, HullBuilder(_vectors(slots))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 7),
    st.sampled_from(("mask", "offset+", "offset-", "vertex", "edge")),
)
def test_rank_proofs_of_a_twin_never_vouch_for_a_corrupted_copy(f, point, how):
    # three candidates of one builder, each the cube's vertex 0 stepped back
    # in: the first proves the rank of the builder's seven rows and of the
    # cube's six facets without elimination, the second's step corrupts
    # facet f or adds a valid row that is no facet and must fail, and the
    # third is the first again
    pts, fixed = _cube_without(0)
    q = homogeneous(pts[0])
    with _eliminations() as calls:
        twin = fixed.extend(0, q)
    assert calls == []

    def corrupt(rows, masks):
        if how in ("vertex", "edge"):
            row, tight = _supporting_row(pts, point, f % 3, how)
            rows.append(row)
            masks.append(tight)
        else:
            _corrupt(rows, masks, f, how, point)

    with _steps_then(corrupt), pytest.raises(DegenerateInput, match="hull verification failed"):
        fixed.extend(0, q)
    _same_hull(twin, facet_enumeration(vpoly(tuple(pts))))
    _same_hull(fixed.extend(0, q), twin)


def test_copy_of_the_fixed_builder_checks_only_the_inserted_point():
    # the first `extend` verifies the builder's seven rows, and no other
    # does; the candidate carries all six of its rows, so `_verify` checks
    # none of them
    pts, fixed = _cube_without(0)
    unchecked = []
    verify = polytopes._verify

    def recording(dim, points, pairs, rows, empty):
        unchecked.append(len(rows))
        return verify(dim, points, pairs, rows, empty)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, "_verify", recording)
        hulls = [fixed.extend(0, homogeneous(pts[0])) for _ in range(2)]
    assert unchecked == [7, 0, 0]
    for hull in hulls:
        _same_hull(hull, facet_enumeration(vpoly(tuple(pts))))
    points, rows, masks, passed = fixed.snapshot
    assert (points, rows, masks) == (fixed.points, fixed.rows, fixed.masks)
    assert passed == set(zip(rows, masks)) and len(passed) == 7
    carried = {(h, m & ~1) for h, m in zip(hulls[0].hrep.inequalities, hulls[0].incidence.facet_masks)}
    assert len(carried) == 6 and carried <= passed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.integers(0, 5))
def test_carried_row_with_the_inserted_bit_flipped_raises(v, f):
    pts, fixed = _cube_without(v)
    with _steps_then(lambda rows, masks: _corrupt(rows, masks, f, "mask", v)):
        with pytest.raises(DegenerateInput, match="hull verification failed: incidence mismatch"):
            fixed.extend(v, homogeneous(pts[v]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.sampled_from(("inside", "outside")))
def test_carried_row_with_wrong_slack_at_the_inserted_point_raises(v, where):
    # the step is that of vertex v at its own position, but the point
    # checked is moved off the three facets whose masks say it is tight: to
    # half its position (slack > 0) or to twice it (slack < 0)
    pts, fixed = _cube_without(v)
    add, own = polytopes._add, homogeneous(pts[v])
    scale, w = (1, 2) if where == "inside" else (2, 1)
    moved = tuple(-scale * c for c in pts[v]) + (w,)
    failure = "incidence mismatch" if where == "inside" else "point outside facet"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, "_add", lambda dim, rows, masks, i, q: add(dim, rows, masks, i, own))
        with pytest.raises(DegenerateInput, match=f"hull verification failed: {failure}"):
            fixed.extend(v, moved)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 6), st.sampled_from(("mask", "offset+", "offset-")))
def test_corrupted_fixed_builder_is_never_vouched_for(v, f, how):
    # the builder's own rows are corrupted before its first `extend`: every
    # candidate raises, also one whose step removes the corrupted row and
    # the centre, which sees no facet
    pts, fixed = _cube_without(v)
    _corrupted(fixed, f, how, (v + 1 + f) % 8)
    for point in (pts[v], tuple(2 * c for c in pts[v]), (0, 0, 0)):
        with pytest.raises(DegenerateInput, match="hull verification failed"):
            fixed.extend(v, homogeneous(point))


def test_fixed_builder_claiming_an_empty_slot_raises():
    # an empty slot is packed as the zero vector, which every row holds
    # tightly, so only the mask test sees a mask that claims the slot
    for v in range(8):
        for f in range(7):
            pts, fixed = _cube_without(v)
            _corrupted(fixed, f, "mask", v)
            with pytest.raises(DegenerateInput, match="hull verification failed: incidence mismatch"):
                fixed.extend(v, homogeneous(pts[v]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets(), st.data(), st.sampled_from(("points", "rows", "masks")))
def test_reassigned_builder_changes_no_later_candidate(pts, data, name):
    """After the first `extend`, the builder's points moved, its rows'
    offsets shifted or its masks emptied reach no later candidate: each
    gets the hull it got before, `facet_enumeration`'s, or None again."""
    v = data.draw(st.integers(0, len(pts) - 1))
    slots = list(pts)
    slots[v] = None
    try:
        fixed = HullBuilder(_vectors(slots))
    except DegenerateInput:
        return
    points = [pts[v], _moved_point(data, pts, v)]
    before = [fixed.extend(v, homogeneous(p)) for p in points]
    changed = {
        "points": tuple(None if q is None else q[:-1] + (2 * q[-1],) for q in fixed.points),
        "rows": tuple(h[:-1] + (h[-1] + 1,) for h in fixed.rows),
        "masks": (0,) * len(fixed.masks),
    }
    setattr(fixed, name, changed[name])
    for p, hull in zip(points, before):
        after = fixed.extend(v, homogeneous(p))
        assert (after is None) == (hull is None)
        if hull is not None:
            moved = list(pts)
            moved[v] = p
            _same_hull(after, hull)
            _same_hull(after, facet_enumeration(vpoly(tuple(moved))))


def test_rank_proofs_are_keyed_by_points_not_slots():
    # slot 8 above the top face makes y + z <= 2 a triangle facet through
    # slots 6, 7 and 8; on the line of the edge from slot 6 to slot 7 the
    # same three slots are collinear, so the same row and mask, supporting
    # but no facet, added to that candidate's step must fail the rank test
    # although another candidate proved it for the same slots
    pts, _ = _cube_builder()
    fixed = HullBuilder(_vectors(pts + [None]))
    above = fixed.extend(8, homogeneous((0, 0, 2)))
    row, tight = (0, 1, 1, 2), bits([6, 7, 8])
    rows = above.hrep.inequalities
    assert row in rows and above.incidence.facet_masks[rows.index(row)] == tight

    def add_row(rows, masks):
        rows.append(row)
        masks.append(tight)

    with _steps_then(add_row), pytest.raises(DegenerateInput, match="facet rank"):
        fixed.extend(8, homogeneous((3, 1, 1)))


def test_supporting_hyperplane_of_a_vertex_fails_facet_rank():
    # x + y + z <= 3 touches the cube in one vertex: valid and incidence
    # exact, but not a facet
    pts, builder = _cube_builder()
    builder.rows += ((1, 1, 1, 3),)
    builder.masks += (bits([pts.index((1, 1, 1))]),)
    with pytest.raises(DegenerateInput, match="facet rank"):
        builder.hull()


def test_repeated_facet_refused():
    _, builder = _cube_builder()
    builder.rows += builder.rows[:1]
    builder.masks += builder.masks[:1]
    with pytest.raises(DegenerateInput, match="repeated facet"):
        builder.hull()


def test_push_verifies_every_candidate(monkeypatch):
    # every candidate's step comes back with a corrupted facet mask (the
    # vertex at its original position, which gives the hull the push starts
    # from, is spared, as are the fixed builder's own steps), and the step
    # still says whether it saw a facet: the first moved point lies inside
    # the hull of the others and builds no hull, and the first one that
    # sees a facet ends the search with the verification failure, which is
    # no rejected candidate
    pts, _ = _cube_builder()
    cube = vpoly(tuple(pts))
    add = polytopes._add
    saw = []

    def corrupting_add(dim, rows, masks, i, q):
        seen = add(dim, rows, masks, i, q)
        if q != homogeneous(pts[i]):
            masks[0] ^= 1 << i
            saw.append(seen)
        return seen

    monkeypatch.setattr(polytopes, "_add", corrupting_add)
    monkeypatch.setattr(constructions, "MAX_HALVINGS", 3)
    with pytest.raises(DegenerateInput, match="hull verification failed: incidence mismatch"):
        push_vertex(cube, 0, seed=1)
    assert saw == [False, True]


# ---------------------------------------------------------------------------
# facet ranks by triangular certificates


@contextlib.contextmanager
def _eliminations():
    """The sizes of the eliminations the rank check falls back to while the
    block runs: the calls of `matrix_rank` made by `_verify`, counted by
    wrapping the name the engine looks up."""
    calls = []
    rank = polytopes.matrix_rank
    spans = polytopes._verify.__code__

    def counting(rows):
        if sys._getframe(1).f_code is spans:
            calls.append(len(rows))
        return rank(rows)

    polytopes.matrix_rank = counting
    try:
        yield calls
    finally:
        polytopes.matrix_rank = rank


def _face_row(builder, points):
    """The primitive sum of the builder's rows tight at all of `points`: a
    valid row whose tight points are the smallest face containing them, the
    zero row when no facet holds them all."""
    want = bits(points)
    total = [0] * (builder.dim + 1)
    for h, m in zip(builder.rows, builder.masks):
        if m & want == want:
            total = [a + b for a, b in zip(total, h)]
    g = math.gcd(*total) or 1
    return tuple(v // g for v in total)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(certify_inputs(), st.data())
def test_certificate_is_found_only_for_rank_dim(pts, data):
    """The witnesses are rows with exactly verified incidence: the facets,
    the supporting rows of the smallest faces holding one or two input
    points (vertices, edges with the lattice points on them, and larger
    faces), and the zero row.  A certificate for any of them means rank
    `dim`, every simplicial facet has one, and every row of lower rank makes
    `hull()` fail."""
    try:
        builder = HullBuilder(_vectors(pts))
    except DegenerateInput:
        return  # embedded inputs need the projection of facet_enumeration
    dim, n = builder.dim, len(pts)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    rows = list(dict.fromkeys(
        [*builder.rows]
        + [_face_row(builder, [i]) for i in range(n)]
        + [_face_row(builder, pair) for pair in pairs]
        + [(0,) * (dim + 1)]
    ))
    masks = list(_tight_masks(builder.points, rows))
    assert None not in masks
    vmasks = FacetIncidence(tuple(masks), n).vertex_masks
    everyone = (1 << len(rows)) - 1
    facets, facet_masks = builder.rows, builder.masks
    for h, m in zip(rows, masks):
        rank = matrix_rank([builder.points[j] for j in iter_bits(m)])
        if any(h) and _triangular_certificate(m, vmasks, everyone, dim):
            assert rank == dim
        elif h in facets:
            assert m.bit_count() > dim
        if rank != dim:
            builder.rows, builder.masks = facets + (h,), facet_masks + (m,)
            with pytest.raises(DegenerateInput, match="hull verification failed: facet rank"):
                builder.hull()


def test_elimination_decides_only_without_a_certificate():
    # the cube's facets all have certificates; a row tight at one vertex
    # has none, so an elimination of its one point rejects it
    pts, builder = _cube_builder()
    with _eliminations() as calls:
        builder.hull()
    assert calls == []
    builder.rows += ((1, 1, 1, 3),)
    builder.masks += (bits([pts.index((1, 1, 1))]),)
    with _eliminations() as calls, pytest.raises(DegenerateInput, match="facet rank"):
        builder.hull()
    assert calls == [1]


def test_q48_artifacts_need_no_elimination(tmp_path, capsys):
    # the q48 hull, its polar (derived by `polar`, then built from a fresh
    # object), the base Minkowski sum and the pinned
    # `construct dstep-iterate q48.poly --steps 2 --seed 0`
    certified = []
    certificate = polytopes._triangular_certificate

    def counting(*args):
        certified.append(certificate(*args))
        return certified[-1]

    q48 = vertices48()
    src = tmp_path / "q48.poly"
    with _eliminations() as calls:
        polytopes._triangular_certificate = counting
        try:
            hull = facet_enumeration(q48)
            assert hull.incidence.n_facets == 322
            assert facet_enumeration(vpoly(polar(q48).vertices)).incidence.n_facets == 48
            minkowski_sum(base_plus(), base_minus())
            assert main(["builtin", "--out", str(src)]) == 0
            assert main(["construct", "dstep-iterate", str(src), "--steps", "2", "--seed", "0"]) == 0
        finally:
            polytopes._triangular_certificate = certificate
    assert capsys.readouterr().out.splitlines()[-1] == "STEP 2 dim=7 vertices=50 facets=1555 width=8"
    assert calls == []
    assert len(certified) > 10_000 and all(certified)


# ---------------------------------------------------------------------------
# the double-description step against its full-scan reference


@contextlib.contextmanager
def _steps_checked_against_the_full_scan():
    """Check every `polytopes._add` made while the block runs: the facets
    after it, as a set of (row, mask) pairs with none repeated, are those
    `reference_add` gives from the facets before it, and it says whether
    the point had negative slack at a facet.  Yields the list of the slots
    stepped."""
    steps = []
    add = polytopes._add

    def checked(dim, rows, masks, i, q):
        saw = any(slack < 0 for slack in (sum(a * b for a, b in zip(h, q)) for h in rows))
        want_rows, want_masks = reference_add(rows, masks, q, i, dim)
        assert add(dim, rows, masks, i, q) is saw
        assert len(rows) == len(want_rows)
        assert set(zip(rows, masks)) == set(zip(want_rows, want_masks))
        steps.append(i)
        return saw

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, "_add", checked)
        yield steps


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(certify_inputs(), boxes(), lines().map(_line_points)))
def test_ridge_candidates_from_the_visible_region_match_the_full_scan(pts):
    """Points on facet hyperplanes and inside faces, some embedded one
    dimension up; lattice boxes, whose facets hold many points; segments
    (k = 1, where every facet is a candidate), embedded when d > 1."""
    with _steps_checked_against_the_full_scan() as steps:
        hull = facet_enumeration(vpoly(tuple(pts)))
    assert len(steps) == len(pts) - hull.dim - 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(point_sets(), certify_inputs(), boxes(max_points=40)), st.data())
def test_steps_on_copies_match_the_full_scan(pts, data):
    """The builder of all points but v, from scratch, and then the point v
    and a moved point (outside, inside, on a facet hyperplane or with new
    denominators) each a candidate extending it: random, grid and prism
    point sets, where simplex facets lie next to larger ones, with points
    inside faces, and lattice boxes."""
    v = data.draw(st.integers(0, len(pts) - 1))
    slots = list(pts)
    slots[v] = None
    with _steps_checked_against_the_full_scan() as scratch:
        try:
            fixed = HullBuilder(_vectors(slots))
        except DegenerateInput:
            return
    moved = _moved_point(data, pts, v)
    with _steps_checked_against_the_full_scan() as extended:
        for point in (pts[v], moved):
            fixed.extend(v, homogeneous(point))
    assert len(scratch) == len(pts) - fixed.dim - 2 and extended == [v, v]


def _visible_shapes(builder, point):
    """The tight-point counts of the facets `point` sees."""
    q = homogeneous(point)
    return sorted(
        m.bit_count() for h, m in zip(builder.rows, builder.masks)
        if sum(a * b for a, b in zip(h, q)) < 0
    )


@pytest.mark.parametrize(
    "point, shapes",
    [
        # beyond an edge of the prism's top triangle: the triangle and a
        # square side
        ((1, -1, 2), [3, 4]),
        # beyond a top corner: the triangle and two square sides
        ((-1, -1, 2), [3, 4, 4]),
        # beyond a corner of the cube: three squares, no simplex
        ((3, 3, 2), [4, 4, 4]),
    ],
)
def test_simplex_and_larger_visible_facets_match_the_full_scan(point, shapes):
    """A point that sees a simplex facet next to square ones, or squares
    only: the simplex's partners come without the ridge veto, the squares'
    with it, and the facets after the step are the full scan's.  In three
    dimensions two facets sharing two points share an edge, so no veto
    fires here; the veto matters where the shared points are affinely
    dependent, as on the grids above and in the q48 polar below."""
    prism = [(x, y, z) for z in (-1, 1) for x, y in ((0, 0), (2, 0), (0, 2))]
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (-1, 1)]
    base = prism if 3 in shapes else cube
    builder = HullBuilder(_vectors(base + [None]))
    assert _visible_shapes(builder, point) == shapes
    with _steps_checked_against_the_full_scan() as steps:
        assert builder.extend(len(base), homogeneous(point)) is not None
    assert steps == [len(base)]


def test_q48_polar_and_base_sum_steps_match_the_full_scan(certificate):
    # the polar's points in a fresh object, so that its hull is built
    # rather than read from the one `polar` derived; all 576 pairwise sums
    # of the bases, of which `minkowski_sum` lists only the 208 vertices,
    # the mixed edges of q48, built by the double-description steps rather
    # than read off q48's hull
    pol = vpoly(polar(certificate.poly).vertices)
    sums = vpoly(tuple(vadd(p, q) for p in base_plus().vertices for q in base_minus().vertices))
    with _steps_checked_against_the_full_scan() as steps:
        pol_hull = facet_enumeration(pol)
        sum_hull = facet_enumeration(sums)
    assert pol_hull.incidence.n_facets == 48 and sum_hull.incidence.n_facets == 320
    # every point but those of the two starting simplices is one step
    assert len(steps) == (322 - 6) + (576 - 5)


# ---------------------------------------------------------------------------
# the integer entry: homogeneous vectors for the duplicate check and the basis


@st.composite
def basis_inputs(draw):
    """Rational points with mixed denominators in dims 1-4 whose first ones
    may be followed by affine combinations of them: an affinely dependent
    prefix the greedy basis must skip."""
    dim = draw(st.integers(1, 4))
    coord = fractions(-4, 4, 7)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8))
    span = pts[: draw(st.integers(1, len(pts)))]
    for _ in range(draw(st.integers(0, 4))):
        weights = [draw(fractions(-2, 2, 5)) for _ in span[1:]]
        combo = [1 - sum(weights, Fraction(0))] + weights
        pts.insert(len(span), tuple(sum(w * p[j] for w, p in zip(combo, span)) for j in range(dim)))
    return pts


@settings(max_examples=200, deadline=None)
@given(st.one_of(basis_inputs(), certify_inputs(), lines().map(_line_points)))
def test_integer_affine_basis_matches_the_fraction_reference(pts):
    vectors = [homogeneous(p) for p in pts]
    assert reduce_rows(vectors)[0] == reference_affine_basis(pts)


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.integers(1, 6), st.data())
def test_duplicate_is_named_as_the_rationals_name_it(pts, scale, data):
    """A copy of point i at index j > i, written as other numbers of the
    same value (an int for an integral Fraction and back), is named as the
    pair (i, j), by `facet_enumeration` and by a builder's `hull()`; as a
    candidate it sees no facet of the builder of the others, so it gets no
    hull."""
    pts = [tuple(Fraction(c, scale) for c in p) for p in pts]
    i = data.draw(st.integers(0, len(pts) - 1))
    j = data.draw(st.integers(i + 1, len(pts)))
    twin = tuple(c.numerator if c.denominator == 1 else Fraction(2 * c.numerator, 2 * c.denominator)
                 for c in pts[i])
    pts.insert(j, twin)
    with pytest.raises(DuplicatePoints, match=f"^points {i} and {j} coincide$"):
        facet_enumeration(vpoly(tuple(pts)))
    slots = list(pts)
    slots[j] = None
    try:
        fixed = HullBuilder(_vectors(slots))
    except DegenerateInput:
        return
    assert fixed.extend(j, homogeneous(twin)) is None
    with pytest.raises(DuplicatePoints, match=f"^points {i} and {j} coincide$"):
        HullBuilder(_vectors(pts)).hull()


# ---------------------------------------------------------------------------
# the starting simplex from one elimination


@st.composite
def simplex_bases(draw):
    """(slots, basis): the homogeneous vectors of d+1 affinely independent
    points in dims 1-5, in ascending slots among empty ones.  Coordinates
    are often 0, so a row's first entry is often 0, some are large or have
    denominators, and the points come in any order, so the basis matrix
    takes either sign of determinant."""
    dim = draw(st.integers(1, 5))
    coord = st.one_of(
        st.just(0), st.integers(-4, 4), fractions(-3, 3, 5),
        st.integers(-(2**40), 2**40),
    )
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 1))
    vectors = [homogeneous(p) for p in pts]
    assume(matrix_rank(vectors) == dim + 1)
    n_slots = draw(st.integers(dim + 1, dim + 4))
    basis = sorted(draw(st.lists(
        st.integers(0, n_slots - 1), min_size=dim + 1, max_size=dim + 1, unique=True
    )))
    slots = [None] * n_slots
    for i, q in zip(basis, vectors):
        slots[i] = q
    return slots, basis


def _started(slots, basis):
    """The rows and masks of the builder of `slots`, which hold the vectors
    of the points of `basis` alone: the greedy basis is then `basis`, in
    its order, and no point is inserted after the simplex."""
    builder = HullBuilder(slots)
    assert sorted(i for i, q in enumerate(slots) if q is not None) == basis
    return list(builder.rows), list(builder.masks)


def _det(rows):
    """The Leibniz determinant, a reference independent of any elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(simplex_bases())
def test_start_rows_match_the_nullspace_reference(data):
    # one kernel of [M | -I] against d+1 kernels, one per facet
    slots, basis = data
    assert _started(slots, basis) == reference_start(slots, basis)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_start_rows_need_a_row_swap_under_either_sign(dim):
    """The origin and the unit points, led by the origin or by e_2: the
    first point's homogeneous vector is 0 in the first column, so the row
    reduction of the builder's start takes its first pivot from a later row.  Trading
    the first two points flips the determinant's sign; under either sign
    each row must meet its opposite point positively, as the reference's
    do."""
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    signs = set()
    for lead in ([(0,) * dim, units[1]], [units[1], (0,) * dim]):
        vectors = [homogeneous(p) for p in lead + units[:1] + units[2:]]
        assert vectors[0][0] == 0
        signs.add(_det(vectors) > 0)
        basis = list(range(dim + 1))
        assert _started(vectors, basis) == reference_start(vectors, basis)
    assert signs == {True, False}
