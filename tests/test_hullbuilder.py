"""The double-description hull builder against full facet enumeration.

A builder of the fixed points plus one inserted point must give exactly the
hull that `facet_enumeration` gives for the whole set, whether the point
lands outside the hull, inside it, on a facet hyperplane, or brings
denominators the fixed points do not have.  The inputs lean toward the cases
that are not in general position: {-1,0,1} grids, where many points share
each facet hyperplane, and prisms, whose side facets are not simplices.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exactpoly.constructions import PushFailed, push_vertex_with_hull
from exactpoly.geometry import DegenerateInput, DimensionMismatch
from exactpoly.polytopes import (
    DuplicatePoints,
    HullBuilder,
    VPolytope,
    bits,
    dual_graph,
    facet_enumeration,
    iter_bits,
)
from helpers import check_hull_against_oracle, reference_dual_graph_edges

COORD = st.integers(-3, 3)
WEIGHT = st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7)


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


def _same_hull(got, want):
    assert got.dim == want.dim
    assert got.hrep == want.hrep
    assert got.incidence.facet_masks == want.incidence.facet_masks


def _moved_point(data, pts, v):
    """A new position for point v, relative to the hull of the others."""
    others = pts[:v] + pts[v + 1:]
    fixed_hull = facet_enumeration(VPolytope(tuple(others)))
    ineqs = fixed_hull.hrep.inequalities
    f = data.draw(st.integers(0, len(ineqs) - 1))
    tight = [others[j] for j in iter_bits(fixed_hull.incidence.facet_masks[f])]
    dim = len(pts[0])
    kind = data.draw(st.sampled_from(("outside", "inside", "on facet", "rational")))
    if kind == "outside":
        # beyond facet f: a tight point plus a positive multiple of its normal
        c = data.draw(WEIGHT)
        return tuple(t + c * a for t, a in zip(tight[0], ineqs[f].coeffs))
    if kind == "inside":
        # a strictly positive convex combination of all the others
        weights = [data.draw(WEIGHT) for _ in others]
        total = sum(weights)
        return tuple(sum(w * p[j] for w, p in zip(weights, others)) / total for j in range(dim))
    if kind == "on facet":
        # an affine combination of the facet's tight points, inside the facet
        # or out on its hyperplane
        weights = [data.draw(st.fractions(-2, 2, max_denominator=5)) for _ in tight[1:]]
        first = 1 - sum(weights, Fraction(0))
        combo = [first] + weights
        return tuple(sum(w * p[j] for w, p in zip(combo, tight)) for j in range(dim))
    return tuple(
        data.draw(st.fractions(-4, 4, max_denominator=7)) for _ in range(dim)
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets(), st.data())
def test_insert_into_fixed_builder_matches_facet_enumeration(pts, data):
    v = data.draw(st.integers(0, len(pts) - 1))
    slots = list(pts)
    slots[v] = None
    try:
        fixed = HullBuilder(slots)
    except DegenerateInput:
        # the others are not full-dimensional: the searches fall back to
        # facet_enumeration there
        return
    # the original point first, then a moved one, each into its own copy
    for point in (pts[v], _moved_point(data, pts, v)):
        moved = list(pts)
        moved[v] = point
        poly = VPolytope(tuple(moved))
        builder = fixed.copy()
        builder.insert(v, point)
        try:
            want = facet_enumeration(poly)
        except DuplicatePoints:
            with pytest.raises(DuplicatePoints):
                builder.hull()
            continue
        got = builder.hull()
        _same_hull(got, want)
        assert dual_graph(poly, got).edges == reference_dual_graph_edges(poly, got)
    # the copies left the fixed builder as it was
    assert fixed.points[v] is None


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_builder_matches_oracle_and_reference_dual_graph(pts):
    poly = VPolytope(tuple(pts))
    hull = facet_enumeration(poly)
    if hull.dim == poly.ambient_dim:
        check_hull_against_oracle(poly)
    assert dual_graph(poly, hull).edges == reference_dual_graph_edges(poly, hull)


def test_segment_dual_graph_is_one_edge():
    seg = VPolytope(((Fraction(-2),), (Fraction(5),)))
    hull = facet_enumeration(seg)
    assert dual_graph(seg, hull).edges == ((0, 1),) == reference_dual_graph_edges(seg, hull)


def test_builder_refuses_bad_use():
    square = [(0, 0), (1, 0), (0, 1), None]
    with pytest.raises(DegenerateInput, match="not full-dimensional"):
        HullBuilder([(0, 0), (1, 1), (2, 2), None])
    builder = HullBuilder(square)
    with pytest.raises(ValueError, match="empty"):
        builder.hull()
    with pytest.raises(DimensionMismatch):
        builder.insert(3, (1, 1, 1))
    with pytest.raises(ValueError, match="already filled"):
        builder.insert(0, (1, 1))
    builder.insert(3, (1, 1))
    assert builder.hull().incidence.n_facets == 4


# ---------------------------------------------------------------------------
# the verification pass refuses a corrupted builder


def _cube_builder():
    pts = [tuple(1 if m >> i & 1 else -1 for i in range(3)) for m in range(8)]
    return pts, HullBuilder(pts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 7), st.sampled_from(("mask", "offset+", "offset-")))
def test_corrupted_copy_raises(f, point, how):
    pts, builder = _cube_builder()
    twin = builder.copy()
    if how == "mask":
        twin.masks[f] ^= 1 << point
    else:
        h = twin.rows[f]
        twin.rows[f] = (h[0] + (1 if how == "offset+" else -1),) + h[1:]
    with pytest.raises(DegenerateInput, match="hull verification failed"):
        twin.hull()
    # the original is untouched by the corruption of its copy
    _same_hull(builder.hull(), facet_enumeration(VPolytope(tuple(pts))))


def test_supporting_hyperplane_of_a_vertex_fails_facet_rank():
    # x + y + z <= 3 touches the cube in one vertex: valid and incidence
    # exact, but not a facet
    pts, builder = _cube_builder()
    builder.rows.append((3, -1, -1, -1))
    builder.masks.append(bits([pts.index((1, 1, 1))]))
    with pytest.raises(DegenerateInput, match="facet rank"):
        builder.hull()


def test_repeated_facet_refused():
    _, builder = _cube_builder()
    builder.rows.append(builder.rows[0])
    builder.masks.append(builder.masks[0])
    with pytest.raises(DegenerateInput, match="repeated facet"):
        builder.hull()


def test_push_verifies_every_candidate(monkeypatch):
    # every inserted candidate comes back with a corrupted facet mask: the
    # search must refuse each one, so the push fails
    pts, _ = _cube_builder()
    cube = VPolytope(tuple(pts))
    hull = facet_enumeration(cube)
    insert = HullBuilder.insert

    def corrupting_insert(self, i, point):
        insert(self, i, point)
        self.masks[0] ^= 1 << i

    monkeypatch.setattr(HullBuilder, "insert", corrupting_insert)
    with pytest.raises(PushFailed, match="pushed point is not a vertex"):
        push_vertex_with_hull(cube, 0, seed=1, old_hull=hull, max_halvings=3)
