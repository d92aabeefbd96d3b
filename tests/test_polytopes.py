import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from exactpoly import polytopes
from exactpoly.constructions import strong_dstep_iterate
from exactpoly.polytopes import (
    DuplicatePoints,
    DegenerateInput,
    NotAVertex,
    VPolytope,
    _centroid,
    certify_vertices,
    dual_graph,
    extreme_indices,
    face_maximizing,
    facet_enumeration,
    iter_bits,
    polar,
    vertex_graph,
)
from exactpoly.geometry import DimensionMismatch, affine_rank, dot
from exactpoly.prismatoids import make_prismatoid
from exactpoly.rationals import Rat, clear_denominators, common_denominator
from helpers import (
    centroid,
    check_hull_against_oracle,
    incidence_matrix,
    is_connected,
    random_polytope,
    slack,
)

from exactpoly.geometry import vsub


def pt(*coords):
    return tuple(Rat(c) for c in coords)


def cube(dim=3):
    pts = []
    for m in range(2**dim):
        pts.append(pt(*(1 if m >> i & 1 else -1 for i in range(dim))))
    return VPolytope(tuple(pts))


def simplex(dim):
    pts = [pt(*(0,) * dim)]
    for i in range(dim):
        pts.append(pt(*(1 if j == i else 0 for j in range(dim))))
    return VPolytope(tuple(pts))


def pentagon():
    # integral pentagon (convex, 5 vertices)
    return VPolytope((pt(0, 0), pt(4, 0), pt(6, 3), pt(3, 6), pt(-1, 3)))


class TestFacetEnumeration:
    def test_unit_square(self):
        sq = VPolytope((pt(1, 1), pt(1, -1), pt(-1, 1), pt(-1, -1)))
        hull = facet_enumeration(sq)
        assert set(hull.hrep.inequalities) == {(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)}

    def test_cube_facets(self):
        hull = facet_enumeration(cube())
        assert hull.incidence.n_facets == 6
        assert all(m.bit_count() == 4 for m in hull.incidence.facet_masks)

    def test_output_deterministic(self):
        # a fresh polytope equal to `poly` is enumerated again, while a second
        # call on `poly` itself would return the kept hull
        poly, _ = random_polytope(random.Random(2), 3, 9)
        h1 = facet_enumeration(poly)
        h2 = facet_enumeration(VPolytope(poly.vertices))
        assert h1 is not h2
        assert h1.hrep.inequalities == h2.hrep.inequalities
        assert h1.incidence.facet_masks == h2.incidence.facet_masks

    def test_duplicate_points_reported(self):
        with pytest.raises(DuplicatePoints):
            facet_enumeration(VPolytope((pt(0, 0), pt(1, 0), pt(0, 0))))

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateInput):
            facet_enumeration(VPolytope((pt(2, 2),)))

    def test_segment(self):
        hull = facet_enumeration(VPolytope((pt(-2,), pt(5,))))
        assert set(hull.hrep.inequalities) == {(1, 5), (-1, 2)}

    def test_lower_dimensional_input(self):
        # a triangle embedded in 3-space: facets cut inside the plane
        tri = VPolytope((pt(0, 0, 1), pt(2, 0, 1), pt(0, 2, 1)))
        hull = facet_enumeration(tri)
        assert hull.dim == 2
        assert len(hull.hrep.equalities) == 1
        assert hull.hrep.equalities[0] == (0, 0, 1, 1)
        assert hull.incidence.n_facets == 3
        for q in hull.hrep.inequalities:
            for p in tri.vertices:
                assert slack(q, p) >= 0

    def test_facet_and_ridge_ranks(self):
        rng = random.Random(9)
        for _ in range(8):
            poly, hull = random_polytope(rng, 3, 9)
            k = hull.dim
            for f in range(hull.incidence.n_facets):
                tight = [poly.vertices[v] for v in iter_bits(hull.incidence.facet_masks[f])]
                assert affine_rank(tight) == k - 1
            g = dual_graph(poly, hull)
            for a, b in g.edges:
                common = hull.incidence.facet_masks[a] & hull.incidence.facet_masks[b]
                pts = [poly.vertices[v] for v in iter_bits(common)]
                assert affine_rank(pts) == k - 2

    def test_graphs_connected(self):
        rng = random.Random(13)
        for dim in (2, 3, 4):
            poly, hull = random_polytope(rng, dim, 8)
            assert is_connected(dual_graph(poly, hull))
            assert is_connected(vertex_graph(poly, hull))


class TestOracleEquivalence:
    def test_random_instances_match_bruteforce(self):
        rng = random.Random(42)
        runs = 0
        while runs < 60:
            dim = rng.randint(2, 4)
            n = rng.randint(dim + 1, 10)
            pts = set()
            while len(pts) < n:
                pts.add(pt(*(rng.randint(-5, 5) for _ in range(dim))))
            poly = VPolytope(tuple(sorted(pts, key=lambda p: tuple(int(c) for c in p))))
            if affine_rank(poly.vertices) != dim:
                continue
            check_hull_against_oracle(poly)
            runs += 1

    def test_rational_instances_match_bruteforce(self):
        # non-integer points: the hull scales them by the lcm of their
        # denominators, the oracle works on them as they are
        rng = random.Random(43)
        runs = 0
        while runs < 40:
            dim = rng.randint(2, 4)
            n = rng.randint(dim + 1, 9)
            pts = set()
            while len(pts) < n:
                pts.add(tuple(Rat(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(dim)))
            poly = VPolytope(tuple(sorted(pts)))
            if affine_rank(poly.vertices) != dim:
                continue
            check_hull_against_oracle(poly)
            runs += 1


def _no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, (tuple, list)):
        return all(_no_floats(x) for x in obj)
    return True


def _hrep_values(hull):
    return list(hull.hrep.inequalities + hull.hrep.equalities)


class TestIntegerTypedInput:
    """Points typed as plain `int` never turn into floats on the way through."""

    def test_full_dimensional(self):
        pts = ((0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 5), (3, 3, 3))
        poly = VPolytope(pts)
        hull = facet_enumeration(poly)
        assert _no_floats(_hrep_values(hull))
        assert certify_vertices(poly, hull) is poly
        pol = polar(poly)
        assert _no_floats(pol.vertices)
        assert all(type(v) is Rat for p in pol.vertices for v in p)
        hull_pol = facet_enumeration(pol)
        assert hull_pol.incidence.n_facets == len(pts)
        assert _no_floats(_hrep_values(hull_pol))

    def test_lower_dimensional_needs_a_chart(self):
        # a quadrilateral in the plane x + y + z = 6 of 3-space
        pts = ((6, 0, 0), (0, 6, 0), (0, 0, 6), (4, 4, -2))
        poly = VPolytope(pts)
        hull = facet_enumeration(poly)
        assert hull.dim == 2
        assert hull.hrep.equalities == ((1, 1, 1, 6),)
        assert hull.incidence.n_facets == 4
        assert _no_floats(_hrep_values(hull))
        assert certify_vertices(poly, hull) is poly


class TestRationalChart:
    def test_rational_polygon_lifted_to_a_plane(self):
        # the copy at x3 = 1/3 of a rational polygon has the polygon's
        # incidence and its facets extended by a zero coefficient
        polygon = VPolytope((pt(0, 0), pt(Rat(7, 2), 0), pt(Rat(9, 2), Rat(5, 3)),
                             pt(2, Rat(11, 3)), pt(Rat(-1, 4), Rat(3, 2))))
        flat = VPolytope(tuple(p + (Rat(1, 3),) for p in polygon.vertices))
        hull2 = facet_enumeration(polygon)
        hull3 = facet_enumeration(flat)
        assert hull3.dim == 2
        assert hull3.hrep.equalities == ((0, 0, 3, 1),)
        assert hull3.incidence.facet_masks == hull2.incidence.facet_masks
        assert hull3.hrep.inequalities == tuple(
            q[:2] + (0,) + q[2:] for q in hull2.hrep.inequalities
        )
        certify_vertices(flat, hull3)


class TestHullReuse:
    """A polytope keeps the hull `facet_enumeration` built for it; the
    cache follows the object, never its value."""

    def test_same_object_same_hull(self):
        poly = pentagon()
        assert facet_enumeration(poly) is facet_enumeration(poly)

    def test_equal_polytope_gets_its_own_hull(self):
        # the kept hull takes no part in comparison, hashing or repr
        poly = pentagon()
        hull = facet_enumeration(poly)
        twin = VPolytope(poly.vertices)
        assert twin == poly and hash(twin) == hash(poly) and repr(twin) == repr(poly)
        other = facet_enumeration(twin)
        assert other is not hull
        assert other.hrep == hull.hrep
        assert other.incidence.facet_masks == hull.incidence.facet_masks

    def test_input_that_raises_keeps_nothing(self, monkeypatch):
        dup = VPolytope((pt(0, 0), pt(1, 0), pt(0, 0)))
        for _ in range(2):
            with pytest.raises(DuplicatePoints):
                facet_enumeration(dup)
        assert dup._hull is None
        # a hull that fails its verification is not kept either
        poly = pentagon()

        def failing(*args, **kwargs):
            raise DegenerateInput("hull verification failed: planted")

        monkeypatch.setattr(polytopes, "_verify", failing)
        with pytest.raises(DegenerateInput, match="planted"):
            facet_enumeration(poly)
        assert poly._hull is None
        monkeypatch.undo()
        assert facet_enumeration(poly).incidence.n_facets == 5
        # nor is a polar whose derived hull fails it: `polar` raises
        monkeypatch.setattr(polytopes, "_verify", failing)
        with pytest.raises(DegenerateInput, match="planted"):
            polar(poly)

    def test_hull_optional_calls_build_one_hull(self, hull_builds):
        c = cube()
        certify_vertices(c)
        pol = polar(c)
        pr = make_prismatoid(c)
        assert pr.hull is facet_enumeration(c)
        assert hull_builds == [8]
        assert pol == polar(cube())
        assert hull_builds == [8, 8]


class TestCertifyVertices:
    def test_center_of_square_rejected(self):
        sq = VPolytope((pt(1, 1), pt(1, -1), pt(-1, 1), pt(-1, -1), pt(0, 0)))
        with pytest.raises(NotAVertex):
            certify_vertices(sq)

    def test_boundary_non_vertex_rejected(self):
        seg = VPolytope((pt(0, 0), pt(2, 0), pt(1, 0), pt(0, 2)))
        with pytest.raises(NotAVertex):
            certify_vertices(seg)

    def test_cube_certifies(self):
        c = cube()
        assert certify_vertices(c) is c


class TestGraphs:
    def test_cube_dual_is_octahedron(self):
        c = cube()
        hull = facet_enumeration(c)
        g = dual_graph(c, hull)
        assert g.n == 6
        assert all(len(g.adj[v]) == 4 for v in range(6))
        assert g.diameter() == 2

    def test_cube_vertex_graph_diameter(self):
        c = cube()
        hull = facet_enumeration(c)
        assert vertex_graph(c, hull).diameter() == 3

    def test_simplex_dual_diameter_one(self):
        for d in (2, 3, 4):
            s = simplex(d)
            hull = facet_enumeration(s)
            assert dual_graph(s, hull).diameter() == 1

    def test_pentagon_product_diameter(self):
        from exactpoly.constructions import product

        p = product(pentagon(), pentagon())
        hull = facet_enumeration(p)
        assert hull.dim == 4
        assert hull.incidence.n_facets == 10
        assert vertex_graph(p, hull).diameter() == 4


class TestSimplicity:
    """Simple: every vertex on exactly dim facets; simplicial: every facet
    through exactly dim vertices."""

    def test_cube(self):
        inc = facet_enumeration(cube()).incidence
        assert all(m.bit_count() == 3 for m in inc.vertex_masks)
        assert not all(m.bit_count() == 3 for m in inc.facet_masks)

    def test_octahedron(self):
        o = VPolytope(tuple(pt(*(s if j == i else 0 for j in range(3)))
                            for i in range(3) for s in (1, -1)))
        inc = facet_enumeration(o).incidence
        assert not all(m.bit_count() == 3 for m in inc.vertex_masks)
        assert all(m.bit_count() == 3 for m in inc.facet_masks)


def _same_hull(a, b):
    assert a.hrep == b.hrep and a.dim == b.dim
    assert a.incidence.facet_masks == b.incidence.facet_masks
    assert a.incidence.n_vertices == b.incidence.n_vertices


@st.composite
def polar_inputs(draw):
    """Full-dimensional points in dims 2-5 with fractional coordinates,
    with points that are not vertices put in at drawn places: the centroid
    (interior), the midpoint of an edge and the centroid of a facet's
    points."""
    dim = draw(st.integers(2, 5))
    coord = st.fractions(-3, 3, max_denominator=4)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=9, unique=True))
    assume(affine_rank(pts) == dim)
    poly = VPolytope(tuple(pts))
    hull = facet_enumeration(poly)
    edges = vertex_graph(poly, hull).edges
    extra = []
    for kind in draw(st.sets(st.sampled_from(("interior", "edge", "facet")))):
        if kind == "interior":
            extra.append(centroid(pts))
        elif kind == "edge":
            a, b = draw(st.sampled_from(sorted(edges)))
            extra.append(centroid([pts[a], pts[b]]))
        else:
            mask = draw(st.sampled_from(hull.incidence.facet_masks))
            extra.append(centroid([pts[j] for j in iter_bits(mask)]))
    for p in dict.fromkeys(extra):
        if p not in pts:
            pts.insert(draw(st.integers(0, len(pts))), p)
    return pts


class TestPolar:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(polar_inputs())
    def test_polar_hull_by_duality_is_the_built_one(self, pts):
        # the hull `polar` derives from the input's and keeps, against the
        # double-description build over a fresh object with the same
        # points; a point that is not a vertex gives no polar facet
        poly = VPolytope(tuple(pts))
        pol = polar(poly)
        kept = facet_enumeration(pol)
        assert kept.incidence.n_facets == len(extreme_indices(facet_enumeration(poly)))
        _same_hull(kept, facet_enumeration(VPolytope(pol.vertices)))

    def test_cube_polar_is_cross_polytope(self):
        p = polar(cube())
        want = {pt(*(s if j == i else 0 for j in range(3))) for i in range(3) for s in (1, -1)}
        assert set(p.vertices) == want

    def test_double_polar_round_trip(self):
        # each vertex returns on its own ray: the second centroid shift makes
        # the round trip exact only up to a positive per-vertex scaling
        from exactpoly.rationals import primitive_ints

        rng = random.Random(21)
        for dim in (2, 3):
            poly, _ = random_polytope(rng, dim, 8)
            c = centroid(poly.vertices)
            centered = VPolytope(tuple(vsub(v, c) for v in poly.vertices))
            back = certify_vertices(polar(polar(centered)))
            rays = {tuple(primitive_ints(list(v))) for v in back.vertices}
            want = {tuple(primitive_ints(list(v))) for v in centered.vertices}
            assert rays == want

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda dim: st.lists(
        st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * dim),
        min_size=dim + 1, max_size=9, unique=True,
    ).filter(lambda pts: affine_rank(pts) == dim)))
    def test_polar_from_the_given_hull(self, pts):
        # the rows of the hull kept on the input, translated by the
        # centroid, against the enumeration of the translated points
        poly = VPolytope(tuple(pts))
        c = centroid(poly.vertices)
        assume(any(c))
        shifted = facet_enumeration(VPolytope(tuple(vsub(p, c) for p in poly.vertices)))
        want = tuple(tuple(Rat(a, q[-1]) for a in q[:-1]) for q in shifted.hrep.inequalities)
        assert polar(poly) == VPolytope(want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda dim: st.lists(
        st.tuples(*[st.fractions(-40, 40, max_denominator=12)] * dim), min_size=1, max_size=12,
    )))
    def test_integer_shift_is_the_centroid(self, pts):
        # the integer shift (n, s) of `polar` against the centroid taken
        # with `Fraction` sums: s / n is that centroid in lowest terms
        n, s, _, _ = _centroid(pts)
        c = centroid(pts)
        assert n == common_denominator(c) and s == clear_denominators(c)
        assert n > 0 and tuple(Rat(v, n) for v in s) == c

    def test_double_polar_exact_on_cube(self):
        back = polar(polar(cube()))
        assert set(back.vertices) == set(cube().vertices)

    def test_incidence_transpose(self, q48, q48_pr):
        # the polar's hull has one facet per input vertex, the one with
        # normal v - c, and its incidence is the transpose of the input's;
        # polar vertex i is the input facet whose shifted row sorts i-th,
        # which on the lift is not facet i.  Both the hull `polar` derived
        # and kept and the one built from a fresh object are checked.
        lift = strong_dstep_iterate(q48_pr, 1, seed=0)[0].polytope
        for poly in (cube(), q48, lift):
            hull = facet_enumeration(poly)
            p = polar(poly)
            c = centroid(poly.vertices)
            shifted = {vsub(v, c): i for i, v in enumerate(poly.vertices)}
            index = {y: i for i, y in enumerate(p.vertices)}
            facet_of = [None] * p.n_vertices
            for f, q in enumerate(hull.hrep.inequalities):
                facet_of[index[tuple(Rat(a) / (q[-1] - dot(q[:-1], c)) for a in q[:-1])]] = f
            mat = incidence_matrix(hull.incidence)
            kept, built = facet_enumeration(p), facet_enumeration(VPolytope(p.vertices))
            _same_hull(kept, built)
            for hull_p in (kept, built):
                assert hull_p.incidence.n_facets == poly.n_vertices
                rows_p = hull_p.hrep.inequalities
                vertex_of = [shifted[tuple(Rat(a, q[-1]) for a in q[:-1])] for q in rows_p]
                assert incidence_matrix(hull_p.incidence) == tuple(
                    tuple(mat[f][v] for f in facet_of) for v in vertex_of
                )

    def test_interior_origin_required(self):
        # all points in a halfspace far from the centroid-shifted origin: fine
        # after shift, so build a genuinely degenerate (flat) input instead
        flat = VPolytope((pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)))
        with pytest.raises(DegenerateInput):
            polar(flat)


class TestFaceMaximizing:
    def test_cube_square_face(self):
        c = cube()
        face = face_maximizing(c, pt(1, 0, 0))
        assert face.dim == 2
        assert len(face.vertex_indices) == 4

    def test_cube_vertex(self):
        c = cube()
        face = face_maximizing(c, pt(1, 1, 1))
        assert face.dim == 0
        assert [c.vertices[i] for i in face.vertex_indices] == [pt(1, 1, 1)]

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInput):
            face_maximizing(cube(), pt(0, 0, 0))

    @pytest.mark.parametrize("direction", [(1, 0), (1, 0, 0, 0), (0, 0, 0, 1)])
    def test_direction_of_wrong_length_rejected(self, direction):
        # zipped with the vertices, (1, 0) would give the square x = 1 and
        # (1, 0, 0, 0) would lose its last coordinate
        with pytest.raises(DimensionMismatch, match="direction of dimension"):
            face_maximizing(cube(), pt(*direction))
