import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactpoly.counterexample import (
    FAMILY_BIDIMENSION,
    check_base_structure,
    check_minkowski_section,
    check_spindle_polar,
    gminus_vertices,
    gplus_vertices,
)
from exactpoly.geometry import DegenerateInput, DimensionMismatch, affine_rank
from exactpoly.normalfans import (
    bi_dimensions,
    interior_owner,
    is_combinatorial_cube,
    minkowski_sum,
    normal_cone,
    normal_map_interiority_check,
    pair_dstep_property,
    torus_membership_check,
    torus_plot_data,
    torus_project,
    transversality_check,
)
from exactpoly.polytopes import VPolytope, dual_graph, face_maximizing, facet_enumeration, iter_bits
from exactpoly.prismatoids import width
from exactpoly.rationals import Rat
from helpers import random_prismatoid, reference_minkowski_sum


def pt(*coords):
    return tuple(Rat(c) for c in coords)


def assert_report(rep):
    assert rep.passed, "\n".join(c.line() for c in rep.failures())


class TestNormalCones:
    def test_square_vertex_cone(self):
        sq = VPolytope((pt(1, 1), pt(1, -1), pt(-1, 1), pt(-1, -1)))
        hull = facet_enumeration(sq)
        v = sq.vertices.index(pt(1, 1))
        assert set(normal_cone(hull, v)) == {pt(1, 0), pt(0, 1)}
        assert interior_owner(sq, pt(2, 3)) == v
        assert interior_owner(sq, pt(1, 0)) is None  # boundary direction
        assert interior_owner(sq, pt(-1, -1)) != v

    def test_worked_cone_containment(self, qminus, qminus_hull):
        c = qminus.vertices.index(pt(45, 0, 0, 0))
        # explicit halfspace description of this cone
        d = pt(5, 1, 2, 1)
        assert 2 * d[1] <= d[0] and -2 * d[1] <= d[0]
        assert 2 * d[2] <= d[0] and -2 * d[2] <= d[0]
        assert 2 * d[3] <= 5 * d[0] and -2 * d[3] <= 5 * d[0]
        assert interior_owner(qminus, d) == c
        gens = set(normal_cone(qminus_hull, c))
        assert gens == {pt(2, a, b, 5 * s) for a in (1, -1) for b in (1, -1) for s in (1, -1)}

    def test_interior_owner_unique(self, qplus):
        assert interior_owner(qplus, pt(0, 0, 1, 0)) == qplus.labels.index("5+")
        assert interior_owner(qplus, pt(5, 1, 2, 1)) is None  # on a cone boundary

    @pytest.mark.parametrize("direction", [(1, 0), (1, 0, 0, 0), (1, 1, 1, 0)])
    def test_interior_owner_rejects_a_direction_of_wrong_length(self, direction):
        # zipped with the cube's vertices, (1, 0) would see a square and
        # (1, 1, 1, 0) would own the vertex (1, 1, 1)
        cube = VPolytope(tuple(itertools.product((Fraction(-1), Fraction(1)), repeat=3)))
        with pytest.raises(DimensionMismatch):
            interior_owner(cube, pt(*direction))


# ---------------------------------------------------------------------------
# the face work against `face_maximizing` on the rational summands

SCALE = st.fractions(Fraction(1, 6), 4, max_denominator=6)


@st.composite
def summands(draw):
    """A 3-polytope with rational coordinates: lattice points on a sphere
    (a drawn subset that spans), or the vertices of a box, scaled by a
    positive rational."""
    if draw(st.booleans()):
        r2 = draw(st.sampled_from((2, 3, 5, 6, 9)))
        sphere = [p for p in itertools.product(range(-3, 4), repeat=3) if sum(x * x for x in p) == r2]
        pts = draw(st.lists(st.sampled_from(sphere), min_size=4, max_size=10, unique=True))
        pts = pts if affine_rank(pts) == 3 else sphere
    else:
        sides = draw(st.tuples(*[st.integers(1, 3)] * 3))
        pts = list(itertools.product(*((0, s) for s in sides)))
    c = draw(SCALE)
    return VPolytope(tuple(tuple(c * x for x in p) for p in pts))


@settings(max_examples=40, deadline=None)
@given(summands(), summands() | st.none(), SCALE)
def test_minkowski_faces_match_face_maximizing(a, b, c):
    """Each facet's two faces, found on integer copies and ranked once per
    distinct face, are `face_maximizing` of its normal on the rational
    summands; with no second summand drawn, it is a scaled copy of the
    first, whose faces are the first's."""
    if b is None:
        b = VPolytope(tuple(tuple(c * x for x in p) for p in a.vertices))
    ms = minkowski_sum(a, b)
    for mf in ms.facets:
        assert mf.face_plus == face_maximizing(a, mf.normal)
        assert mf.face_minus == face_maximizing(b, mf.normal)


def flattened(poly):
    """The image of a summand under (x, y, z) -> (x, y, x - y), a polygon
    in a plane of R^3, with repeated points dropped."""
    return VPolytope(tuple(dict.fromkeys((x, y, x - y) for x, y, _ in poly.vertices)))


@settings(max_examples=60, deadline=None)
@given(summands(), summands(), SCALE, st.sampled_from(("drawn", "scaled", "one flat", "both flat")))
def test_minkowski_prefilter_keeps_the_unfiltered_sum(a, b, c, shape):
    """Skipping the pairwise sums that cannot be vertices changes nothing:
    the vertices, rows (equalities too), incidence, faces and provenance
    equal those of the hull of every pairwise sum, for rational summands,
    a scaled copy (every edge has a parallel partner), and summands in a
    plane (a full or a lower-dimensional sum)."""
    if shape == "scaled":
        b = VPolytope(tuple(tuple(c * x for x in p) for p in a.vertices))
    elif shape != "drawn":
        a = flattened(a)
        b = flattened(b) if shape == "both flat" else b
    ms = minkowski_sum(a, b)
    vertices, hrep, masks, faces, provenance = reference_minkowski_sum(a, b)
    assert ms.polytope.vertices == vertices
    assert ms.hull.hrep == hrep
    assert ms.hull.incidence.facet_masks == masks
    assert tuple((mf.face_plus, mf.face_minus) for mf in ms.facets) == faces
    assert ms.provenance == provenance


@settings(max_examples=60, deadline=None)
@given(summands(), st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 3), st.data())
def test_interior_owner_matches_the_face_reference(poly, direction, data):
    """The owner is the face of dimension 0 that `face_maximizing` finds,
    on Fraction directions and on facet normals, which are boundary
    directions; the zero direction has none."""
    with pytest.raises(DegenerateInput, match="zero direction"):
        interior_owner(poly, (Fraction(0),) * 3)
    if data.draw(st.booleans()):
        rows = facet_enumeration(poly).hrep.inequalities
        direction = tuple(Fraction(a) for a in data.draw(st.sampled_from(rows))[:-1])
        assert interior_owner(poly, direction) is None
    elif not any(direction):
        return
    face = face_maximizing(poly, direction)
    want = face.vertex_indices[0] if face.dim == 0 else None
    assert interior_owner(poly, direction) == want


class TestBaseStructure:
    def test_gplus_count_and_torus(self):
        pts = gplus_vertices()
        assert len(pts) == 32
        assert_report(torus_membership_check(pts))

    def test_gminus_listing(self):
        pts = gminus_vertices()
        assert len(pts) == 32
        assert pt(1, 2, 5, 1) in pts and pt(2, 1, 1, 5) in pts

    def test_base_plus_facets_match(self, qplus_hull):
        assert qplus_hull.incidence.n_facets == 32
        got = {q[:-1] for q in qplus_hull.hrep.inequalities}
        assert got == set(gplus_vertices())
        assert all(q[-1] == 90 for q in qplus_hull.hrep.inequalities)

    def test_base_report(self, certificate):
        assert_report(check_base_structure(certificate))

    def test_eight_facets_per_vertex_cube_figure(self, qplus, qplus_hull):
        for v in range(qplus.n_vertices):
            gens = normal_cone(qplus_hull, v)
            assert len(gens) == 8
            assert is_combinatorial_cube(gens)

    def test_cube_detector_accepts_skew_cube(self):
        # octahedron plus two opposite apexes is a combinatorial cube
        octa = [pt(*(s if j == i else 0 for j in range(3))) for i in range(3) for s in (1, -1)]
        assert is_combinatorial_cube(tuple(octa) + (pt(1, 1, 1), pt(-1, -1, -1)))

    def test_cube_detector_rejects_pulled_cube(self):
        # pulling one cube vertex far out creates triangles
        pts = [pt(*(1 if m >> i & 1 else -1 for i in range(3))) for m in range(8)]
        pts[7] = pt(3, 3, 3)
        assert not is_combinatorial_cube(tuple(pts))

    def test_cube_detector_rejects_wrong_rank(self):
        flat = tuple(pt(i, j, 0, 0) for i in range(2) for j in range(4))
        assert not is_combinatorial_cube(flat)


class TestMinkowskiSum:
    def test_two_segments_make_parallelogram(self):
        a = VPolytope((pt(0, 0), pt(2, 1)))
        b = VPolytope((pt(0, 0), pt(-1, 1)))
        ms = minkowski_sum(a, b)
        assert ms.polytope.n_vertices == 4
        assert ms.n_facets == 4
        assert sorted(mf.bi_dimension for mf in ms.facets) == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_sum_facet_count(self, base_sum):
        assert base_sum.n_facets == 320

    def test_decomposition_covers_facet_vertices(self, base_sum, qplus, qminus):
        # every vertex of a sum facet splits as a vertex of F+ plus one of F-
        inc = base_sum.hull.incidence
        for f, mf in enumerate(base_sum.facets):
            fp = set(mf.face_plus.vertex_indices)
            fm = set(mf.face_minus.vertex_indices)
            for v in iter_bits(inc.facet_masks[f]):
                assert any(i in fp and j in fm for i, j in base_sum.provenance[v])

    def test_bidimension_bands(self, base_sum):
        from collections import Counter

        bands = Counter(mf.bi_dimension for mf in base_sum.facets)
        assert bands == {(3, 0): 32, (2, 1): 128, (1, 2): 128, (0, 3): 32}

    def test_minkowski_section_report(self, certificate):
        assert_report(check_minkowski_section(certificate))

    def test_dimension_mismatch(self):
        with pytest.raises(DegenerateInput):
            minkowski_sum(VPolytope((pt(0, 0), pt(1, 0))), VPolytope((pt(0,), pt(1,))))


class TestPairDStep:
    def test_counterexample_pair(self, qplus, qminus, base_sum):
        has, min_facets = pair_dstep_property(qplus, qminus, 5, ms=base_sum)
        assert not has
        assert min_facets == 5

    def test_consistent_with_width(self, q48_pr, qplus, qminus, base_sum):
        _, min_facets = pair_dstep_property(qplus, qminus, 5, ms=base_sum)
        assert width(q48_pr) == min_facets + 1

    def test_two_squares(self):
        a = VPolytope((pt(0, 0), pt(3, 1), pt(4, 4), pt(1, 3)))
        b = VPolytope((pt(0, 0), pt(2, -1), pt(5, 1), pt(1, 2)))
        has, min_facets = pair_dstep_property(a, b, 3, ms=minkowski_sum(a, b))
        assert has
        assert min_facets <= 2

    def test_random_low_dimension_equivalence(self):
        # every prismatoid of dimension <= 4 has the d-step property, and the
        # width always equals the minimum facet sequence plus one
        rng = random.Random(77)
        done = 0
        while done < 12:
            d = rng.choice((3, 4))
            pr, top, bot = random_prismatoid(rng, d, 7)
            w = width(pr)
            has, min_facets = pair_dstep_property(top, bot, d, ms=minkowski_sum(top, bot))
            assert w == min_facets + 1
            assert has == (w <= d)
            assert has
            done += 1


class TestTransversality:
    def test_counterexample_transversal(self, q48_pr):
        assert_report(transversality_check(q48_pr, bi_dimensions(q48_pr)))

    def test_band_examples(self, q48_pr, q48_labels):
        by_label = {str(l): i for i, l in enumerate(q48_labels)}
        table = bi_dimensions(q48_pr)
        for name, want in (("B++++", (3, 0)), ("C++++", (2, 1))):
            assert FAMILY_BIDIMENSION[name[0]] == want
            assert table[by_label[name]] == want


class TestInteriority:
    def test_parts_pass(self, qplus, qminus):
        rep = normal_map_interiority_check(qplus, qminus, (4, 5, 6, 7), (4, 5, 6, 7))
        assert_report(rep)

    def test_contrapositive_blocks_short_paths(self, qplus, qminus, base_sum):
        # interiority part 3 plus transversality rule out any 3-step path, so
        # the measured minimum must exceed 4 facets
        _, min_facets = pair_dstep_property(qplus, qminus, 5, ms=base_sum)
        assert min_facets > 4

    def test_orbit_restriction_detects_wrong_orbit(self, qplus, qminus):
        rep = normal_map_interiority_check(qplus, qminus, (0, 1, 2, 3), (4, 5, 6, 7))
        assert not rep.passed


class TestSpindle:
    def test_polar_spindle_report(self, certificate):
        assert_report(check_spindle_polar(certificate))


class TestTorus:
    def test_axis_points(self):
        assert torus_project(pt(1, 0, 1, 0)) == (0.0, 0.0)
        a1, a2 = torus_project(pt(0, 1, 0, 1))
        assert math.isclose(a1, math.pi / 2) and math.isclose(a2, math.pi / 2)

    def test_sample_angles(self):
        a1, a2 = torus_project(pt(5, 1, 2, 1))
        assert math.isclose(a1, 0.19739555984988078, rel_tol=1e-12)
        assert math.isclose(a2, 0.4636476090008061, rel_tol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            torus_project(pt(0, 0, 1, 1))

    def test_plot_data_lines(self, qplus, qplus_hull):
        g = dual_graph(qplus, qplus_hull)
        lines = torus_plot_data(qplus_hull, g, "p")
        torus_lines = [l for l in lines if l.startswith("TORUS ")]
        edge_lines = [l for l in lines if l.startswith("EDGE ")]
        assert len(torus_lines) == 32
        assert len(edge_lines) == len(g.edges) == 80
