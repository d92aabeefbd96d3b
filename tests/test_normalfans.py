import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactpoly.counterexample import (
    FAMILY_BIDIMENSION,
    Certificate,
    check_base_structure,
    check_minkowski_section,
    check_spindle_polar,
    gminus_vertices,
    gplus_vertices,
    vertices48,
)
from exactpoly import normalfans
from exactpoly.geometry import DegenerateInput, DimensionMismatch, affine_rank, vadd
from exactpoly.normalfans import (
    bi_dimensions,
    facet_normals,
    interior_owner,
    is_combinatorial_cube,
    minkowski_sum,
    minkowski_sum_from_cayley,
    normal_cone,
    normal_map_interiority_check,
    pair_dstep_property,
    torus_membership_check,
    torus_plot_data,
    torus_project,
    transversality_check,
)
from exactpoly.polytopes import (
    FacetIncidence,
    HPolytope,
    VPolytope,
    affine_chart,
    dual_graph,
    facet_enumeration,
    keep_hull,
)
from exactpoly.prismatoids import width
from exactpoly.rationals import Rat
from helpers import face_maximizing, random_prismatoid, reference_minkowski_sum, reference_two_pass_sum


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
# the bi-dimensions against `face_maximizing` on the rational summands

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
    """Each facet's bi-dimension, found on integer copies and ranked once
    per distinct face, is that of the faces `face_maximizing` finds for its
    normal on the rational summands; with no second summand drawn, it is a
    scaled copy of the first, whose faces are the first's."""
    if b is None:
        b = VPolytope(tuple(tuple(c * x for x in p) for p in a.vertices))
    ms = minkowski_sum(a, b)
    normals = facet_normals(ms.hull)
    assert len(ms.bidims) == len(normals)
    for normal, (dim_plus, dim_minus) in zip(normals, ms.bidims):
        assert dim_plus == face_maximizing(a, normal).dim
        assert dim_minus == face_maximizing(b, normal).dim


def flattened(poly):
    """The image of a summand under (x, y, z) -> (x, y, x - y), a polygon
    in a plane of R^3, with repeated points dropped."""
    return VPolytope(tuple(dict.fromkeys((x, y, x - y) for x, y, _ in poly.vertices)))


SHAPES = (
    "drawn", "scaled", "one flat", "both flat", "point", "segment", "flat segment", "parallel segment"
)


def shaped(a, b, c, shape):
    """The summands (a, b) of the drawn `shape` of SHAPES, made from drawn
    summands `a` and `b` and scale `c`."""
    if shape == "scaled":
        b = VPolytope(tuple(tuple(c * x for x in p) for p in a.vertices))
    elif shape in ("one flat", "both flat"):
        a = flattened(a)
        b = flattened(b) if shape == "both flat" else b
    elif shape == "point":
        b = VPolytope((tuple(c * x for x in b.vertices[0]),))
    elif shape == "parallel segment":
        a0, a1 = a.vertices[:2]
        start = tuple(c * x for x in b.vertices[0])
        b = VPolytope((start, tuple(s + c * (y - x) for s, x, y in zip(start, a0, a1))))
    elif shape != "drawn":
        a = flattened(a) if shape == "flat segment" else a
        b = VPolytope(tuple(tuple(c * x for x in p) for p in flattened(b).vertices[:2]))
    return a, b


@settings(max_examples=80, deadline=None)
@given(summands(), summands(), SCALE, st.sampled_from(SHAPES))
@example(  # a tetrahedron and a square: a small failing case needs no shrinking
    VPolytope((pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))),
    VPolytope((pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0), pt(2, 2, 0))),
    Fraction(1),
    "drawn",
)
def test_minkowski_sum_is_the_hull_of_every_pairwise_sum(a, b, c, shape):
    """The vertices and their order, the rows (equalities too), the
    incidence and the bi-dimensions equal those of the hull of
    every pairwise sum: for rational summands; for summands with parallel
    edges, where a_i + b_j lies strictly inside the segment from a_i + b_l
    to a_k + b_j (a scaled copy, where every edge has a parallel partner,
    two boxes, and a segment parallel to a_1 - a_0); for summands in a
    plane (a full or a lower-dimensional sum); for a one-point summand (the
    sum is a translate; the Cayley polytope is a pyramid, one base no
    facet); and for a segment summand (a prism over the other, or a polygon
    when both lie in a plane)."""
    a, b = shaped(a, b, c, shape)
    ms = minkowski_sum(a, b)
    vertices, hrep, masks, bidims = reference_minkowski_sum(a, b)
    assert ms.polytope.vertices == vertices
    assert ms.hull.hrep == hrep
    assert ms.hull.incidence.facet_masks == masks
    assert ms.bidims == bidims


@settings(max_examples=40, deadline=None)
@given(summands(), summands(), st.sampled_from(SHAPES[:4]))
def test_sum_from_cayley_on_the_chart_is_the_direct_sum(a, b, shape):
    """The sum read off a Cayley polytope the caller built, `a` at height 1
    and `b` at height -1, is `minkowski_sum`'s in every part, for full and
    lower-dimensional sums (on the chart of the sum's affine hull)."""
    if shape == "scaled":
        b = VPolytope(tuple(tuple(2 * x for x in p) for p in a.vertices))
    elif shape in ("one flat", "both flat"):
        a = flattened(a)
        b = flattened(b) if shape == "both flat" else b
    direct = minkowski_sum(a, b)
    cols = affine_chart(direct.polytope.vertices)[2].cols
    cayley = VPolytope(
        tuple(tuple(p[c] for c in cols) + (1,) for p in a.vertices)
        + tuple(tuple(q[c] for c in cols) + (-1,) for q in b.vertices)
    )
    ms = minkowski_sum_from_cayley(a, b, cayley)
    assert ms == direct
    assert ms.hull.hrep == direct.hull.hrep
    assert ms.hull.incidence.facet_masks == direct.hull.incidence.facet_masks
    assert_two_pass_sum(direct, a, b)


def assert_two_pass_sum(ms, a, b):
    """`ms`, the sum of `a` and `b` checked in one pass, equals the
    two-pass reference in every part: vertices, bi-dimensions, rows and
    masks."""
    reference = reference_two_pass_sum(a, b)
    assert ms == reference
    assert ms.hull.hrep == reference.hull.hrep
    assert ms.hull.incidence.facet_masks == reference.hull.incidence.facet_masks


@settings(max_examples=60, deadline=None)
@given(summands(), summands(), SCALE, st.sampled_from(SHAPES))
@example(  # a triangle and a segment off its plane: b spans a direction a lacks
    VPolytope((pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0))),
    VPolytope((pt(0, 0, 0), pt(0, 0, 1))),
    Fraction(1),
    "drawn",
)
def test_summands_chart_is_the_chart_of_every_sum(a, b, c, shape):
    """The chart `_candidates` finds from the |a| + |b| - 1 sums a_i + b_0
    and a_0 + b_j is `affine_chart` of all the pairwise sums: its columns
    and its equality rows, for full and lower-dimensional sums."""
    a, b = shaped(a, b, c, shape)
    sums = tuple(dict.fromkeys(vadd(p, q) for p in a.vertices for q in b.vertices))
    assert normalfans._candidates(a, b).chart == affine_chart(sums)[2]


SQUARE = VPolytope((pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)))


@pytest.mark.parametrize("which", ["squares", "q48 bases"])
def test_a_non_vertex_sum_meets_every_row(certificate, monkeypatch, which):
    # a row's derived mask gains a sum that is no vertex and is not tight
    # there (on the squares' sum, an edge midpoint; on q48's base sum,
    # where every non-vertex sum is interior, one of those); its smallest
    # face keeps a point of the row besides it, so the vertex test still
    # drops it, and only the check of every sum against every row sees the
    # false bit
    derive = normalfans._derived_rows
    flipped = []

    def flipping(cand, n, cayley):
        rows = derive(cand, n, cayley)
        faces = FacetIncidence(tuple(m for _, m, _ in rows), len(cand.sums)).smallest_faces
        f, c = next(
            (f, c) for c, face in enumerate(faces) if face != 1 << c
            for f, (_, m, _) in enumerate(rows) if not m >> c & 1 and face & m
        )
        h, m, mask = rows[f]
        rows[f] = (h, m | 1 << c, mask)
        flipped.append(c)
        return rows

    monkeypatch.setattr(normalfans, "_derived_rows", flipping)
    with pytest.raises(DegenerateInput, match="^hull verification failed: incidence mismatch$"):
        if which == "squares":
            minkowski_sum(SQUARE, SQUARE)
        else:
            minkowski_sum_from_cayley(certificate.qplus, certificate.qminus, certificate.poly)
    assert len(flipped) == 1


def test_a_cayley_row_with_a_wrong_offset_is_refused():
    # the Cayley polytope of two squares, its hull kept with one non-base
    # row moved outward: the sum's row derived from it holds no sum tightly
    cayley = VPolytope(tuple(p + (1,) for p in SQUARE.vertices) + tuple(p + (-1,) for p in SQUARE.vertices))
    hull = facet_enumeration(VPolytope(cayley.vertices))
    rows = list(hull.hrep.inequalities)
    f = next(f for f, row in enumerate(rows) if any(row[:2]))
    rows[f] = rows[f][:-1] + (rows[f][-1] + 1,)
    keep_hull(cayley, dataclasses.replace(hull, hrep=HPolytope(3, tuple(rows))))
    with pytest.raises(DegenerateInput, match="^hull verification failed: incidence mismatch$"):
        minkowski_sum_from_cayley(SQUARE, SQUARE, cayley)


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

    def test_base_report_reads_the_bases_kept_hulls(self, hull_builds):
        # the section builds each base's hull from its own 24 points, apart
        # from q48's, and keeps it on the base: a second report, and every
        # later reader, finds it there
        ctx = Certificate(vertices48())
        assert check_base_structure(ctx).passed
        kept = ctx.qplus._hull, ctx.qminus._hull
        assert check_base_structure(ctx).passed
        assert facet_enumeration(ctx.qplus) is kept[0] and facet_enumeration(ctx.qminus) is kept[1]
        assert sorted(n for n in hull_builds if n != 8) == [24, 24]

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
        assert ms.hull.incidence.n_facets == 4
        assert sorted(ms.bidims) == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_sum_facet_count(self, base_sum):
        assert base_sum.hull.incidence.n_facets == len(base_sum.bidims) == 320

    def test_bidimension_bands(self, base_sum):
        from collections import Counter

        bands = Counter(base_sum.bidims)
        assert bands == {(3, 0): 32, (2, 1): 128, (1, 2): 128, (0, 3): 32}

    def test_minkowski_section_report(self, certificate):
        assert_report(check_minkowski_section(certificate))

    def test_base_sum_matches_the_reference(self, base_sum, qplus, qminus):
        # the hull of all 576 pairwise sums, built by the double-description
        # builder, and the faces maximized on the rational bases: the sum's
        # hull, derived from the Cayley polytope, must be the same in every
        # part, down to a dropped row, which `_verify` cannot see
        vertices, hrep, masks, bidims = reference_minkowski_sum(qplus, qminus)
        assert base_sum.polytope.vertices == vertices
        assert base_sum.hull.hrep == hrep
        assert base_sum.hull.incidence.facet_masks == masks
        assert base_sum.bidims == bidims

    def test_base_sum_is_the_two_pass_sum(self, base_sum, qplus, qminus):
        # the one-pass check of q48's base sum against every pairwise sum
        # derives what two full verifications and summand ranks derived
        assert_two_pass_sum(base_sum, qplus, qminus)

    def test_sum_hull_is_kept_on_its_polytope(self, hull_builds):
        ms = minkowski_sum(
            VPolytope((pt(0, 0), pt(2, 1), pt(1, 3))), VPolytope((pt(0, 0), pt(-1, 1)))
        )
        assert hull_builds == [5]  # the Cayley polytope's, and no other
        assert ms.hull is facet_enumeration(ms.polytope)
        assert hull_builds == [5]

    def test_sum_from_cayley_is_the_direct_sum(self, base_sum, qplus, qminus):
        # the sum read off q48's hull, the bases' Cayley polytope, is
        # `minkowski_sum`'s, built on the bases' own Cayley polytope
        direct = minkowski_sum(qplus, qminus)
        assert base_sum.polytope.vertices == direct.polytope.vertices
        assert base_sum.bidims == direct.bidims
        assert base_sum.hull.hrep == direct.hull.hrep
        assert base_sum.hull.incidence.facet_masks == direct.hull.incidence.facet_masks

    @pytest.mark.parametrize("how", ["swapped summands", "moved point", "reordered"])
    def test_sum_from_cayley_refuses_another_polytope(self, certificate, hull_builds, how):
        q48, qplus, qminus = certificate.poly, certificate.qplus, certificate.qminus
        poly = q48
        if how == "swapped summands":
            qplus, qminus = qminus, qplus
        elif how == "moved point":
            p = q48.vertices[5]
            poly = VPolytope(q48.vertices[:5] + ((p[0] + 1,) + p[1:],) + q48.vertices[6:])
        else:
            poly = VPolytope(q48.vertices[1:2] + q48.vertices[:1] + q48.vertices[2:])
        with pytest.raises(DegenerateInput, match="^not the Cayley polytope of the summands$"):
            minkowski_sum_from_cayley(qplus, qminus, poly)
        assert hull_builds == []  # refused before any hull is read or built

    def test_dimension_mismatch(self):
        with pytest.raises(DegenerateInput):
            minkowski_sum(VPolytope((pt(0, 0), pt(1, 0))), VPolytope((pt(0,), pt(1,))))

    def test_point_plus_point_has_no_facets(self):
        with pytest.raises(DegenerateInput, match="^affine rank < 1: a single point has no facets$"):
            minkowski_sum(VPolytope((pt(1, 2),)), VPolytope((pt(3, -1),)))


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
        table = bi_dimensions(q48_pr)
        for name, want in (("B++++", (3, 0)), ("C++++", (2, 1))):
            assert FAMILY_BIDIMENSION[name[0]] == want
            assert table[q48_labels.index(name)] == want


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
        lines = torus_plot_data(qplus_hull, "p")
        torus_lines = [l for l in lines if l.startswith("TORUS ")]
        edge_lines = [l for l in lines if l.startswith("EDGE ")]
        assert len(torus_lines) == 32
        assert len(edge_lines) == len(g.edges) == 80
