import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from exactpoly import constructions, polytopes
from exactpoly.constructions import (
    REJECTION_CAUSES,
    _fixed_builder,
    _moved,
    _push,
    BlendGraph,
    ConstructionFailed,
    PushFailed,
    blend_graph,
    family_parameters,
    hirsch_excess,
    one_point_suspension,
    product,
    push_vertex,
    strong_dstep_iterate,
    strong_dstep_step,
)
from exactpoly.geometry import DegenerateInput
from exactpoly.polytopes import (
    VPolytope,
    dual_graph,
    facet_enumeration,
    iter_bits,
    vertex_graph,
)
from exactpoly.prismatoids import make_prismatoid, width
from exactpoly.rationals import Rat
from helpers import (
    check_suspension_distances,
    lifted_distance_dominates,
    push_into,
    random_polytope,
    reference_push,
    suspension_facet_map,
)


def pt(*coords):
    return tuple(Rat(c) for c in coords)


def cube(dim=3):
    return VPolytope(tuple(
        pt(*(1 if m >> i & 1 else -1 for i in range(dim))) for m in range(2**dim)
    ))


def pentagon():
    return VPolytope((pt(0, 0), pt(4, 0), pt(6, 3), pt(3, 6), pt(-1, 3)))


def cube_prismatoid():
    c = cube()
    rows = facet_enumeration(c).hrep.inequalities
    return make_prismatoid(c, (rows.index((0, 0, 1, 1)), rows.index((0, 0, -1, 1))))


def triangular_prism():
    p = VPolytope(tuple(
        pt(x, y, z) for (x, y) in ((0, 0), (3, 0), (0, 3)) for z in (-1, 1)
    ))
    rows = facet_enumeration(p).hrep.inequalities
    return make_prismatoid(p, (rows.index((0, 0, 1, 1)), rows.index((0, 0, -1, 1))))


class TestOnePointSuspension:
    def test_pentagon_gives_six_vertices_eight_facets(self):
        p = pentagon()
        s = one_point_suspension(p, 0)
        hull = facet_enumeration(s)
        assert s.n_vertices == 6
        assert hull.dim == 3
        assert hull.incidence.n_facets == 8
        assert all(m.bit_count() == 3 for m in hull.incidence.facet_masks)

    def test_segment_endpoint_gives_triangle(self):
        seg = VPolytope((pt(0,), pt(4,)))
        s = one_point_suspension(seg, 1)
        hull = facet_enumeration(s)
        assert s.n_vertices == 3
        assert hull.dim == 2
        assert hull.incidence.n_facets == 3

    def test_square_gives_bipyramid(self):
        sq = VPolytope((pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)))
        s = one_point_suspension(sq, 0)
        hull = facet_enumeration(s)
        assert s.n_vertices == 5
        assert hull.incidence.n_facets == 6
        assert all(m.bit_count() == 3 for m in hull.incidence.facet_masks)

    def test_facet_pattern_on_random_polytopes(self):
        rng = random.Random(31)
        for _ in range(10):
            dim = rng.randint(2, 3)
            poly, hull = random_polytope(rng, dim, 8)
            v = rng.randrange(poly.n_vertices)
            # raises if the enumerated facets differ from the expected pattern
            S, hull_S, expected = suspension_facet_map(poly, hull, v)
            assert S.n_vertices == poly.n_vertices + 1
            assert hull_S.dim == dim + 1
            assert len(expected) == hull_S.incidence.n_facets

    def test_bad_vertex_index(self):
        with pytest.raises(ValueError):
            one_point_suspension(pentagon(), 9)


class TestSuspensionDistances:
    def test_pentagon_all_pairs(self):
        p = pentagon()
        hull = facet_enumeration(p)
        check_suspension_distances(p, hull, 0)
        check_suspension_distances(p, hull, 1)

    def test_same_facet_trivial(self):
        p = pentagon()
        assert lifted_distance_dominates(p, 1, 2, 2)

    def test_explicit_pair(self):
        p = pentagon()
        assert lifted_distance_dominates(p, 0, 0, 2, choice=("u", "w"))

    def test_random_suite(self):
        rng = random.Random(17)
        for _ in range(6):
            dim = rng.randint(2, 3)
            poly, hull = random_polytope(rng, dim, 8)
            v = rng.randrange(poly.n_vertices)
            check_suspension_distances(poly, hull, v)


class TestPushVertex:
    def test_push_simplex_vertex_keeps_simplex(self):
        s = VPolytope((pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0), pt(0, 0, 4)))
        pushed = push_vertex(s, 0, seed=5)
        hull = facet_enumeration(pushed)
        assert hull.incidence.n_facets == 4
        assert pushed.vertices[0] != s.vertices[0]

    def test_push_into_face(self):
        c = cube()
        hull = facet_enumeration(c)
        top = [v for v in range(8) if c.vertices[v][2] == 1]
        pushed = push_into(c, top[0], top, seed=2)
        assert pushed.vertices[top[0]][2] == 1  # stays in the face hyperplane

    def test_exhaustion_reported(self):
        # the full step lands on the interior target, where the point is no
        # vertex; the three shorter steps fail only the caller's predicate
        with pytest.raises(PushFailed) as exc:
            push_into(cube(), 0, range(8), 1, lambda p, v: False, 3)
        assert str(exc.value) == (
            "push of vertex 0: perturbation search exhausted after 4 candidates: "
            "not a vertex 1, facet merge violated 0, not generic 3"
        )

    def test_verification_failure_ends_the_search(self, q48):
        # a fixed row of the q48 builder corrupted after the hull the push
        # starts from was verified fails every candidate's verification;
        # that is a fault to raise, not 17 candidates that are not vertices
        fixed = _fixed_builder(q48, 3)
        start = _moved(q48, 3, q48.vertices[3], fixed)
        h = fixed.rows[0]
        fixed.rows[0] = h[:-1] + (h[-1] + 1,)
        with pytest.raises(DegenerateInput, match="hull verification failed"):
            _push(start, 3, fixed, range(q48.n_vertices), 1, None, 16)

    def test_facet_map_is_simplicial(self):
        # adjacent facets of the pushed polytope map to equal or adjacent
        # facets of the original
        rng = random.Random(23)
        for _ in range(5):
            poly, hull = random_polytope(rng, 3, 8)
            v = rng.randrange(poly.n_vertices)
            try:
                pushed = push_vertex(poly, v, seed=rng.randrange(1 << 20))
            except PushFailed:
                continue
            pushed_hull = facet_enumeration(pushed)
            vmasks = hull.incidence.vertex_masks
            phi = []
            for mask in pushed_hull.incidence.facet_masks:
                cands = -1
                for j in iter_bits(mask):
                    cands &= vmasks[j]
                assert cands.bit_count() == 1
                phi.append(cands.bit_length() - 1)
            g_old = dual_graph(poly, hull)
            g_new = dual_graph(pushed, pushed_hull)
            old_edges = set(g_old.edges)
            for a, b in g_new.edges:
                fa, fb = phi[a], phi[b]
                assert fa == fb or (min(fa, fb), max(fa, fb)) in old_edges


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 2**20),
    st.sampled_from(("interior", "facet", "edge", "vertex")),
    st.integers(0, 8),
)
def test_push_matches_reference(poly_seed, seed, face, max_halvings):
    # the push accepts the same candidate as the plain loop that hulls
    # every candidate from scratch, or fails where it finds none; the
    # interior push is push_vertex itself, under the drawn budget
    rng = random.Random(poly_seed)
    poly, hull = random_polytope(rng, 3, 8)
    v = rng.randrange(poly.n_vertices)
    if face == "facet":
        region = hull.incidence.vertices_of(rng.randrange(hull.incidence.n_facets))
    elif face == "edge":
        region = rng.choice(vertex_graph(poly, hull).edges)
    elif face == "vertex":
        region = (rng.randrange(poly.n_vertices),)
    else:
        region = None
    want = reference_push(poly, v, region, seed, max_halvings)
    try:
        if region is None:
            with mock.patch.object(constructions, "MAX_HALVINGS", max_halvings):
                got = push_vertex(poly, v, seed=seed).vertices
        else:
            got = push_into(poly, v, region, seed, max_halvings=max_halvings).vertices
    except PushFailed:
        got = None
    assert got == (want and want.vertices)


class TestStrongDStep:
    def test_cube_single_step(self):
        pr = cube_prismatoid()
        new_pr, rec = strong_dstep_step(pr, width(pr), seed=3)
        assert (rec.dim, rec.n_vertices) == (4, 9)
        assert rec.width >= 3
        assert new_pr.asimpliciality == pr.asimpliciality - 1

    def test_exhausted_search_counts_rejections(self, monkeypatch):
        # no candidate can reach width 100: every apex move is rejected, and
        # the message accounts for each one by cause
        pr = cube_prismatoid()
        monkeypatch.setattr(constructions, "STEP_HALVINGS", 1)
        with pytest.raises(ConstructionFailed) as exc:
            strong_dstep_step(pr, 100, seed=3)
        msg = str(exc.value)
        m = re.fullmatch(r"perturbation search exhausted after (\d+) candidates: (.*)", msg)
        assert m, msg
        counts = dict(re.fullmatch(r"(.*) (\d+)", part).groups() for part in m[2].split(", "))
        assert tuple(counts) == REJECTION_CAUSES
        # 4 apexes, 4 redraws each, 2 step lengths per redraw
        assert int(m[1]) == sum(map(int, counts.values())) == 4 * 4 * 2
        assert int(counts["width not increased"]) > 0

    def test_simplex_bases_rejected(self):
        pr = triangular_prism()
        with pytest.raises(ConstructionFailed):
            strong_dstep_step(pr, width(pr), seed=0)

    def test_iterate_zero_steps(self):
        pr = cube_prismatoid()
        final, trace = strong_dstep_iterate(pr, 0, seed=1)
        assert final is pr
        assert len(trace) == 1
        assert trace[0].width == 2

    def test_iterate_caps_at_asimpliciality(self):
        pr = cube_prismatoid()  # asimpliciality 2
        final, trace = strong_dstep_iterate(pr, 5, seed=4)
        assert len(trace) == 3
        widths = [r.width for r in trace]
        assert widths[0] == 2
        assert widths[1] >= 3 and widths[2] >= 4
        assert [r.dim for r in trace] == [3, 4, 5]
        assert [r.n_vertices for r in trace] == [8, 9, 10]

    def test_trace_line_format(self):
        pr = cube_prismatoid()
        _, trace = strong_dstep_iterate(pr, 1, seed=0)
        line = trace[1].line(1)
        assert line.startswith("STEP 1 dim=4 vertices=9 facets=")
        assert "width=" in line


class TestHullBuilds:
    """The searches build each candidate's hull by one insertion into a copy
    of a fixed builder, and read every hull they hold from the polytope that
    keeps it; pairing a polytope with a hull rebuilt from scratch would add
    a build and a call of `polytopes._enumerate`."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        enumerate_points = polytopes._enumerate

        def counting(pts):
            calls.append(len(pts))
            return enumerate_points(pts)

        monkeypatch.setattr(polytopes, "_enumerate", counting)
        return calls

    def test_push_builds_six_hulls(self, q48, hull_builds, enumerations):
        push_vertex(q48, 3, seed=1)
        assert hull_builds == [48] * 6
        assert enumerations == []

    def test_strong_dstep_step_builds_fourteen_hulls(self, q48_pr, hull_builds, enumerations):
        strong_dstep_iterate(q48_pr, 1, seed=0)
        assert hull_builds == [49] * 14
        assert enumerations == []


class TestProductsAndPowers:
    def test_cube_as_segment_power(self):
        seg = VPolytope((pt(-1,), pt(1,)))
        c = product(product(seg, seg), seg)
        hull = facet_enumeration(c)
        assert hull.incidence.n_facets == 6
        assert vertex_graph(c, hull).diameter() == 3

    def test_pentagon_product(self):
        p = product(pentagon(), pentagon())
        hull = facet_enumeration(p)
        assert hull.dim == 4
        assert hull.incidence.n_facets == 10
        assert vertex_graph(p, hull).diameter() == 4

    def test_counts_additive_on_random_pairs(self):
        rng = random.Random(8)
        for _ in range(4):
            p1, h1 = random_polytope(rng, 2, 7)
            p2, h2 = random_polytope(rng, 2, 7)
            prod = product(p1, p2)
            hull = facet_enumeration(prod)
            assert hull.incidence.n_facets == h1.incidence.n_facets + h2.incidence.n_facets
            d1 = vertex_graph(p1, h1).diameter()
            d2 = vertex_graph(p2, h2).diameter()
            assert vertex_graph(prod, hull).diameter() == d1 + d2


class TestBlend:
    def test_two_cubes(self):
        bg = blend_graph(cube(), 0, cube(), 7)
        assert isinstance(bg, BlendGraph)
        assert bg.facet_count == 9
        assert bg.n_nodes == 14
        assert bg.diameter() >= 5

    def test_two_simplices(self):
        s = VPolytope((pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0), pt(0, 0, 2)))
        bg = blend_graph(s, 0, s, 3)
        assert bg.facet_count == 3 + 2  # d + 2
        assert bg.n_nodes == 6  # 2d

    def test_cube_with_simplex(self):
        s = VPolytope((pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0), pt(0, 0, 2)))
        bg = blend_graph(cube(), 2, s, 0)
        assert bg.facet_count == 6 + 1

    def test_non_simple_rejected(self):
        octa = VPolytope(tuple(pt(*(s if j == i else 0 for j in range(3)))
                               for i in range(3) for s in (1, -1)))
        with pytest.raises(ValueError):
            blend_graph(octa, 0, octa, 1)

    def test_bad_matching_rejected(self):
        with pytest.raises(ValueError):
            blend_graph(cube(), 0, cube(), 0, facet_matching={0: 0})

    def test_every_matching_of_cubes_reaches_five(self):
        from itertools import permutations

        c = cube()
        hull = facet_enumeration(c)
        f1 = sorted(hull.incidence.facets_of(0))
        f2 = sorted(hull.incidence.facets_of(7))
        for perm in permutations(f2):
            bg = blend_graph(c, 0, c, 7, facet_matching=dict(zip(f1, perm)))
            assert bg.diameter() >= 5


class TestHirschArithmetic:
    def test_seed_example(self):
        rep = hirsch_excess(43, 86, 44)
        assert rep.excess == Rat(1, 43)
        assert not rep.is_hirsch

    def test_cube_has_zero_excess(self):
        rep = hirsch_excess(3, 6, 3)
        assert rep.excess == 0
        assert rep.is_hirsch

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hirsch_excess(5, 5, 1)

    def test_family_glueing_example(self):
        fp = family_parameters(43, 86, 44, k=1, j=2)
        assert (fp.dim, fp.facets, fp.diameter_lb) == (43, 129, 87)

    def test_family_no_glueing(self):
        fp = family_parameters(43, 86, 44, k=2, j=1)
        assert fp.excess_lb == Rat(1, 43)

    def test_family_excess_chain(self):
        # finite-j excess strictly exceeds the limit, which meets the bound
        eps = Rat(1, 43)
        for j in (2, 5, 100):
            fp = family_parameters(43, 86, 44, k=2, j=j)
            assert fp.excess_lb == eps - Rat(j - 1, j * 2 * 43)
            assert fp.excess_lb > fp.excess_limit >= fp.theorem_bound
            assert fp.excess_lb > fp.theorem_bound

    def test_refined_bound_strict_for_big_violation(self):
        fp = family_parameters(4, 10, 9, k=2, j=3)
        assert fp.refined_bound > fp.theorem_bound
        assert fp.excess_limit > fp.theorem_bound

    def test_family_rejects_hirsch_input(self):
        with pytest.raises(ValueError):
            family_parameters(3, 6, 3, 1, 1)
