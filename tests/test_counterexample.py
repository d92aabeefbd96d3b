import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from exactpoly import polytopes
from exactpoly.counterexample import (
    EXPECTED_FACET_COUNT,
    Certificate,
    REPRESENTATIVE_NEIGHBORS,
    _FAMILIES,
    BASE_SWAP,
    _close_group,
    check_facet_census,
    check_neighbor_lists,
    check_orbit_quotient,
    check_orbits,
    check_prism_collinearities,
    check_representative_facets,
    check_symmetries,
    check_width,
    expected_facets,
    facet_orbits,
    induced_permutation,
    symmetry_groups,
    top_base_figures,
    verify_counterexample,
    vertices48,
)
from exactpoly.fileformats import write_hpoly, write_incidence
from exactpoly.polytopes import (
    VPolytope,
    dual_graph,
    facet_enumeration,
    vertex_graph,
)
from exactpoly.prismatoids import NotAPrismatoid, _parallel, make_prismatoid, width
from exactpoly.rationals import Rat
from helpers import (
    apply_ineq,
    identity,
    mat_apply,
    mat_mul,
    primitive_ints,
    reference_close_group,
    reference_parallel,
    reference_rank,
    relabeled,
    signed_matrix,
    signed_pairs,
    suspension_facet_map,
    verify_quick,
)
from northstar import HULL_TEXT, sha256


def assert_report(rep):
    assert rep.passed, "\n".join(c.line() for c in rep.failures())


# the paper's facet families, rational as printed: (letter, primed,
# ((coef, axis), ...) in sign-slot order, x5 coefficient, right-hand side),
# the independent reference of the integer rows of `_FAMILIES`
PAPER_FAMILIES = (
    ("B", False, ((5, 0), (1, 1), (2, 2), (1, 3)), Rat(135, 2), Rat(315, 2)),
    ("B", True, ((5, 1), (1, 0), (2, 3), (1, 2)), Rat(135, 2), Rat(315, 2)),
    ("C", False, ((4, 0), (2, 1), (Rat(7, 4), 2), (Rat(5, 4), 3)), 45, 135),
    ("C", True, ((4, 1), (2, 0), (Rat(7, 4), 3), (Rat(5, 4), 2)), 45, 135),
    ("D", False, ((4, 0), (1, 1), (2, 2), (1, 3)), 45, 135),
    ("D", True, ((4, 1), (1, 0), (2, 3), (1, 2)), 45, 135),
    ("E", False, ((3, 0), (Rat(3, 2), 1), (Rat(3, 2), 2), (1, 3)), 30, 105),
    ("E", True, ((3, 1), (Rat(3, 2), 0), (Rat(3, 2), 3), (1, 2)), 30, 105),
    ("F", False, ((2, 0), (1, 1), (1, 2), (1, 3)), 15, 75),
    ("F", True, ((2, 1), (1, 0), (1, 3), (1, 2)), 15, 75),
    ("G", False, ((2, 2), (1, 3), (1, 1), (1, 0)), -15, 75),
    ("G", True, ((2, 3), (1, 2), (1, 0), (1, 1)), -15, 75),
    ("H", False, ((3, 2), (Rat(3, 2), 3), (Rat(3, 2), 1), (1, 0)), -30, 105),
    ("H", True, ((3, 3), (Rat(3, 2), 2), (Rat(3, 2), 0), (1, 1)), -30, 105),
    ("I", False, ((4, 2), (1, 3), (2, 1), (1, 0)), -45, 135),
    ("I", True, ((4, 3), (1, 2), (2, 0), (1, 1)), -45, 135),
    ("J", False, ((4, 2), (2, 3), (Rat(7, 4), 1), (Rat(5, 4), 0)), -45, 135),
    ("J", True, ((4, 3), (2, 2), (Rat(7, 4), 0), (Rat(5, 4), 1)), -45, 135),
    ("K", False, ((5, 2), (1, 3), (2, 1), (1, 0)), Rat(-135, 2), Rat(315, 2)),
    ("K", True, ((5, 3), (1, 2), (2, 0), (1, 1)), Rat(-135, 2), Rat(315, 2)),
)


class TestData:
    def test_vertex_5_plus(self, q48):
        i = q48.labels.index("5+")
        assert q48.vertices[i] == tuple(Rat(c) for c in (0, 0, 45, 0, 1))

    def test_labels(self, q48):
        assert q48.labels[0] == "1+"
        assert q48.labels[47] == "24-"
        assert len(set(q48.labels)) == 48

    def test_affine_rank_five_by_homogenized_elimination(self, q48):
        # independent oracle: the Fraction rank of the homogenized 48 x 6
        # matrix
        rows = [list(p) + [Rat(1)] for p in q48.vertices]
        assert reference_rank(rows) == 6

    def test_expected_facets_table(self):
        table = expected_facets()
        assert len(table) == EXPECTED_FACET_COUNT
        # each member's rational row from the paper's table, made primitive
        # on its own: the same keys in the same order as the expansion of
        # the integer `_FAMILIES`, and the same labels, the family letter,
        # its prime and a sign per slot
        reference = {(0, 0, 0, 0, 1, 1): "A", (0, 0, 0, 0, -1, 1): "L"}
        for letter, primed, terms, x5, rhs in PAPER_FAMILIES:
            for signs in itertools.product("+-", repeat=4):
                row = [Rat(0)] * 5 + [rhs]
                for (coef, axis), s in zip(terms, signs):
                    row[axis] = coef if s == "+" else -coef
                row[4] = x5
                reference[tuple(primitive_ints(row))] = letter + "'" * primed + "".join(signs)
        assert list(table.items()) == list(reference.items())
        assert table[(10, 2, 4, 2, 135, 315)] == "B++++"
        # each integer family is its paper family's primitive row, with the
        # same letter, prime and axes
        assert len(_FAMILIES) == len(PAPER_FAMILIES)
        for family, paper in zip(_FAMILIES, PAPER_FAMILIES):
            (letter, primed, terms, x5, rhs), (*key, paper_terms, paper_x5, paper_rhs) = family, paper
            assert [letter, primed, [a for _, a in terms]] == key + [[a for _, a in paper_terms]]
            want = primitive_ints([c for c, _ in paper_terms] + [paper_x5, paper_rhs])
            assert [c for c, _ in terms] + [x5, rhs] == want

    def test_facet_label_format(self):
        # the letter is a label's first character, and a primed family's
        # labels carry the prime before the signs
        table = expected_facets()
        assert table[(0, 0, 0, 0, 1, 1)] == "A"
        assert table[(0, 0, 0, 0, -1, 1)] == "L"
        assert table[(-8, 16, -5, 7, 180, 540)] == "C'+-+-"
        assert table[(-4, -2, -2, -10, -135, 315)] == "K'----"
        assert {label[0] for label in table.values()} == set("ABCDEFGHIJKL")


class TestCensus:
    def test_322_facets(self, q48_hull):
        assert q48_hull.incidence.n_facets == 322

    def test_census_report(self, certificate):
        assert_report(check_facet_census(certificate))

    def test_labels_bijective(self, q48_hull, q48_labels):
        assert len(q48_labels) == 322
        assert len(set(q48_labels)) == 322

    def test_base_vertex_sets(self, q48_pr):
        inc, labels = q48_pr.hull.incidence, q48_pr.polytope.labels
        plus = {labels[v] for v in inc.vertices_of(q48_pr.base_plus)}
        assert plus == {f"{i}+" for i in range(1, 25)}
        minus = {labels[v] for v in inc.vertices_of(q48_pr.base_minus)}
        assert minus == {f"{i}-" for i in range(1, 25)}

    def test_not_simple_not_simplicial(self, q48_hull):
        inc = q48_hull.incidence
        assert not all(m.bit_count() == 5 for m in inc.vertex_masks)
        assert not all(m.bit_count() == 5 for m in inc.facet_masks)


class TestByteIdentity:
    """The q48 hull text, pinned in tests/northstar.py: the integer core
    must reproduce it byte for byte."""

    def test_hull_and_incidence_text(self, q48_hull):
        text = write_hpoly(q48_hull.hrep) + write_incidence(q48_hull)
        assert sha256(text.encode()) == HULL_TEXT


def test_verify_builds_its_own_q48_hull_once(hull_builds):
    # the hull is kept per object: the caller's enumeration of an equal
    # polytope does not stand in for the certificate's own, which the
    # report builds exactly once
    facet_enumeration(vertices48())
    assert hull_builds == [48]
    assert verify_counterexample(full=False).passed
    assert hull_builds[1:].count(48) == 1


def test_full_verify_builds_one_q48_hull(hull_builds):
    # the base Minkowski sum is read off the prismatoid's verified hull:
    # its 0/1 Cayley lift, the same 48 points up to an affine map, is not
    # built a second time
    assert verify_counterexample(full=True).passed
    assert hull_builds.count(48) == 1


def test_full_verify_builds_the_bases_apart_from_q48(hull_builds):
    # the base-structure section checks hulls of the bases built from
    # their own points, each once; the sum is read off q48's hull, and the
    # five vertex figures are all else that is built
    assert verify_counterexample(full=True).passed
    assert sorted(hull_builds) == [8] * 5 + [24, 24, 48]


def test_full_verify_builds_each_graph_once(monkeypatch):
    # a graph is kept on its hull: q48's dual graph serves the neighbor
    # lists, the width, the orbit quotient and the sum section, the polar's
    # vertex graph the spindle, q48's vertex graph the base sum's vertices
    # (its mixed edges), and the base sum's dual graph the sum section and
    # the pair d-step; (members, facet side) per build
    calls = []
    adjacency = polytopes._adjacency

    def counting(masks, tmasks, k, simplices):
        calls.append((len(masks), simplices))
        return adjacency(masks, tmasks, k, simplices)

    monkeypatch.setattr(polytopes, "_adjacency", counting)
    assert verify_counterexample(full=True).passed
    assert calls == [(322, True), (322, False), (48, False), (320, True)]


def test_full_verify_checks_one_vertex_figure_per_orbit(hull_builds):
    # the top base's 24 vertices fall into 5 orbits of the base-preserving
    # group, of 4, 4, 4, 4 and 8 vertices, and a symmetry carries a vertex
    # figure onto its image's: 5 eight-point figures are built, not 24
    assert verify_counterexample(full=True).passed
    assert hull_builds.count(8) == 5


def test_top_base_figures_are_one_per_orbit(q48, reference_groups):
    # the smallest vertex of each orbit of the subgroup closed by matrices;
    # with the top base's vertices out of q48's order, every vertex
    _, perms = reference_groups[1]
    orbits = {frozenset(perm[i] for perm in perms) for i in range(24)}
    assert sorted(len(o) for o in orbits) == [4, 4, 4, 4, 8]
    assert top_base_figures(Certificate(vertices48())) == tuple(sorted(min(o) for o in orbits))
    shuffled = VPolytope(q48.vertices[23::-1] + q48.vertices[24:], q48.labels[23::-1] + q48.labels[24:])
    assert top_base_figures(Certificate(shuffled)) == tuple(range(24))


def _generators():
    """The four sign changes, the swap (x1 x2)(x3 x4), then the base swap."""
    gens = []
    for axis in range(4):
        rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        rows[axis][axis] = -1
        gens.append(signed_pairs(rows))
    gens.append(signed_pairs((
        (0, 1, 0, 0, 0), (1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1))))
    gens.append(BASE_SWAP)
    return gens


@pytest.fixture(scope="module")
def reference_groups(q48):
    """(matrices, vertex permutations) of the full group and of the
    base-preserving subgroup, closed by multiplying matrices."""
    gens = [signed_matrix(m) for m in _generators()]
    return reference_close_group(gens, q48), reference_close_group(gens[:5], q48)


class TestSymmetry:
    def test_group_orders(self, q48):
        sigma, sigma_plus = symmetry_groups(q48)
        assert sigma.order == 64
        assert sigma_plus.order == 32

    def test_base_swap_label_action(self, q48):
        swap = signed_matrix(BASE_SWAP)
        assert swap == (
            (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
            (0, 1, 0, 0, 0), (1, 0, 0, 0, 0),
            (0, 0, 0, 0, -1))
        idx = {p: i for i, p in enumerate(q48.vertices)}
        for i in range(24):
            assert idx[mat_apply(swap, q48.vertices[i])] == i + 24
        assert induced_permutation(BASE_SWAP, idx)[:24] == tuple(range(24, 48))

    def test_swap_square_is_double_transposition(self, q48):
        swap = signed_matrix(BASE_SWAP)
        sq = mat_mul(swap, swap)
        assert sq == (
            (0, 1, 0, 0, 0), (1, 0, 0, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1))
        assert sq != identity(5)
        # as a vertex permutation it is a nontrivial base-preserving element
        idx = {p: i for i, p in enumerate(q48.vertices)}
        perm = tuple(idx[mat_apply(sq, p)] for p in q48.vertices)
        assert perm != tuple(range(48))
        assert perm in symmetry_groups(q48)[1].perms

    def test_symmetry_report(self, certificate):
        assert_report(check_symmetries(certificate))

    def test_groups_match_matrix_closure(self, q48, reference_groups):
        # distinct maps induce distinct vertex permutations, and each group's
        # set of permutations, and each generator's, is the reference's
        gens = _generators()
        for group, (maps, vertex_perms), n_gens in zip(
            symmetry_groups(q48), reference_groups, (6, 5)
        ):
            assert len(set(vertex_perms)) == len(maps) == group.order
            assert group.perms == set(vertex_perms)
            assert group.generators == tuple(gens[:n_gens])
            perm_of = dict(zip(maps, vertex_perms))
            assert group.generator_perms == tuple(perm_of[signed_matrix(g)] for g in gens[:n_gens])

    def test_hull_and_graphs_of_every_symmetry_image(self, certificate, reference_groups):
        # the hull of m(P), its points in P's order, has exactly the mapped
        # rows; m induces the facet permutation pi, and sigma, with
        # m(v_i) = v_sigma(i), relabels the image's points as P's, so pi
        # carries P's dual graph onto the image's and sigma carries the
        # image's vertex graph onto P's
        q48, hull = certificate.poly, certificate.hull
        rows = hull.hrep.inequalities
        masks = hull.incidence.facet_masks
        dual = dual_graph(q48, hull).edges
        vertex = vertex_graph(q48, hull).edges
        maps, vertex_perms = reference_groups[0]
        assert len(maps) == 64
        for m, sigma in zip(maps, vertex_perms):
            image = VPolytope(tuple(mat_apply(m, p) for p in q48.vertices))
            image_hull = facet_enumeration(image)
            assert image_hull.hrep.inequalities == tuple(sorted(apply_ineq(m, q) for q in rows))
            index = {q: i for i, q in enumerate(image_hull.hrep.inequalities)}
            pi = [index[apply_ineq(m, q)] for q in rows]
            assert [image_hull.incidence.facet_masks[pi[f]] for f in range(len(rows))] == list(masks)
            assert dual_graph(image, image_hull).edges == relabeled(dual, pi)
            assert relabeled(vertex_graph(image, image_hull).edges, sigma) == vertex

    def test_vertices_must_span_the_space(self):
        # on the square in the plane z = 0 the reflection in that plane
        # fixes every vertex, yet it is not the identity
        square = VPolytope(tuple(
            (Rat(x), Rat(y), Rat(0)) for x in (-1, 1) for y in (-1, 1)))
        reflection = ((0, 1), (1, 1), (2, -1))
        with pytest.raises(ValueError, match="do not span the space"):
            _close_group([reflection], square)


def _facet_index(hull):
    return {q: i for i, q in enumerate(hull.hrep.inequalities)}


class TestFacetPermutation:
    """The image rows computed in integers against `helpers.apply_ineq`."""

    def test_integer_maps_match_apply_ineq(self, certificate, reference_groups):
        # every one of the 64 maps, as (column, sign) pairs, gives the image
        # of every facet under its matrix, and the certificate holds the six
        # generators' images
        hull = certificate.hull
        index = _facet_index(hull)
        maps = reference_groups[0][0]
        assert len(maps) == 64

        def images(m):
            return tuple(index[apply_ineq(m, q)] for q in hull.hrep.inequalities)

        for m in maps:
            assert induced_permutation(signed_pairs(m), index) == images(m)
        assert certificate.facet_perms == tuple(images(signed_matrix(m)) for m in _generators())

    def test_non_symmetry_refused(self, q48_hull):
        # swapping x1 and x5 sends the base facet x5 <= 1 to x1 <= 1
        swap = ((4, 1), (1, 1), (2, 1), (3, 1), (0, 1))
        with pytest.raises(ValueError, match="^map does not permute the set$"):
            induced_permutation(swap, _facet_index(q48_hull))


class TestOrbits:
    def test_orbit_report(self, certificate):
        assert_report(check_orbits(certificate))

    def test_orbit_of_representative_has_32(self, certificate, q48_labels):
        orbits = facet_orbits(certificate.facet_perms[:5])
        b = q48_labels.index("B++++")
        orbit = next(o for o in orbits if b in o)
        assert len(orbit) == 32
        letters = {q48_labels[f][0] for f in orbit}
        assert letters == {"B"}
        assert {"'" in q48_labels[f] for f in orbit} == {True, False}

    def test_generator_orbits_match_every_element(self, certificate, reference_groups):
        # the orbits of the generators' facet permutations are the orbits
        # under every element's facet images: 6 for the full group and 12
        # for the base-preserving subgroup
        rows = certificate.hull.hrep.inequalities
        index = _facet_index(certificate.hull)
        orbits = (certificate.orbits, certificate.orbits_plus)
        for got, (maps, _), count in zip(orbits, reference_groups, (6, 12)):
            want = {tuple(sorted({index[apply_ineq(m, q)] for m in maps})) for q in rows}
            assert got == tuple(sorted(want))
            assert len(got) == count


class TestDualGraphStructure:
    def test_neighbor_lists(self, certificate):
        assert_report(check_neighbor_lists(certificate))

    def test_neighbors_match_table(self, q48_labels, q48_dual):
        for name, wanted in REPRESENTATIVE_NEIGHBORS.items():
            got = {q48_labels[g] for g in q48_dual.adj[q48_labels.index(name)]}
            assert got == set(wanted)

    def test_width_is_six(self, q48_pr):
        assert width(q48_pr) == 6

    def test_width_report(self, certificate):
        assert_report(check_width(certificate))

    def test_no_dstep_property(self, q48_pr):
        assert width(q48_pr) > q48_pr.dim

    def test_quotient_report(self, certificate):
        assert_report(check_orbit_quotient(certificate))

    def test_quotient_report_names_a_facet_off_its_band(self, certificate):
        # (2, 1) is a family's band, C's, but not B's
        ctx = copy.copy(certificate)  # shares the artifacts derived so far
        ctx.bidims = {**certificate.bidims, certificate.by_label["B++++"]: (2, 1)}
        assert [c.line() for c in check_orbit_quotient(ctx).failures()] == [
            "CHECK orbit quotient: bi-dimension bands match the families FAIL B++++:(2, 1)"
        ]


class TestTables:
    def test_representative_facets(self, certificate):
        assert_report(check_representative_facets(certificate))

    def test_collinearities(self, certificate):
        assert_report(check_prism_collinearities(certificate))


class TestWidthInvariance:
    def test_under_symmetry(self, q48, reference_groups):
        m = reference_groups[0][0][17]
        moved = VPolytope(tuple(mat_apply(m, p) for p in q48.vertices))
        hull = facet_enumeration(moved)
        pr = make_prismatoid(moved)
        assert width(pr) == 6

    def test_under_vertex_permutation(self, q48):
        rng = random.Random(6)
        order = list(range(48))
        rng.shuffle(order)
        moved = VPolytope(tuple(q48.vertices[i] for i in order))
        pr = make_prismatoid(moved)
        assert width(pr) == 6


class TestSmallPrismatoids:
    def test_cube_has_dstep_property(self):
        pts = tuple(
            tuple(Rat(c) for c in (x, y, z))
            for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
        )
        pr = make_prismatoid(VPolytope(pts))
        assert width(pr) == 2
        assert width(pr) <= pr.dim

    def test_triangular_prism_width_two(self):
        pts = tuple(
            tuple(Rat(c) for c in (x, y, z))
            for (x, y) in ((0, 0), (3, 0), (0, 3)) for z in (-1, 1)
        )
        poly = VPolytope(pts)
        rows = facet_enumeration(poly).hrep.inequalities
        pr = make_prismatoid(poly, (rows.index((0, 0, 1, 1)), rows.index((0, 0, -1, 1))))
        assert width(pr) == 2

    def test_given_bases_must_be_parallel(self):
        # the cube's top facet and a side facet cover all vertices between them
        pts = tuple(
            tuple(Rat(c) for c in (x, y, z))
            for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
        )
        poly = VPolytope(pts)
        rows = facet_enumeration(poly).hrep.inequalities
        with pytest.raises(NotAPrismatoid, match="not parallel"):
            make_prismatoid(poly, (rows.index((0, 0, 1, 1)), rows.index((1, 0, 0, 1))))

    def test_given_bases_must_contain_all_vertices(self):
        # the cube with a vertex beyond a side: top and bottom stay facets,
        # parallel and disjoint, but miss the new vertex
        pts = tuple(
            tuple(Rat(c) for c in (x, y, z))
            for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
        ) + ((Rat(2), Rat(0), Rat(0)),)
        poly = VPolytope(pts)
        rows = facet_enumeration(poly).hrep.inequalities
        with pytest.raises(NotAPrismatoid, match="do not contain all vertices"):
            make_prismatoid(poly, (rows.index((0, 0, 1, 1)), rows.index((0, 0, -1, 1))))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_parallel_matches_a_fraction_ratio(self, data):
        """Rows with nonzero coefficients and any offsets: scaled and
        negated copies (a prismatoid's bases have negated normals), copies
        with one entry zeroed or the entries rotated, so that zeros stand in
        different positions, and unrelated rows."""
        dim = data.draw(st.integers(1, 5))
        entry = st.integers(-4, 4)
        c1 = data.draw(st.lists(entry, min_size=dim, max_size=dim).filter(any))
        p = data.draw(st.integers(-5, 5).filter(bool))
        q = data.draw(st.integers(1, 5))
        kind = data.draw(st.sampled_from(("scaled", "zeroed", "rotated", "unrelated")))
        c2 = [p * x for x in c1]
        c1 = [q * x for x in c1]
        if kind == "zeroed":
            c2[data.draw(st.sampled_from([j for j, x in enumerate(c1) if x]))] = 0
        elif kind == "rotated":
            c2 = c2[1:] + c2[:1]
        elif kind == "unrelated":
            c2 = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        if not any(c2):
            return  # a facet's coefficients are never all zero
        q1 = (*c1, data.draw(entry))
        q2 = (*c2, data.draw(entry))
        assert _parallel(q1, q2) == _parallel(q2, q1) == reference_parallel(c1, c2)


class TestSuspensionOfCounterexample:
    def test_suspension_distance_from_bottom_to_pyramids(self, q48_pr):
        # suspend over a bottom-base vertex: the lifted bottom base stays at
        # dual distance >= 6 from both pyramids over the top base
        poly, hull = q48_pr.polytope, q48_pr.hull
        v = hull.incidence.vertices_of(q48_pr.base_minus)[4]  # the vertex labeled 5-
        S, hull_S, expected = suspension_facet_map(poly, hull, v)
        mask_to_new = {m: i for i, m in enumerate(hull_S.incidence.facet_masks)}
        lift = {}
        for mask, (f, kind) in expected.items():
            lift[(f, kind)] = mask_to_new[mask]
        g = dual_graph(S, hull_S)
        bottom = lift[(q48_pr.base_minus, "s")]
        dist = g.bfs_distances(bottom)
        for kind in ("u", "w"):
            assert dist[lift[(q48_pr.base_plus, kind)]] >= 6


class TestMutation:
    # -36 on (0, 0) moves vertex 1+ onto 2+: the hull raises on the repeated
    # point, and the report must show that as a FAIL line
    @pytest.mark.parametrize(
        "cell, delta",
        [((0, 0), 1), ((12, 2), 1), ((40, 3), 1), ((0, 0), -36)],
        ids=["cell0", "cell1", "cell2", "duplicate-vertex"],
    )
    def test_single_coordinate_mutations_fail(self, cell, delta):
        q48 = vertices48()
        (i, j), rows = cell, list(q48.vertices)
        rows[i] = rows[i][:j] + (rows[i][j] + delta,) + rows[i][j + 1:]
        mutated = VPolytope(tuple(rows), q48.labels)
        rep = verify_quick(mutated)
        assert not rep.passed

    def test_unmutated_quick_check_passes(self):
        assert verify_quick(vertices48()).passed
