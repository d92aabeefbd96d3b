"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the lines).
"""
import random

from exactpoly.constructions import blend_graph, family_parameters, hirsch_excess, strong_dstep_iterate
from exactpoly.fileformats import write_poly
from exactpoly.counterexample import (
    check_base_structure,
    check_facet_census,
    check_minkowski_section,
    check_neighbor_lists,
    check_orbit_quotient,
    check_orbits,
    check_prism_collinearities,
    check_representative_facets,
    check_symmetries,
    check_width,
    symmetry_groups,
)
from exactpoly.normalfans import minkowski_sum, pair_dstep_property
from exactpoly.polytopes import certify_vertices, polar
from exactpoly.prismatoids import width
from exactpoly.rationals import Rat
from helpers import (
    centroid,
    check_hull_against_oracle,
    check_suspension_distances,
    primitive_ints,
    random_polytope,
    random_prismatoid,
    vpoly,
)
from northstar import STEP2_POLY, sha256

from exactpoly.geometry import affine_rank, vsub


def _require(rep):
    assert rep.passed, "\n".join(c.line() for c in rep.failures())


def _announce(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_01_facet_census(certificate):
    rep = check_facet_census(certificate)
    _require(rep)
    _announce(1, "facet census 322 = expanded inequality table")


def test_02_width_six(certificate):
    rep = check_width(certificate)
    _require(rep)
    _announce(2, "width 6: six steps suffice, five do not")


def test_03_orbit_structure(q48, certificate):
    sigma, sigma_plus = symmetry_groups(q48)
    assert sigma.order == 64 and sigma_plus.order == 32
    _require(check_orbits(certificate))
    _require(check_symmetries(certificate))
    _require(check_neighbor_lists(certificate))
    _require(check_orbit_quotient(certificate))
    _announce(3, "orbits 64/32, neighbor lists, quotient distance 6")


def test_04_representative_incidences(certificate):
    _require(check_representative_facets(certificate))
    _announce(4, "representative tight sets, ranks, and shapes")


def test_05_geometry_identities(certificate):
    _require(check_prism_collinearities(certificate))
    _announce(5, "three-ray collision at o and quadrilateral identity")


def test_06_base_structure(certificate):
    _require(check_base_structure(certificate))
    _announce(6, "top base: 32 facets, cube vertex figures, torus normals")


def test_07_minkowski_and_pair_dstep(certificate):
    _require(check_minkowski_section(certificate))
    _announce(7, "sum has 320 facets, dual identity, no pair d-step, interiority")


# the STEP lines of strong_dstep_iterate(q48_pr, max_steps=2, seed=0), whose
# final POLY text is pinned as STEP2_POLY in tests/northstar.py; q48_pr has
# its bases given as facets A and L, and `exactpoly construct dstep-iterate`,
# which finds them itself, reaches another final polytope (1555 facets)
Q48_STEP_LINES = (
    "STEP 0 dim=5 vertices=48 facets=322 width=6",
    "STEP 1 dim=6 vertices=49 facets=703 width=7",
    "STEP 2 dim=7 vertices=50 facets=1545 width=8",
)


def test_08_strong_dstep_iterations(q48_pr):
    final, trace = strong_dstep_iterate(q48_pr, max_steps=2, seed=0)
    lines = tuple(rec.line(i) for i, rec in enumerate(trace))
    for line in lines:
        print(line)
    assert lines == Q48_STEP_LINES
    text = write_poly(final.polytope)
    assert sha256(text.encode()) == STEP2_POLY
    _announce(8, "two iterations: (6, 49, 7) then (7, 50, 8), final polytope pinned")


def test_09a_suspension_distance_monotonicity():
    rng = random.Random(2024)
    polytopes = 0
    while polytopes < 20:
        dim = rng.choice((2, 3, 4))
        poly, hull = random_polytope(rng, dim, 10 if dim < 4 else 8)
        v = rng.randrange(poly.n_vertices)
        check_suspension_distances(poly, hull, v)
        polytopes += 1
    _announce(9, "(a) suspension distances dominate on 20 random polytopes")


def test_09b_hull_oracle_equivalence():
    rng = random.Random(555)
    runs = 0
    while runs < 50:
        dim = rng.randint(2, 4)
        n = rng.randint(dim + 1, 10)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(Rat(rng.randint(-5, 5)) for _ in range(dim)))
        poly = vpoly(tuple(sorted(pts, key=lambda p: tuple(int(c) for c in p))))
        if affine_rank(poly.vertices) != dim:
            continue
        check_hull_against_oracle(poly)
        runs += 1
    _announce(9, "(b) hull equals brute-force oracle on 50 random instances")


def test_09c_polar_involution():
    rng = random.Random(31337)
    for _ in range(10):
        dim = rng.choice((2, 3))
        poly, _ = random_polytope(rng, dim, 8)
        c = centroid(poly.vertices)
        centered = vpoly(tuple(vsub(v, c) for v in poly.vertices))
        back = certify_vertices(polar(polar(centered)))
        rays = {tuple(primitive_ints(list(v))) for v in back.vertices}
        want = {tuple(primitive_ints(list(v))) for v in centered.vertices}
        assert rays == want
    _announce(9, "(c) polar involution round-trips on 10 random polytopes")


def test_09d_pair_dstep_equivalence():
    rng = random.Random(808)
    done = 0
    while done < 10:
        d = rng.choice((3, 4))
        pr, top, bot = random_prismatoid(rng, d, 7)
        w = width(pr)
        has, min_facets = pair_dstep_property(top, bot, d, ms=minkowski_sum(top, bot))
        assert w == min_facets + 1
        assert has == (w <= d)
        assert has, f"dimension-{d} prismatoid without the d-step property?!"
        done += 1
    _announce(9, "(d) width <=> pair d-step on 10 random low-dim prismatoids")


def test_10_family_arithmetic():
    assert hirsch_excess(43, 86, 44).excess == Rat(1, 43)
    assert not hirsch_excess(43, 86, 44).is_hirsch
    fp = family_parameters(43, 86, 44, k=1, j=2)
    assert (fp.dim, fp.facets, fp.diameter_lb) == (43, 129, 87)
    for k in (2, 3):
        for j in (2, 7):
            f = family_parameters(43, 86, 44, k=k, j=j)
            eps = Rat(1, 43)
            assert f.excess_lb == eps - Rat(j - 1, j * k * 43)
            assert f.excess_lb > f.excess_limit >= f.theorem_bound
    cube = vpoly(tuple(
        tuple(Rat(1 if m >> i & 1 else -1) for i in range(3)) for m in range(8)
    ))
    bg = blend_graph(cube, 0, cube, 7)
    assert bg.facet_count == 9
    assert bg.graph.diameter() >= 5
    _announce(10, "excess 1/43, family formulas, cube blend 9 facets diam >= 5")
