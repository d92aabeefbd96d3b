"""Hulls of point sets that are not full-dimensional.

A point set of affine rank k < d is embedded in d-space by an injective
rational affine map.  Its hull must have dimension k, the facet incidence of
the un-embedded hull, equalities that vanish on every point, and facets that
are tight exactly on their masks.  A seeded corpus of such inputs, and the
q48 prismatoid embedded in 6-space, pin the HPOLY and INC text, so the way
the hull charts the affine hull may change only if the output stays
byte-identical.  The chart itself, its pivot columns and its equality
rows, is checked against a Fraction reference.
"""
import random
from fractions import Fraction

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from exactpoly.counterexample import vertices48
from exactpoly.fileformats import write_hpoly, write_incidence
from exactpoly.geometry import affine_rank, homogeneous
from exactpoly.polytopes import affine_chart, facet_enumeration, iter_bits
from helpers import (
    fractions,
    primitive_ints,
    reference_nullspace,
    reference_rank,
    reference_rref,
    slack,
    vpoly,
)
from northstar import EMBEDDED_CORPUS, EMBEDDED_Q48, sha256


def embed(points, matrix, shift):
    """x -> M x + t, with M given by its d rows."""
    return [
        tuple(t + sum(a * x for a, x in zip(row, p)) for row, t in zip(matrix, shift))
        for p in points
    ]


ENTRY = fractions(-3, 3, 4)


@st.composite
def embedded_inputs(draw):
    """(points of affine rank k in k-space, d x k matrix of rank k, shift)
    with 1 <= k <= 4 and k < d <= 6.  Many matrix entries are zero, so the
    affine hull is often parallel to some coordinate axes."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(k + 1, 6))
    coord = fractions(-4, 4, 3)
    points = draw(
        st.lists(st.tuples(*[coord] * k), min_size=k + 1, max_size=k + 7, unique=True)
        .filter(lambda ps: affine_rank(ps) == k)
    )
    entry = st.one_of(st.just(Fraction(0)), ENTRY)
    matrix = draw(
        st.lists(st.tuples(*[entry] * k), min_size=d, max_size=d).filter(
            lambda rows: reference_rank(rows) == k
        )
    )
    shift = draw(st.tuples(*[ENTRY] * d))
    return points, matrix, shift


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(embedded_inputs())
def test_embedded_hull_matches_the_flat_hull(data):
    points, matrix, shift = data
    flat = vpoly(tuple(points))
    k = len(points[0])
    emb = vpoly(tuple(embed(points, matrix, shift)))
    hull = facet_enumeration(emb)
    assert hull.dim == k
    assert hull.hrep.ambient_dim == len(matrix)
    assert len(hull.hrep.equalities) == len(matrix) - k
    assert sorted(hull.incidence.facet_masks) == sorted(
        facet_enumeration(flat).incidence.facet_masks
    )
    for e in hull.hrep.equalities:
        assert all(slack(e, p) == 0 for p in emb.vertices)
    for ineq, mask in zip(hull.hrep.inequalities, hull.incidence.facet_masks):
        slacks = [slack(ineq, p) for p in emb.vertices]
        assert all(s >= 0 for s in slacks)
        assert [i for i, s in enumerate(slacks) if s == 0] == list(iter_bits(mask))


# rationals in [-3, 3] with denominators up to 6, drawn as two integers,
# which hypothesis draws and shrinks faster than `st.fractions`: u q // 6
# runs over [-3 q, 3 q]; and the nonzero ones n / q with |n| <= 3
RATIONAL = st.builds(lambda u, q: Fraction(u * q // 6, q), st.integers(-18, 18), st.integers(1, 6))
NONZERO = st.builds(Fraction, st.sampled_from((1, -1, 2, -2, 3, -3)), st.integers(1, 6))
SPARSE = st.just(0) | RATIONAL


def _lattice_point(x, k):
    """The point of {-3..3}^k with index x: its coordinates are the base-7
    digits t of x, read as 0, 1, -1, 2, -2, 3, -3."""
    return tuple((t + 1) // 2 * (1 if t % 2 else -1) for t in (x // 7**j % 7 for j in range(k)))


@st.composite
def rational_images(draw):
    """Distinct images of 2-8 distinct lattice points of {-3..3}^k,
    1 <= k <= 4, under a rational affine map into d-space, d > k, with
    denominators up to 6: their affine rank is at least 1 and below d.
    Both hold by construction, with no filter.  The i-th point's index is
    the x-th of the 7^k indices not drawn before it, x drawn below 7^k - i.
    The map is one-to-one: its rows at k drawn positions, in drawn order,
    form a lower triangular matrix with a nonzero diagonal, and the other
    rows are free."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(k + 1, 6))
    drawn = []
    for i in range(draw(st.integers(2, min(8, 7**k)))):
        x = draw(st.integers(0, 7**k - 1 - i))
        for u in sorted(drawn):
            x += u <= x
        drawn.append(x)
    lattice = [_lattice_point(x, k) for x in drawn]
    matrix = [tuple(draw(SPARSE) for _ in range(k)) for _ in range(d)]
    for j, r in enumerate(draw(st.permutations(range(d)))[:k]):
        matrix[r] = matrix[r][:j] + (draw(NONZERO),) + (0,) * (k - j - 1)
    return embed(lattice, matrix, [draw(RATIONAL) for _ in range(d)])


# no explain phase: it only annotates a failure, and would double the time
# taken to report one
@settings(max_examples=200, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(rational_images())
def test_chart_matches_the_fraction_reference(points):
    """The pivot columns of the directions p_i - p_0 and one equality
    v . x = v . p_0 per kernel vector v of theirs, each as its primitive
    row with a positive leading coefficient, sorted."""
    dirs = [[Fraction(a) - b for a, b in zip(p, points[0])] for p in points[1:]]
    equalities = []
    for vec in reference_nullspace(dirs):
        row = primitive_ints(list(vec) + [sum(a * x for a, x in zip(vec, points[0]))])
        sign = 1 if next(a for a in row if a) > 0 else -1
        equalities.append(tuple(sign * a for a in row))
    chart = affine_chart([homogeneous(p) for p in points])[1]
    assert chart.cols == tuple(reference_rref(dirs)[0])
    assert chart.equalities == tuple(sorted(equalities))


def embedded_corpus(seed, count):
    """`count` seeded inputs like `embedded_inputs`, as point tuples in
    d-space."""
    rng = random.Random(seed)

    def rat(num, den):
        return Fraction(rng.randint(-num, num), rng.randint(1, den))

    corpus = []
    while len(corpus) < count:
        k = rng.randint(1, 4)
        d = rng.randint(k + 1, 6)
        points = []
        for _ in range(rng.randint(k + 1, k + 7)):
            p = tuple(rat(4, 3) for _ in range(k))
            if p not in points:
                points.append(p)
        if affine_rank(points) != k:
            continue
        matrix = [
            tuple(Fraction(0) if rng.random() < 0.4 else rat(3, 2) for _ in range(k))
            for _ in range(d)
        ]
        if reference_rank(matrix) != k:
            continue
        shift = tuple(rat(3, 4) for _ in range(d))
        corpus.append(embed(points, matrix, shift))
    return corpus


def test_embedded_corpus_output_is_pinned():
    text = []
    for points in embedded_corpus(seed=6, count=320):
        hull = facet_enumeration(vpoly(tuple(points)))
        text.append(f"dim {hull.dim}\n{write_hpoly(hull.hrep)}{write_incidence(hull)}")
    assert sha256("".join(text).encode()) == EMBEDDED_CORPUS


def test_embedded_q48_output_is_pinned():
    """The charting at north-star scale: 48 points, 322 facets, and the
    one equality 2 y1 - 2 y3 + y4 = 6 of the image, whose third coordinate
    has denominators."""
    pts = tuple(
        (x[0], x[1], x[0] + Fraction(x[2], 2) - 3, x[2], x[3], x[4])
        for x in vertices48().vertices
    )
    hull = facet_enumeration(vpoly(pts))
    assert (hull.dim, hull.incidence.n_facets) == (5, 322)
    assert hull.hrep.equalities == ((2, 0, -2, 1, 0, 0, 6),)
    text = write_hpoly(hull.hrep) + write_incidence(hull)
    assert sha256(text.encode()) == EMBEDDED_Q48
