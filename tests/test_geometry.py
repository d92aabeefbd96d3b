import itertools
import random

import pytest
from hypothesis import given, strategies as st

from exactpoly.counterexample import induced_permutation
from exactpoly.geometry import DegenerateInput, DimensionMismatch, affine_rank, homogeneous
from exactpoly.rationals import Rat, format_rat, parse_rat
from helpers import (
    apply_ineq,
    fractions,
    hyperplane_through,
    identity,
    mat_apply,
    mat_mul,
    primitive_ints,
    signed_matrix,
    slack,
    transpose,
)


def pt(*coords):
    return tuple(Rat(c) for c in coords)


class TestScalars:
    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_parse_format_round_trip(self, n, d):
        q = Rat(n, d)
        assert parse_rat(format_rat(q)) == q

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_reciprocal_product(self, a, b):
        if a == 0:
            return
        q = Rat(a, b)
        assert q * (1 / q) == 1

    def test_parse_literals(self):
        assert parse_rat("315/2") == Rat(315, 2)
        assert parse_rat("-45") == Rat(-45)
        assert parse_rat("+7/4") == Rat(7, 4)

    @pytest.mark.parametrize("bad", ["", "1/0", "1.5", "3/-2", "a", "1/2/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)


class TestPrimitiveRows:
    def test_primitive_ints_clears_fractions(self):
        row = primitive_ints(pt(5, 1, 2, 1, Rat(135, 2), Rat(315, 2)))
        assert row == [10, 2, 4, 2, 135, 315]
        assert all(type(v) is int for v in row)

    def test_primitive_ints_idempotent_and_scale_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            row = pt(*(rng.randint(-9, 9) for _ in range(5)))
            if all(c == 0 for c in row[:-1]):
                continue
            lam = Rat(rng.randint(1, 20), rng.randint(1, 20))
            prim = primitive_ints(row)
            assert primitive_ints([lam * v for v in row]) == prim
            assert primitive_ints(prim) == prim

    @given(st.lists(st.one_of(st.integers(-9, 9), fractions(-9, 9, 12)),
                    min_size=1, max_size=6))
    def test_homogeneous_is_the_primitive_row_of_the_point(self, p):
        # (-w p, w) is the primitive int multiple of (-p, 1) with w > 0
        q = homogeneous(p)
        assert all(type(v) is int for v in q) and q[-1] > 0
        assert list(q) == primitive_ints([-Rat(v) for v in p] + [1])


class TestAffineRank:
    def test_coordinate_plane(self):
        assert affine_rank([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)]) == 2

    def test_single_point(self):
        assert affine_rank([pt(3, 4)]) == 0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            affine_rank([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            affine_rank([pt(1, 2), pt(1, 2, 3)])

    def test_permutation_and_map_invariance(self):
        rng = random.Random(3)
        flip = signed_matrix(((1, 1), (0, 1), (2, -1)))
        for _ in range(20):
            pts = [pt(*(rng.randint(-5, 5) for _ in range(3))) for _ in range(6)]
            r = affine_rank(pts)
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert affine_rank(shuffled) == r
            assert affine_rank([mat_apply(flip, p) for p in pts]) == r


class TestHyperplaneThrough:
    """The brute-force oracle's hyperplane reference in `helpers`."""

    def test_two_points_in_plane(self):
        h = hyperplane_through([pt(1, 0), pt(0, 1)])
        assert h == (1, 1, 1)

    def test_contains_inputs(self):
        rng = random.Random(11)
        for _ in range(25):
            base = [pt(*(rng.randint(-4, 4) for _ in range(3))) for _ in range(3)]
            if affine_rank(base) != 2:
                continue
            h = hyperplane_through(base)
            assert all(slack(h, p) == 0 for p in base)

    def test_representative_facet_hyperplane(self):
        pts = [
            pt(18, 0, 0, 0, 1),
            pt(0, 0, 45, 0, 1),
            pt(15, 15, 0, 0, 1),
            pt(0, 0, 30, 30, 1),
            pt(0, 10, 40, 0, 1),
            pt(45, 0, 0, 0, -1),
        ]
        assert hyperplane_through(pts) == (10, 2, 4, 2, 135, 315)

    def test_base_facet_hyperplane(self):
        pts = [
            pt(18, 0, 0, 0),
            pt(0, 0, 45, 0),
            pt(15, 15, 0, 0),
            pt(0, 0, 30, 30),
            pt(0, 10, 40, 0),
            pt(10, 0, 0, 40),
        ]
        assert hyperplane_through(pts) == (5, 1, 2, 1, 90)

    def test_rank_errors(self):
        with pytest.raises(DegenerateInput):
            hyperplane_through([pt(0, 0, 0), pt(1, 0, 0)])  # too low
        with pytest.raises(DegenerateInput):
            hyperplane_through([pt(0, 0), pt(1, 0), pt(0, 1)])  # too high


def _cross_polytope(n):
    """{p: position} over the 2n points +-e_i of R^n."""
    units = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return {p: k for k, p in enumerate(units)}


def _orbit(keys):
    """{q: position} over the images of `keys` under every signed
    permutation of their first three entries, in sorted order."""
    images = {
        tuple(s * q[c] for c, s in zip(order, signs)) + q[3:]
        for q in keys
        for order in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
    }
    return {q: k for k, q in enumerate(sorted(images))}


def _refused(m, index) -> bool:
    """Whether `induced_permutation` refuses m on `index`."""
    try:
        induced_permutation(m, index)
    except ValueError:
        return True
    return False


def _is_orthogonal(m) -> bool:
    M = signed_matrix(m)
    return mat_mul(M, transpose(M)) == identity(len(m))


class TestOrthMap:
    """Orthogonal maps as (column, sign) pairs: the permutations that
    `counterexample.induced_permutation` gives against the matrix products
    of `helpers.signed_matrix`, and its refusals on the cross-polytope,
    which spans R^n, against the test M M^T = I."""

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="^map does not permute the set$"):
            induced_permutation(((0, 1), (1, 2)), _cross_polytope(2))

    def test_ineq_transform_preserves_tightness(self):
        m = signed_matrix(((1, 1), (0, -1)))
        q = (2, 3, 6)
        image = apply_ineq(m, q)
        rng = random.Random(1)
        for _ in range(20):
            p = pt(rng.randint(-5, 5), rng.randint(-5, 5))
            s, t = slack(q, p), slack(image, mat_apply(m, p))
            assert (s > 0) - (s < 0) == (t > 0) - (t < 0)

    def test_apply_point_is_the_matrix_product(self):
        # every signed permutation of R^3, on points and on facet rows
        # (a, b), whose offset b is kept, against the matrix products
        points = _orbit([pt(1, -2, 3), (Rat(1, 2), Rat(0), Rat(-7, 3)), (4, 0, -1)])
        rows = _orbit([(1, -2, 3, 5), (2, 0, -7, 1), (0, 0, 1, -4)])
        for order in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                m = tuple(zip(order, signs))
                M = signed_matrix(m)
                for index, image in ((points, mat_apply), (rows, apply_ineq)):
                    keys = sorted(index, key=index.get)
                    perm = induced_permutation(m, index)
                    assert [keys[j] for j in perm] == [image(M, q) for q in keys]

    @pytest.mark.parametrize(
        "m",
        [
            ((0, 1), (0, 1)),
            ((1, 1), (0, 1), (1, -1)),
            ((0, 2), (1, 1)),
            ((2, 1), (0, 1), (1, -2)),
            ((0, 1), (1, 0)),
            ((0, 0), (1, 1), (2, -1)),
            ((0, Rat(1)), (1, 1)),
            ((1, Rat(-1)), (0, 1)),
        ],
        ids=[
            "repeated-column", "repeated-column-signed", "entry-2", "entry-minus-2",
            "zero-row", "zero-first-row", "rat-one", "rat-minus-one",
        ],
    )
    def test_from_rows_refuses_as_the_matrix_product_does(self, m):
        # refused on the cross-polytope exactly when M M^T != I; a sign
        # Rat(1) or Rat(-1) is 1 or -1, and the image is a key as it stands
        assert _refused(m, _cross_polytope(len(m))) == (not _is_orthogonal(m))

    def test_from_rows_accepts_every_signed_permutation(self):
        for n in range(1, 5):
            index = _cross_polytope(n)
            keys = sorted(index, key=index.get)
            for order in itertools.permutations(range(n)):
                for signs in itertools.product((1, -1), repeat=n):
                    m = tuple(zip(order, signs))
                    assert _is_orthogonal(m)
                    perm = induced_permutation(m, index)
                    assert [keys[j] for j in perm] == [mat_apply(signed_matrix(m), q) for q in keys]

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(-2, 2)), min_size=n, max_size=n)
    ))
    def test_from_rows_matches_the_matrix_product_on_integer_matrices(self, m):
        m = tuple(m)
        assert _refused(m, _cross_polytope(len(m))) == (not _is_orthogonal(m))

    def test_rejects_a_map_that_is_no_signed_permutation(self):
        # one signed unit per row is not enough: the units must be the
        # distinct columns of a square matrix
        for m in (((0, 1), (1, 2)), ((0, 2), (1, 1)), ((0, 1), (0, 1))):
            with pytest.raises(ValueError, match="^map does not permute the set$"):
                induced_permutation(m, _cross_polytope(2))

    def test_refuses_a_map_that_is_not_one_to_one(self):
        # every image is a point of the set, yet (1, 1) and (1, -1) share one
        index = {(1, 1): 0, (-1, -1): 1, (1, -1): 2}
        with pytest.raises(ValueError, match="^map is not one-to-one on the set$"):
            induced_permutation(((0, 1), (0, 1)), index)

    def test_sign_flip_permutes_family_patterns(self):
        flip = signed_matrix(((0, -1), (1, 1), (2, 1), (3, 1), (4, 1)))
        plus = (10, 2, 4, 2, 135, 315)
        assert apply_ineq(flip, plus) == (-10, 2, 4, 2, 135, 315)
