import itertools
import random

import pytest
from hypothesis import given, strategies as st

from exactpoly.geometry import (
    DegenerateInput,
    DimensionMismatch,
    GeometryError,
    OrthMap,
    affine_rank,
)
from exactpoly.rationals import Rat, format_rat, parse_rat, primitive_ints
from helpers import apply_ineq, hyperplane_through, mat_apply, reference_orth_map, slack


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
        flip = OrthMap(((0, 1, 0), (1, 0, 0), (0, 0, -1)))
        for _ in range(20):
            pts = [pt(*(rng.randint(-5, 5) for _ in range(3))) for _ in range(6)]
            r = affine_rank(pts)
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert affine_rank(shuffled) == r
            assert affine_rank([flip.apply_point(p) for p in pts]) == r


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


class TestOrthMap:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(GeometryError):
            OrthMap(((1, 1), (0, 1)))

    def test_rejects_rational_entries(self):
        # an orthogonal reflection, refused for its rational entries
        with pytest.raises(GeometryError, match="must be integers"):
            OrthMap(((Rat(3, 5), Rat(4, 5)), (Rat(4, 5), Rat(-3, 5))))

    def test_ineq_transform_preserves_tightness(self):
        m = OrthMap(((0, 1), (-1, 0)))
        q = (2, 3, 6)
        image = apply_ineq(m, q)
        rng = random.Random(1)
        for _ in range(20):
            p = pt(rng.randint(-5, 5), rng.randint(-5, 5))
            s, t = slack(q, p), slack(image, m.apply_point(p))
            assert (s > 0) - (s < 0) == (t > 0) - (t < 0)

    def test_apply_point_is_the_matrix_product(self):
        # every signed permutation of R^3, read as (column, sign) pairs,
        # against the matrix-vector product
        pts = [pt(1, -2, 3), (Rat(1, 2), Rat(0), Rat(-7, 3)), (4, 0, -1)]
        for order in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                m = OrthMap([[s if j == c else 0 for j in range(3)] for c, s in zip(order, signs)])
                assert m.signed == tuple(zip(order, signs))
                for p in pts:
                    assert m.apply_point(p) == mat_apply(m, p)

    @staticmethod
    def _outcome(make, rows):
        """The map's rows, or the type and message of what `make` raised."""
        try:
            return make(rows).rows
        except Exception as exc:  # the exception is the outcome compared
            return type(exc), str(exc)

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 0), (1, 0)),
            ((0, 1, 0), (1, 0, 0), (0, -1, 0)),
            ((2, 0), (0, 1)),
            ((0, 0, 1), (1, 0, 0), (0, -2, 0)),
            ((1, 0), (0, 0)),
            ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0), (0, 1, 0)),
            ((1,), (0,)),
            ((Rat(1), 0), (0, 1)),
            ((0, Rat(-1)), (1, 0)),
            ((1, 1), (1, -1)),
        ],
        ids=[
            "repeated-column", "repeated-column-signed", "entry-2", "entry-minus-2",
            "zero-row", "zero-first-row", "non-square", "ragged", "column",
            "rat-one", "rat-minus-one", "scaled-orthogonal",
        ],
    )
    def test_from_rows_refuses_as_the_matrix_product_does(self, rows):
        # the same exception type and message as M M^T = I decides them
        want = self._outcome(reference_orth_map, rows)
        assert isinstance(want, tuple) and isinstance(want[0], type)
        assert self._outcome(OrthMap, rows) == want

    def test_from_rows_accepts_every_signed_permutation(self):
        for n in range(1, 5):
            for order in itertools.permutations(range(n)):
                for signs in itertools.product((1, -1), repeat=n):
                    rows = tuple(tuple(s if j == c else 0 for j in range(n)) for c, s in zip(order, signs))
                    assert self._outcome(OrthMap, rows) == rows
                    assert self._outcome(reference_orth_map, rows) == rows

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_from_rows_matches_the_matrix_product_on_integer_matrices(self, rows):
        assert self._outcome(OrthMap, rows) == self._outcome(reference_orth_map, rows)

    def test_rejects_a_map_that_is_no_signed_permutation(self):
        # one signed unit per row is not enough: the units must be the
        # distinct columns of a square matrix
        for rows in (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (1, 0))):
            with pytest.raises(GeometryError, match="^matrix is not orthogonal$"):
                OrthMap(rows)
        with pytest.raises(DimensionMismatch, match="^orthogonal map must be square$"):
            OrthMap(((1, 0, 0), (0, 1, 0)))

    def test_sign_flip_permutes_family_patterns(self):
        flip = OrthMap(((-1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                        (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
        plus = (10, 2, 4, 2, 135, 315)
        assert apply_ineq(flip, plus) == (-10, 2, 4, 2, 135, 315)
