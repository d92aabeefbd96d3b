"""The integer row reduction of `linalg` against a textbook Fraction reference.

A wrong reduction step or an inexact division in the back-substitution would
show up here as a wrong greedy basis, pivot set, rank or kernel.  The
brute-force hull oracle takes its hyperplanes from the Fraction reference,
but it still shares `affine_rank` with the engine, so `affine_rank` is
checked against the reference here.
"""
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exactpoly.geometry import affine_rank
from exactpoly.linalg import matrix_rank, nullspace, pivot_columns, reduce_rows
from helpers import reference_nullspace, reference_rref

SMALL = st.integers(-6, 6)
HUGE = st.builds(lambda sign, v: sign * v, st.sampled_from((-1, 1)),
                 st.integers(10**40 + 1, 10**45))
RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)
ENTRY = st.one_of(SMALL, RATIONAL, HUGE)


@st.composite
def matrices(draw, entry=ENTRY, max_rows=6, max_cols=6):
    """Matrices mixing ints, rationals and entries above 10^40, some of them
    of low rank by construction, with zero rows and repeated rows mixed in."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                             min_size=n_rows, max_size=n_rows))
    else:
        # a product B C with inner dimension below both sizes: rank-deficient
        inner = draw(st.integers(0, max(0, min(n_rows, n_cols) - 1)))
        b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                          min_size=n_rows, max_size=n_rows))
        c = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                          min_size=inner, max_size=inner))
        rows = [[sum((b[i][t] * c[t][j] for t in range(inner)), 0) for j in range(n_cols)]
                for i in range(n_rows)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        if draw(st.booleans()):
            rows.insert(at, [0] * n_cols)
        else:
            rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows


def _is_int_matrix(rows):
    return all(type(v) is int for row in rows for v in row)


def _rank(rows):
    return len(reference_rref(rows)[0])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_pivots_rank_and_greedy_basis_match_reference(rows):
    pivots, _ = reference_rref(rows)
    idx, kept = reduce_rows(rows)
    assert pivot_columns(rows) == pivots
    assert matrix_rank(rows) == len(idx) == len(kept) == len(pivots)
    # row i is kept iff it raises the rank of the rows before it
    assert idx == [i for i in range(len(rows)) if _rank(rows[: i + 1]) > _rank(rows[:i])]
    assert _is_int_matrix([r for _, r in kept])
    for n, (c, r) in enumerate(kept):
        # each kept row is primitive, starts at its pivot, vanishes at the
        # pivots kept before it and spans the same rows as the reference
        assert math.gcd(*r) == 1
        assert r[c] != 0 and all(v == 0 for v in r[:c])
        assert all(r[pc] == 0 for pc, _ in kept[:n])
        assert _rank([rows[i] for i in idx] + [r]) == len(idx)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(rows):
    pivots, _ = reference_rref(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    want = reference_nullspace(rows)
    got = nullspace(rows)
    assert _is_int_matrix(got) and len(got) == len(want) == len(free)
    for vec, unit, fc in zip(got, want, free):
        # primitive and positive at its free column, the reference vector
        # (1 there, 0 at the other free columns) scaled
        assert math.gcd(*vec) == 1 and vec[fc] > 0
        assert tuple(Fraction(v, vec[fc]) for v in vec) == unit
        assert all(sum(Fraction(a) * x for a, x in zip(row, vec)) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(matrices(entry=st.one_of(SMALL, HUGE)), matrices())
def test_caller_rows_never_mutated(int_rows, mixed_rows):
    # all-int rows are copied, not rescaled; rational rows are scaled into
    # new tuples: in both cases the caller's row objects keep their values
    for rows in (int_rows, mixed_rows):
        originals = [list(r) for r in rows]
        objects = list(rows)
        _, kept = reduce_rows(rows)
        matrix_rank(rows)
        pivot_columns(rows)
        nullspace(rows)
        assert all(a is b for a, b in zip(rows, objects))
        assert [list(r) for r in rows] == originals
        assert all(type(r) is tuple for _, r in kept)


COORD = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=9))


@st.composite
def affine_point_sets(draw):
    """Rational points with mixed denominators in dims 1-5: a few spanning
    points, then affine combinations of them mixed in, so the rank is often
    below both the dimension and the number of points."""
    dim = draw(st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=dim + 1))
    for _ in range(draw(st.integers(0, 4))):
        weights = [draw(st.fractions(-2, 2, max_denominator=5)) for _ in pts[1:]]
        combo = [1 - sum(weights, Fraction(0))] + weights
        at = draw(st.integers(0, len(pts)))
        pts.insert(at, tuple(sum(w * p[j] for w, p in zip(combo, pts)) for j in range(dim)))
    return pts


@settings(max_examples=200, deadline=None)
@given(affine_point_sets())
def test_affine_rank_matches_reference(pts):
    diffs = [[Fraction(a) - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    assert affine_rank(pts) == _rank(diffs)
