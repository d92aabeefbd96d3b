"""Fraction-free integer elimination against a textbook Fraction reference.

An inexact floor division inside the Bareiss update would show up here as a
wrong pivot set, rank or kernel.  The brute-force hull oracle takes its
hyperplanes from the Fraction reference, but it still shares `affine_rank`
with the engine, so it cannot catch a wrong rank.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exactpoly.linalg import echelon, matrix_rank, nullspace
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


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_pivots_and_rank_match_reference(rows):
    pivots, _ = reference_rref(rows)
    work = [list(r) for r in rows]
    assert echelon(work) == pivots
    assert _is_int_matrix(work)
    # rows below the rank are zero; each pivot row starts at its pivot
    assert all(v == 0 for row in work[len(pivots):] for v in row)
    for r, c in enumerate(pivots):
        assert work[r][c] != 0 and all(v == 0 for v in work[r][:c])
    assert matrix_rank(rows) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(rows):
    pivots, _ = reference_rref(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    want = reference_nullspace(rows)
    got = nullspace(rows)
    assert _is_int_matrix(got) and len(got) == len(want) == len(free)
    # one common nonzero factor, found at the free columns, turns the
    # reference basis into the integer one
    scales = {vec[fc] for vec, fc in zip(got, free)}
    assert len(scales) <= 1 and 0 not in scales
    for vec, unit, fc in zip(got, want, free):
        assert tuple(Fraction(v, vec[fc]) for v in vec) == unit
        assert all(sum(Fraction(a) * x for a, x in zip(row, vec)) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(matrices(entry=st.one_of(SMALL, HUGE)), matrices())
def test_caller_rows_never_mutated(int_rows, mixed_rows):
    # all-int rows are copied, not rescaled; rational rows are scaled into
    # new lists: in both cases the caller's row objects keep their values
    for rows in (int_rows, mixed_rows):
        originals = [list(r) for r in rows]
        objects = list(rows)
        work = list(rows)
        echelon(work)
        matrix_rank(rows)
        nullspace(rows)
        assert all(a is b for a, b in zip(rows, objects))
        assert [list(r) for r in rows] == originals
        assert all(w is not r for w in work for r in objects)
