"""Exact linear algebra by one greedy row reduction over `int`.

`reduce_rows` takes rows of `int`s, in order: a caller with rational
points makes them integers first, one point at a time by
`geometry.homogeneous` or a point set at one scale by
`geometry.integer_points`.  Each row is reduced by each row kept before
it, r_c v - v_c r for a kept row r with pivot column c, and kept, divided
by the gcd of its entries, when it does not vanish.  No rational ever
forms.  A kept row is zero at the pivots of the rows kept before it, so
the kept rows have distinct pivots (a pivot is a row's first nonzero
column) and one per unit of rank: their pivots are the leading columns of
the row space, which are the pivot columns of its reduced row echelon
form.  Kernel vectors come from the kept rows by back-substitution in
descending pivot order.

Every step is deterministic, so every derived quantity (ranks, pivots,
hyperplanes, kernels) is bit-reproducible.
"""
from __future__ import annotations

import math
from operator import mul


def primitive(row):
    """The tuple `row` divided by the gcd of its entries, sign kept."""
    g = math.gcd(*row)
    return row if g == 1 else tuple([v // g for v in row])


def reduce_rows(rows):
    """(indices of the rows kept, [(pivot column, primitive reduced row)]).

    Row i is kept when it is independent of the rows before it, so the
    indices are the greedy basis of the row space.  The caller's rows are
    never mutated, and every kept row is a tuple."""
    idx, kept = [], []
    for i, v in enumerate(rows):
        for c, r in kept:
            f = v[c]
            if f:
                rc = r[c]
                v = [rc * x - f * y for x, y in zip(v, r)]
        if any(v):
            c = 0
            while not v[c]:
                c += 1
            kept.append((c, primitive(tuple(v))))
            idx.append(i)
            if len(kept) == len(v):
                break
    return idx, kept


def matrix_rank(rows) -> int:
    return len(reduce_rows(rows)[0])


def pivot_columns(rows):
    """The pivot columns of the reduced row echelon form, ascending."""
    return sorted(c for c, _ in reduce_rows(rows)[1])


def nullspace(rows):
    """Integer basis of {x : rows @ x = 0}, one vector per free column, in
    column order.  The vector of free column `fc` is the primitive one that
    is zero at the other free columns and positive at `fc`: the rational
    basis vector with a 1 at `fc`, scaled."""
    if not rows:
        return []
    n_cols = len(rows[0])
    kept = sorted(reduce_rows(rows)[1], reverse=True)
    pivots = {c for c, _ in kept}
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        x = [0] * n_cols
        x[fc] = 1
        # a kept row is nonzero only from its pivot on, and there only at
        # free columns and at the larger pivots, solved already; x[pc] is
        # still 0, so s is the rest of the row's product with x
        for pc, row in kept:
            s = sum(map(mul, row, x))
            if not s:
                continue
            a = row[pc]
            if a < 0:
                a, s = -a, -s
            g = math.gcd(a, s)
            # x stays primitive: a // g and s // g are coprime
            if a != g:
                x = [a // g * v for v in x]
            x[pc] = -s // g
        basis.append(tuple(x))
    return basis

