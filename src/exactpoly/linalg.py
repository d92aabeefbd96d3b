"""Exact linear algebra by fraction-free (Bareiss) elimination over `int`.

Each rational input row is first scaled by the lcm of its denominators,
which leaves the rank, the pivot columns and the kernel unchanged; a row of
`int`s is only copied.  Elimination then stays in Python `int`: Bareiss's
update (Bareiss 1968, "Sylvester's identity and multistep integer-preserving
Gaussian elimination") divides exactly by the previous pivot, so no rational
ever forms and entries stay minors of the input.  Kernel vectors come out
as integer vectors by back-substitution.

Pivoting rule everywhere: first nonzero entry in column order, scanning rows
top-down.  Deterministic, so every derived quantity (ranks, hyperplanes,
nullspaces) is bit-reproducible.
"""
from __future__ import annotations

from .rationals import clear_denominators

_INT = frozenset((int,))


def echelon(rows):
    """Reduce `rows` in place to a fraction-free row-echelon form of ints.

    Every row is first replaced by an integer copy: a row of `int`s as it
    is, any other scaled by the lcm of its denominators, so the caller's row
    objects are never mutated.  Returns the list of pivot column indices.
    The pivot of the last pivot row is the determinant of the pivot minor
    (rows in their final order, pivot columns).
    """
    for i, row in enumerate(rows):
        rows[i] = list(row) if _INT.issuperset(map(type, row)) else clear_denominators(row)
    n_rows = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, n_rows):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
        row_r = rows[r]
        piv = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = rows[i]
            f = row_i[c]
            row_i[c] = 0
            # Sylvester's identity: the division by the previous pivot is exact
            for j in range(c + 1, len(row_r)):
                row_i[j] = (piv * row_i[j] - f * row_r[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
        if r == n_rows:
            break
    return pivots


def matrix_rank(rows) -> int:
    return len(echelon(list(rows)))


def nullspace(rows):
    """Integer basis of {x : rows @ x = 0}, one vector per free column, in
    column order.  The vector of free column `fc` is zero at the other free
    columns and holds the pivot determinant at `fc`: it is the rational basis
    vector with a 1 at `fc`, scaled to integers by the same factor for all."""
    if not rows:
        return []
    n_cols = len(rows[0])
    work = list(rows)
    pivots = echelon(work)
    det = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        x = [0] * n_cols
        x[fc] = det
        # back-substitution is exact: by Cramer's rule every entry is an
        # integer once the free coordinate is the pivot determinant
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = work[r]
            s = 0
            for c in range(pc + 1, n_cols):
                if x[c]:
                    s += row[c] * x[c]
            x[pc] = -s // row[pc]
        basis.append(tuple(x))
    return basis


def mat_vec(rows, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in rows)


def mat_mul(a_rows, b_rows):
    n, k = len(a_rows), len(b_rows[0])
    m = len(b_rows)
    return tuple(
        tuple(sum(a_rows[i][t] * b_rows[t][j] for t in range(m)) for j in range(k))
        for i in range(n)
    )


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(rows):
    return tuple(tuple(row[j] for row in rows) for j in range(len(rows[0])))
