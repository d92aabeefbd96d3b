"""The integer row reduction of `linalg` against a textbook Fraction reference.

A wrong reduction step or an inexact division in the back-substitution would
show up here as a wrong greedy basis, pivot set, rank or kernel.  `linalg`
takes `int` rows only, so each drawn row, which may hold rationals, is
scaled to integers here, row by row, and the reference reduces the drawn
rows themselves.  The brute-force hull oracle takes its hyperplanes from
the Fraction reference, but it still shares `affine_rank` with the engine,
so `affine_rank` is checked against the reference here.  A guard runs the
engine on rational input and fails on any entry it hands to `reduce_rows`,
to the hull builder's constructor or to its `extend` that is not an
`int`, and a second guard fails on any read of `VPolytope.vertices` outside
the collinearity check and on any polytope whose vectors are not canonical.
"""
import math
import sys
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from exactpoly.constructions import push_vertex, strong_dstep_iterate
from exactpoly.counterexample import verify_counterexample, vertices48
from exactpoly.geometry import affine_rank
from exactpoly.linalg import matrix_rank, nullspace, pivot_columns, reduce_rows
from exactpoly.normalfans import minkowski_sum
from exactpoly.polytopes import HullBuilder, VPolytope, facet_enumeration, polar
from exactpoly.prismatoids import make_prismatoid
from helpers import (
    clear_denominators,
    fractions,
    reference_nullspace,
    reference_rank,
    reference_rref,
    vpoly,
)

SMALL = st.integers(-6, 6)
HUGE = st.builds(lambda sign, v: sign * v, st.sampled_from((-1, 1)),
                 st.integers(10**40 + 1, 10**45))
RATIONAL = fractions(-20, 20, 12)
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


def _ints(rows):
    """Each row times the lcm of its denominators: the rows `linalg` takes."""
    return [clear_denominators(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_pivots_rank_and_greedy_basis_match_reference(rows):
    pivots, _ = reference_rref(rows)
    ints = _ints(rows)
    idx, kept = reduce_rows(ints)
    assert pivot_columns(ints) == pivots
    assert matrix_rank(ints) == len(idx) == len(kept) == len(pivots)
    # row i is kept iff it raises the rank of the rows before it
    assert idx == [
        i for i in range(len(rows)) if reference_rank(rows[: i + 1]) > reference_rank(rows[:i])
    ]
    assert _is_int_matrix([r for _, r in kept])
    for n, (c, r) in enumerate(kept):
        # each kept row is primitive, starts at its pivot, vanishes at the
        # pivots kept before it and spans the same rows as the reference
        assert math.gcd(*r) == 1
        assert r[c] != 0 and all(v == 0 for v in r[:c])
        assert all(r[pc] == 0 for pc, _ in kept[:n])
        assert reference_rank([rows[i] for i in idx] + [r]) == len(idx)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(rows):
    pivots, _ = reference_rref(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    want = reference_nullspace(rows)
    got = nullspace(_ints(rows))
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
    # drawn int rows, and rational rows scaled to ints, as lists: the
    # reduction forms new rows, and the caller's row objects keep their values
    for rows in (int_rows, _ints(mixed_rows)):
        originals = [list(r) for r in rows]
        objects = list(rows)
        _, kept = reduce_rows(rows)
        matrix_rank(rows)
        pivot_columns(rows)
        nullspace(rows)
        assert all(a is b for a, b in zip(rows, objects))
        assert [list(r) for r in rows] == originals
        assert all(type(r) is tuple for _, r in kept)


COORD = st.one_of(st.integers(-5, 5), fractions(-5, 5, 9))


@st.composite
def affine_point_sets(draw):
    """Rational points with mixed denominators in dims 1-5: a few spanning
    points, then affine combinations of them mixed in, so the rank is often
    below both the dimension and the number of points."""
    dim = draw(st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=dim + 1))
    for _ in range(draw(st.integers(0, 4))):
        weights = [draw(fractions(-2, 2, 5)) for _ in pts[1:]]
        combo = [1 - sum(weights, Fraction(0))] + weights
        at = draw(st.integers(0, len(pts)))
        pts.insert(at, tuple(sum(w * p[j] for w, p in zip(combo, pts)) for j in range(dim)))
    return pts


@settings(max_examples=200, deadline=None)
@given(affine_point_sets())
def test_affine_rank_matches_reference(pts):
    diffs = [[Fraction(a) - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    assert affine_rank(pts) == reference_rank(diffs)


def _guard_inputs():
    """(the 4-cube as a prismatoid over its last coordinate, a tetrahedron
    and a cube with denominators): the inputs the engine guards run on."""
    cube4 = vpoly(tuple(tuple(Fraction(c) for c in p) for p in product((-1, 1), repeat=4)))
    rows = facet_enumeration(cube4).hrep.inequalities
    cube4_prismatoid = make_prismatoid(cube4, (rows.index((0, 0, 0, 1, 1)), rows.index((0, 0, 0, -1, 1))))
    third = Fraction(1, 3)
    tetrahedron = vpoly(((Fraction(1, 2), 0, 0), (0, third, 0), (0, 0, Fraction(2, 5)), (0, 0, 0)))
    small_cube = vpoly(tuple(tuple(third * c for c in p) for p in product((-1, 1), repeat=3)))
    return cube4_prismatoid, tetrahedron, small_cube


def test_the_engine_hands_reduce_rows_int_rows_only(monkeypatch):
    """`reduce_rows`, wrapped in every module that holds it, and the hull
    builder's constructor and `extend` refuse and record each entry that is
    not an `int` while the engine runs on rationals: full verify, a
    two-step lift of the 4-cube as a prismatoid, the Minkowski sum of two
    summands with denominators, the hull of a flat rational pentagon in
    R^3, and `affine_rank` of rational points.  Each run must reduce some
    rows, the runs together must start builders and extend them, and
    nothing may hold anything but `int`s (full verify reports a section
    that raises as a FAIL line, so the record is read after each run)."""
    calls, bad = [], []
    counts = {"HullBuilder": 0, "extend": 0}

    def refuse(name, entries):
        bad.extend(v for v in entries if type(v) is not int)
        assert not bad, f"{name} handed {bad[:3]}"

    def ints_only(rows):
        calls.append(len(rows))
        refuse("reduce_rows", [v for row in rows for v in row])
        return reduce_rows(rows)

    start, extend = HullBuilder.__init__, HullBuilder.extend

    def checked_start(self, vectors):
        counts["HullBuilder"] += 1
        refuse("HullBuilder", [v for q in vectors if q is not None for v in q])
        start(self, vectors)

    def checked_extend(self, i, q):
        counts["extend"] += 1
        refuse("extend", q)
        return extend(self, i, q)

    patched = [name for name, module in sys.modules.items()
               if name.startswith("exactpoly") and getattr(module, "reduce_rows", None) is reduce_rows]
    assert {"exactpoly.linalg", "exactpoly.polytopes"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "reduce_rows", ints_only)
    monkeypatch.setattr(HullBuilder, "__init__", checked_start)
    monkeypatch.setattr(HullBuilder, "extend", checked_extend)

    cube4_prismatoid, tetrahedron, small_cube = _guard_inputs()
    third = Fraction(1, 3)
    pentagon = [(0, 0), (4, 0), (6, 3), (3, 6), (-1, 3)]
    flat = vpoly(tuple((x, Fraction(y, 7), Fraction(x, 2) - Fraction(y, 3) + third) for x, y in pentagon))
    runs = {
        "verify": lambda: verify_counterexample(True).passed,
        "lift": lambda: [r.dim for r in strong_dstep_iterate(cube4_prismatoid, 2, seed=0)[1]] == [4, 5, 6],
        "sum": lambda: minkowski_sum(tetrahedron, small_cube).polytope.n_vertices == 13,
        "flat hull": lambda: facet_enumeration(flat).incidence.n_facets == 5,
        "affine_rank": lambda: affine_rank([(third, 1), (Fraction(5, 6), Fraction(1, 2)), (Fraction(4, 3), 0)]) == 1,
    }
    for name, run in runs.items():
        before = len(calls)
        ok = run()
        assert not bad, f"{name} handed {bad[:3]}"
        assert ok and len(calls) > before, name
    assert min(counts.values()) > 0, counts


def _canonical(q) -> bool:
    """q is a point's one vector: `int` entries, coprime, last entry > 0."""
    return all(type(v) is int for v in q) and math.gcd(*q) == 1 and q[-1] > 0


def test_the_engine_reads_canonical_vectors_only(monkeypatch):
    """With `VPolytope.vertices` patched to refuse and record every read but
    those of `check_prism_collinearities`, which checks rational identities
    on purpose, and every `VPolytope` made checked for vectors that are not
    canonical (an entry that is not an `int`, a common factor above 1, a
    last entry of 0 or less): full verify, the q48 push, a two-step lift of
    the 4-cube to dim 6, the Minkowski sum of two summands with
    denominators and a polar read no rational point and make no other
    vector.  Full verify reports a section that raises as a FAIL line, so
    the record is read after each run."""
    assert not any(map(_canonical, [(2, 4, 2), (1, 0), (-1, -1), (Fraction(1), 1), (True, 1)]))
    reads, bad = [], []
    made = [0]
    view, post_init = VPolytope.vertices, VPolytope.__post_init__

    def refusing_view(self):
        caller = sys._getframe(1).f_code.co_name
        if caller != "check_prism_collinearities":
            reads.append(caller)
            raise AssertionError(f"{caller} read VPolytope.vertices")
        return view.fget(self)

    def checked_post_init(self):
        made[0] += 1
        bad.extend(q for q in self.vectors if not _canonical(q))
        post_init(self)

    cube4_prismatoid, tetrahedron, small_cube = _guard_inputs()
    monkeypatch.setattr(VPolytope, "vertices", property(refusing_view))
    monkeypatch.setattr(VPolytope, "__post_init__", checked_post_init)
    runs = {
        "verify": lambda: verify_counterexample(True).passed,
        "push": lambda: push_vertex(vertices48(), 3, seed=1).n_vertices == 48,
        "lift": lambda: [r.dim for r in strong_dstep_iterate(cube4_prismatoid, 2, seed=0)[1]] == [4, 5, 6],
        "sum": lambda: minkowski_sum(tetrahedron, small_cube).polytope.n_vertices == 13,
        "polar": lambda: polar(tetrahedron).n_vertices == 4,
    }
    for name, run in runs.items():
        before = made[0]
        ok = run()
        assert not reads, f"{name}: {reads[:3]} read VPolytope.vertices"
        assert not bad, f"{name} made the vectors {bad[:3]}"
        assert ok and made[0] > before, name
