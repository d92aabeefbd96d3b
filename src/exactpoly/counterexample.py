"""The 5-dimensional prismatoid of width 6 on 48 vertices.

This module embeds the vertex coordinates, the 22 representative facet
inequality families (expanded by sign patterns to all 322 facets), the
symmetry groups of order 32 and 64, and the verification suite showing that
the polytope is a prismatoid of width 6 — i.e. without the d-step property —
whose polar is a 5-spindle of length 6 and whose bases have a Minkowski sum
without the pair d-step property.

`Certificate` derives each artifact the suite shares (family table, hull,
labels, dual graph, groups, facet permutations and orbits, base hulls, base
Minkowski sum) once, on first use; every `check_*` section takes it, and the section
runner turns a section that raises into one FAIL line.

A full run, `verify_counterexample(full=True)`, builds the base Minkowski
sum, a hull that needs only the two constant bases and that only the last
section reads, in a forked child while the parent runs the other sections;
`Certificate.base_sum` takes the pickled result from a pipe, so the sum
leaves the critical path.  The child runs only where `os.fork` exists, no
other thread is alive (a fork copies the calling thread alone, so another
thread's locks could stay held in the child) and the process may use two
CPUs (on one core the child only competes with the parent); otherwise the
sum is built inline when it is first read.  A child that does not finish
sends nothing, and the parent then builds the sum itself, so a sum that
raises gives the same FAIL line either way.  The child leaves by
`os._exit`, so no buffered output or exit handler of the parent runs
twice, and the parent always reaps it.  `verify --fast` starts no child.

A symmetry group is its generators, their vertex permutations, and the set
of permutations its elements induce on the vertices, closed from the
generators' permutations; the vertices span R^5, so each element is fixed
by its permutation.  The permutations are found once, for the full group:
the base-preserving subgroup and the base-swap check read them.  Only
the six generators are applied to the facet rows: the orbits of a group are
the orbits of its generators.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional

from .geometry import OrthMap, affine_rank, integer_points, smul, vadd, vsub
from .graphs import Graph
from .linalg import matrix_rank, primitive
from .normalfans import (
    bi_dimensions,
    facet_normals,
    interior_owner,
    is_combinatorial_cube,
    minkowski_sum,
    normal_cone,
    normal_map_interiority_check,
    pair_dstep_property,
    torus_membership_check,
    transversality_check,
)
from .polytopes import (
    Hull,
    VPolytope,
    certify_vertices,
    dual_graph,
    facet_enumeration,
    iter_bits,
    polar,
)
from .prismatoids import is_spindle, make_prismatoid
from .rationals import Rat, format_rat, primitive_ints
from .report import Report

# vertex coordinates: (x1..x4) at height x5 = +1 and x5 = -1
_PLUS = (
    (18, 0, 0, 0), (-18, 0, 0, 0), (0, 18, 0, 0), (0, -18, 0, 0),
    (0, 0, 45, 0), (0, 0, -45, 0), (0, 0, 0, 45), (0, 0, 0, -45),
    (15, 15, 0, 0), (-15, 15, 0, 0), (15, -15, 0, 0), (-15, -15, 0, 0),
    (0, 0, 30, 30), (0, 0, -30, 30), (0, 0, 30, -30), (0, 0, -30, -30),
    (0, 10, 40, 0), (0, -10, 40, 0), (0, 10, -40, 0), (0, -10, -40, 0),
    (10, 0, 0, 40), (-10, 0, 0, 40), (10, 0, 0, -40), (-10, 0, 0, -40),
)
_MINUS = (
    (0, 0, 0, 18), (0, 0, 0, -18), (0, 0, 18, 0), (0, 0, -18, 0),
    (45, 0, 0, 0), (-45, 0, 0, 0), (0, 45, 0, 0), (0, -45, 0, 0),
    (0, 0, 15, 15), (0, 0, 15, -15), (0, 0, -15, 15), (0, 0, -15, -15),
    (30, 30, 0, 0), (-30, 30, 0, 0), (30, -30, 0, 0), (-30, -30, 0, 0),
    (40, 0, 10, 0), (40, 0, -10, 0), (-40, 0, 10, 0), (-40, 0, -10, 0),
    (0, 40, 0, 10), (0, 40, 0, -10), (0, -40, 0, 10), (0, -40, 0, -10),
)

EXPECTED_FACET_COUNT = 322

# facet families: (letter, primed, ((coef, axis), ...) in sign-slot order,
# x5 coefficient, right-hand side).  The sign subscript e = (e1..e4) of a
# family member multiplies the listed terms in order.
_Q = Rat
_FAMILIES = (
    ("B", False, ((_Q(5), 0), (_Q(1), 1), (_Q(2), 2), (_Q(1), 3)), _Q(135, 2), _Q(315, 2)),
    ("B", True, ((_Q(5), 1), (_Q(1), 0), (_Q(2), 3), (_Q(1), 2)), _Q(135, 2), _Q(315, 2)),
    ("C", False, ((_Q(4), 0), (_Q(2), 1), (_Q(7, 4), 2), (_Q(5, 4), 3)), _Q(45), _Q(135)),
    ("C", True, ((_Q(4), 1), (_Q(2), 0), (_Q(7, 4), 3), (_Q(5, 4), 2)), _Q(45), _Q(135)),
    ("D", False, ((_Q(4), 0), (_Q(1), 1), (_Q(2), 2), (_Q(1), 3)), _Q(45), _Q(135)),
    ("D", True, ((_Q(4), 1), (_Q(1), 0), (_Q(2), 3), (_Q(1), 2)), _Q(45), _Q(135)),
    ("E", False, ((_Q(3), 0), (_Q(3, 2), 1), (_Q(3, 2), 2), (_Q(1), 3)), _Q(30), _Q(105)),
    ("E", True, ((_Q(3), 1), (_Q(3, 2), 0), (_Q(3, 2), 3), (_Q(1), 2)), _Q(30), _Q(105)),
    ("F", False, ((_Q(2), 0), (_Q(1), 1), (_Q(1), 2), (_Q(1), 3)), _Q(15), _Q(75)),
    ("F", True, ((_Q(2), 1), (_Q(1), 0), (_Q(1), 3), (_Q(1), 2)), _Q(15), _Q(75)),
    ("G", False, ((_Q(2), 2), (_Q(1), 3), (_Q(1), 1), (_Q(1), 0)), _Q(-15), _Q(75)),
    ("G", True, ((_Q(2), 3), (_Q(1), 2), (_Q(1), 0), (_Q(1), 1)), _Q(-15), _Q(75)),
    ("H", False, ((_Q(3), 2), (_Q(3, 2), 3), (_Q(3, 2), 1), (_Q(1), 0)), _Q(-30), _Q(105)),
    ("H", True, ((_Q(3), 3), (_Q(3, 2), 2), (_Q(3, 2), 0), (_Q(1), 1)), _Q(-30), _Q(105)),
    ("I", False, ((_Q(4), 2), (_Q(1), 3), (_Q(2), 1), (_Q(1), 0)), _Q(-45), _Q(135)),
    ("I", True, ((_Q(4), 3), (_Q(1), 2), (_Q(2), 0), (_Q(1), 1)), _Q(-45), _Q(135)),
    ("J", False, ((_Q(4), 2), (_Q(2), 3), (_Q(7, 4), 1), (_Q(5, 4), 0)), _Q(-45), _Q(135)),
    ("J", True, ((_Q(4), 3), (_Q(2), 2), (_Q(7, 4), 0), (_Q(5, 4), 1)), _Q(-45), _Q(135)),
    ("K", False, ((_Q(5), 2), (_Q(1), 3), (_Q(2), 1), (_Q(1), 0)), _Q(-135, 2), _Q(315, 2)),
    ("K", True, ((_Q(5), 3), (_Q(1), 2), (_Q(2), 0), (_Q(1), 1)), _Q(-135, 2), _Q(315, 2)),
)

_SIGNS = tuple(
    (s0, s1, s2, s3)
    for s0 in (1, -1)
    for s1 in (1, -1)
    for s2 in (1, -1)
    for s3 in (1, -1)
)

# Table-of-incidences data for the five representative facets: label ->
# (tight vertex labels, expected facet row)
REPRESENTATIVE_FACETS = {
    "B++++": (("1+", "5+", "9+", "13+", "17+", "21+", "5-"), (10, 2, 4, 2, 135, 315)),
    "C++++": (("9+", "13+", "17+", "21+", "5-", "13-"), (16, 8, 7, 5, 180, 540)),
    "D++++": (("5+", "13+", "17+", "5-", "17-"), (4, 1, 2, 1, 45, 135)),
    "E++++": (("13+", "17+", "5-", "13-", "17-"), (6, 3, 3, 2, 60, 210)),
    "F++++": (("13+", "21+", "5-", "13-", "17-"), (2, 1, 1, 1, 15, 75)),
}

# neighbor lists of the representative facets in the dual graph
REPRESENTATIVE_NEIGHBORS = {
    "B++++": ("A", "B+-++", "B++-+", "B+++-", "C++++", "D++++"),
    "C++++": ("B++++", "C++-+", "C+++-", "C'++++", "E++++", "F++++"),
    "D++++": ("B++++", "D+-++", "D+++-", "E++++", "G++++"),
    "E++++": ("C++++", "D++++", "E+++-", "F++++", "G++++"),
    "F++++": ("C++++", "E++++", "F+-++", "H'++++", "I'++++"),
}

# bi-dimension (dim F ∩ Q+, dim F ∩ Q-) of each non-base facet family
FAMILY_BIDIMENSION = {
    "B": (3, 0), "C": (2, 1), "D": (2, 1), "E": (1, 2), "F": (1, 2),
    "G": (2, 1), "H": (2, 1), "I": (1, 2), "J": (1, 2), "K": (0, 3),
}

# quotient letter adjacency implied by the five lists plus the base swap
SIGMA_ORBIT_PAIRS = (("A", "L"), ("B", "K"), ("C", "J"), ("D", "I"), ("E", "H"), ("F", "G"))


def vertex_labels():
    return tuple(f"{i + 1}+" for i in range(24)) + tuple(f"{i + 1}-" for i in range(24))


def vertices48() -> VPolytope:
    """The 48 labeled vertices."""
    rows = [tuple(Rat(c) for c in p) + (Rat(1),) for p in _PLUS]
    rows += [tuple(Rat(c) for c in p) + (Rat(-1),) for p in _MINUS]
    return VPolytope(tuple(rows), vertex_labels())


def base_plus() -> VPolytope:
    """The top base as a 4-polytope (last coordinate dropped)."""
    return VPolytope(
        tuple(tuple(Rat(c) for c in p) for p in _PLUS),
        tuple(f"{i + 1}+" for i in range(24)),
    )


def base_minus() -> VPolytope:
    return VPolytope(
        tuple(tuple(Rat(c) for c in p) for p in _MINUS),
        tuple(f"{i + 1}-" for i in range(24)),
    )


def _signed(coefs):
    """The 16 sign patterns of `coefs`, in `_SIGNS` order."""
    return tuple(tuple(Rat(c * s) for c, s in zip(coefs, signs)) for signs in _SIGNS)


def gplus_vertices():
    """The 32 facet normals of the top base, on the torus (26, 5)."""
    return _signed((5, 1, 2, 1)) + _signed((1, 5, 1, 2))


def gminus_vertices():
    """The 32 facet normals of the bottom base."""
    return _signed((1, 2, 5, 1)) + _signed((2, 1, 1, 5))


@dataclass(frozen=True)
class FacetLabel:
    letter: str
    primed: bool = False
    signs: Optional[tuple] = None

    def __str__(self):
        if self.signs is None:
            return self.letter
        marks = "".join("+" if s > 0 else "-" for s in self.signs)
        return f"{self.letter}{chr(39) if self.primed else ''}{marks}"


def _family_row(terms, x5, rhs, signs) -> tuple:
    coeffs = [Rat(0)] * 5
    for (coef, axis), s in zip(terms, signs):
        coeffs[axis] = coef * s
    coeffs[4] = x5
    return tuple(primitive_ints(coeffs + [rhs]))


def expected_facets():
    """All 322 facets as {facet row: FacetLabel}."""
    out = {
        (0, 0, 0, 0, 1, 1): FacetLabel("A"),
        (0, 0, 0, 0, -1, 1): FacetLabel("L"),
    }
    for letter, primed, terms, x5, rhs in _FAMILIES:
        for signs in _SIGNS:
            row = _family_row(terms, x5, rhs, signs)
            if row in out:
                raise AssertionError(f"duplicate expanded facet {row}")
            out[row] = FacetLabel(letter, primed, signs)
    if len(out) != EXPECTED_FACET_COUNT:
        raise AssertionError(f"expanded {len(out)} facets, expected {EXPECTED_FACET_COUNT}")
    return out


# ---------------------------------------------------------------------------
# symmetry groups


@dataclass(frozen=True)
class SymmetryGroup:
    """A group of linear maps that permute a vertex set: its `generators`
    (`OrthMap`s), `generator_perms`, the permutation each induces on the
    vertices, and `perms`, the set of permutations its elements induce."""

    generators: tuple
    generator_perms: tuple
    perms: frozenset

    @property
    def order(self) -> int:
        return len(self.perms)


def _compose(h, g):
    """The permutation h o g (g first) of permutations given as tuples."""
    return tuple(map(h.__getitem__, g))


def _vertex_permutation(m: OrthMap, pts, index):
    """The permutation of the integer points `pts` (with `index`, point ->
    position) that the linear map m induces; a linear map commutes with
    scaling, so it can act on integer copies of the vertices."""
    perm = []
    for p in pts:
        q = m.apply_point(p)
        if q not in index:
            raise ValueError("map does not permute the vertex set")
        perm.append(index[q])
    return tuple(perm)


def _closure(generators, gen_perms) -> SymmetryGroup:
    """The group of `generators`, closed breadth-first on the vertex
    permutations `gen_perms` they induce, so a product costs n lookups."""
    queue = [tuple(range(len(gen_perms[0])))]
    seen = set(queue)
    for p in queue:  # the list grows while it is read: a BFS queue
        for h in gen_perms:
            q = _compose(h, p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return SymmetryGroup(tuple(generators), tuple(gen_perms), frozenset(seen))


def _close_group(generators, poly: VPolytope) -> SymmetryGroup:
    """The group the orthogonal `generators` generate on the vertices of
    `poly`.  A linear map is fixed by its permutation only when the vertices
    span R^d, so that is checked first: otherwise two maps with the same
    permutation would be taken for one."""
    pts = integer_points(poly.vertices)
    index = {p: i for i, p in enumerate(pts)}
    if matrix_rank(pts) != poly.ambient_dim:
        raise ValueError("the vertices do not span the space")
    return _closure(generators, [_vertex_permutation(m, pts, index) for m in generators])


def base_swap_map() -> OrthMap:
    """The symmetry exchanging the bases, sending vertex i+ to i-."""
    return OrthMap.from_rows(
        (
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 1, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (0, 0, 0, 0, -1),
        )
    )


def symmetry_groups(poly: VPolytope):
    """(full group of order 64, base-preserving subgroup of order 32) of
    `poly`, the vertices of `vertices48()`; the subgroup is closed from the
    permutations of its generators found for the full group, the first five
    of its six, the base swap last."""
    gens_plus = []
    for axis in range(4):
        rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        rows[axis][axis] = -1
        gens_plus.append(OrthMap.from_rows(rows))
    gens_plus.append(
        OrthMap.from_rows(
            (
                (0, 1, 0, 0, 0),
                (1, 0, 0, 0, 0),
                (0, 0, 0, 1, 0),
                (0, 0, 1, 0, 0),
                (0, 0, 0, 0, 1),
            )
        )
    )
    sigma = _close_group(gens_plus + [base_swap_map()], poly)
    k = len(gens_plus)
    return sigma, _closure(sigma.generators[:k], sigma.generator_perms[:k])


# ---------------------------------------------------------------------------
# labeling and orbits


def facet_labels(hull: Hull, table: dict):
    """Index -> FacetLabel for the enumerated facets, looked up in the
    `expected_facets()` table; fails on any mismatch."""
    labels = []
    for q in hull.hrep.inequalities:
        lbl = table.get(q)
        if lbl is None:
            raise ValueError(f"facet {q} matches no expected family")
        labels.append(lbl)
    if len(labels) != len(table):
        raise ValueError("facet count differs from the expected 322")
    return tuple(labels)


def facet_permutation(m: OrthMap, index: dict):
    """The permutation a symmetry induces on the facets; `index` maps each
    facet row (a, b) to its position.  The image of a row is (M a, b): M is
    a signed coordinate permutation, so it sends a primitive row to a
    primitive row, and the image is looked up as it stands.

    `Certificate.facet_perms` calls this on the six generators only.  That
    proves as much as calling it on every element: maps that permute the
    facets compose to a map that does, and a group's orbits are the orbits
    of its generators."""
    rows = m.rows
    perm = [None] * len(index)
    for q, f in index.items():
        img = tuple(sum(map(mul, row, q[:-1])) for row in rows) + (q[-1],)
        if img not in index:
            raise ValueError("map does not permute the facet set")
        perm[f] = index[img]
    return tuple(perm)


def facet_orbits(perms):
    """Partition of facet indices under the group that the facet
    permutations `perms` generate, sorted by smallest member."""
    n = len(perms[0])
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            f = frontier.pop()
            for perm in perms:
                g = perm[f]
                if g not in orbit:
                    orbit.add(g)
                    frontier.append(g)
        for f in orbit:
            seen[f] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def orbit_adjacency_graph(graph: Graph, orbits):
    """Quotient of the dual graph by a facet-orbit partition.

    Returns (Graph over orbit indices, orbit index per facet).
    """
    which = {}
    for oi, orbit in enumerate(orbits):
        for f in orbit:
            which[f] = oi
    edges = set()
    for a, b in graph.edges:
        oa, ob = which[a], which[b]
        if oa != ob:
            edges.add((min(oa, ob), max(oa, ob)))
    return Graph(len(orbits), sorted(edges)), which


# ---------------------------------------------------------------------------
# verification checks


class Certificate:
    """The artifacts the verification sections share, each derived once on
    first use: from `vertices48()`, or from `poly` (for mutation tests)."""

    def __init__(self, poly: Optional[VPolytope] = None):
        self.poly = vertices48() if poly is None else poly
        self.sum_worker = None  # a `_SumWorker` building `base_sum`, if any

    @cached_property
    def expected(self) -> dict:
        """The 322 facet rows of the family table (`expected_facets`)."""
        return expected_facets()

    @cached_property
    def hull(self) -> Hull:
        return facet_enumeration(self.poly)

    @cached_property
    def labels(self):
        return facet_labels(self.hull, self.expected)

    @cached_property
    def by_label(self) -> dict:
        """Facet label text -> facet index."""
        return {str(lbl): i for i, lbl in enumerate(self.labels)}

    @cached_property
    def pr(self):
        certify_vertices(self.poly)
        return make_prismatoid(self.poly, (self.by_label["A"], self.by_label["L"]))

    @cached_property
    def graph(self) -> Graph:
        return dual_graph(self.poly, self.hull)

    @cached_property
    def bidims(self) -> dict:
        """Non-base facet -> its bi-dimension (see `bi_dimensions`)."""
        return bi_dimensions(self.pr)

    @cached_property
    def groups(self):
        """(full group of order 64, base-preserving subgroup of order 32)."""
        return symmetry_groups(self.poly)

    @cached_property
    def facet_perms(self) -> tuple:
        """The facet permutation of each generator of the full group, in
        order; the base-preserving subgroup's generators come first."""
        index = {q: i for i, q in enumerate(self.hull.hrep.inequalities)}
        return tuple(facet_permutation(m, index) for m in self.groups[0].generators)

    @cached_property
    def orbits(self):
        return facet_orbits(self.facet_perms)

    @cached_property
    def orbits_plus(self):
        return facet_orbits(self.facet_perms[: len(self.groups[1].generators)])

    @cached_property
    def qplus(self) -> VPolytope:
        return base_plus()

    @cached_property
    def qminus(self) -> VPolytope:
        return base_minus()

    @cached_property
    def hull_plus(self) -> Hull:
        return facet_enumeration(self.qplus)

    @cached_property
    def hull_minus(self) -> Hull:
        return facet_enumeration(self.qminus)

    @cached_property
    def base_sum(self):
        """The Minkowski sum of the bases: the worker's, when one was started
        and sent it, else built here."""
        found = self.sum_worker.result() if self.sum_worker is not None else None
        return found if found is not None else minkowski_sum(self.qplus, self.qminus)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _SumWorker:
    """A forked child that builds `minkowski_sum(base_plus(), base_minus())`
    and writes it, pickled, to the pipe `fd`; see the module docstring."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd = pid, fd

    @classmethod
    def start(cls):
        """A running worker, or None where a fork would not pay or is unsafe."""
        if not hasattr(os, "fork") or threading.active_count() > 1 or _usable_cpus() < 2:
            return None
        import pickle  # imported here: only a full verify that forks needs it

        fd, out = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the sum is built inline
            os.close(fd)
            os.close(out)
            return None
        if pid == 0:
            os.close(fd)
            code = 1
            try:
                with os.fdopen(out, "wb") as pipe:
                    pickle.dump(minkowski_sum(base_plus(), base_minus()), pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(out)
        return cls(pid, fd)

    def result(self):
        """The child's sum, or None when it exited without sending one or
        was reaped already.  The child is reaped here."""
        if self.pid is None:
            return None
        import pickle

        try:
            with os.fdopen(self.fd, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
        return pickle.loads(data) if status == 0 else None

    def stop(self):
        """Kill and reap the child if its result was never read."""
        if self.pid is not None:
            import signal

            os.close(self.fd)
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def check_facet_census(ctx: Certificate) -> Report:
    rep = Report("facet census")
    got = set(ctx.hull.hrep.inequalities)
    want = set(ctx.expected)
    rep.add("facet count", len(got) == EXPECTED_FACET_COUNT, f"{len(got)}")
    rep.add(
        "facet set equals expanded table",
        got == want,
        f"missing={len(want - got)} extra={len(got - want)}",
    )
    return rep


def check_representative_facets(ctx: Certificate) -> Report:
    """Tight vertex sets of the five representative facets, their ranks, and
    the facet shapes (three simplices, one 6-vertex, one 7-vertex facet)."""
    rep = Report("representative facets")
    poly, hull, by_label = ctx.poly, ctx.hull, ctx.by_label
    lbl_of_vertex = poly.labels
    for name, (tight_labels, row) in REPRESENTATIVE_FACETS.items():
        f = by_label[name]
        rep.add(f"{name} inequality", hull.hrep.inequalities[f] == row, str(row))
        got = tuple(sorted(lbl_of_vertex[v] for v in iter_bits(hull.incidence.facet_masks[f])))
        want = tuple(sorted(tight_labels))
        rep.add(f"{name} tight set", got == want, " ".join(got))
        pts = [poly.vertices[v] for v in iter_bits(hull.incidence.facet_masks[f])]
        rep.add(f"{name} affine rank", affine_rank(pts) == 4, str(affine_rank(pts)))
    for name, count in (("B++++", 7), ("C++++", 6), ("D++++", 5), ("E++++", 5), ("F++++", 5)):
        f = by_label[name]
        rep.add(
            f"{name} vertex count",
            hull.incidence.facet_masks[f].bit_count() == count,
            str(count),
        )
    return rep


def check_prism_collinearities(ctx: Certificate) -> Report:
    """The three rays of the representative prism collide at o, and the
    quadrilateral identity 2 v9+ + 4 v13+ = 3 v17+ + 3 v21+ holds."""
    poly = ctx.poly
    rep = Report("prism structure")
    idx = {lbl: i for i, lbl in enumerate(poly.labels)}

    def v(lbl):
        return poly.vertices[idx[lbl]]

    def fmt(p):
        return "(" + ",".join(format_rat(c) for c in p) + ")"

    o = tuple(Rat(c) for c in (-30, 0, 120, 0, 1))
    e1 = vsub(smul(Rat(8, 3), v("5+")), smul(Rat(5, 3), v("1+")))
    e2 = vsub(smul(Rat(3), v("17+")), smul(Rat(2), v("9+")))
    e3 = vsub(smul(Rat(4), v("13+")), smul(Rat(3), v("21+")))
    rep.add("ray 1+5+ hits o", e1 == o, fmt(e1))
    rep.add("ray 9+17+ hits o", e2 == o, fmt(e2))
    rep.add("ray 21+13+ hits o", e3 == o, fmt(e3))
    quad_l = vadd(smul(Rat(2), v("9+")), smul(Rat(4), v("13+")))
    quad_r = vadd(smul(Rat(3), v("17+")), smul(Rat(3), v("21+")))
    rep.add("quadrilateral identity", quad_l == quad_r, fmt(quad_l))
    return rep


def check_symmetries(ctx: Certificate) -> Report:
    """Group orders, the base swap, and that every element permutes the
    facets: each generator passes the exact image-row test of
    `facet_permutation`, so every product of generators does too."""
    rep = Report("symmetry groups")
    sigma, sigma_plus = ctx.groups
    rep.add("order of full group", sigma.order == 64, str(sigma.order))
    rep.add("order of base-preserving subgroup", sigma_plus.order == 32, str(sigma_plus.order))
    perm = sigma.generator_perms[-1]  # the base swap's
    ok = all(perm[i] == i + 24 for i in range(24))
    rep.add("base swap sends i+ to i-", ok, "")
    sq = _compose(perm, perm)
    rep.add(
        "base swap is not an involution",
        sq != tuple(range(len(perm))) and sq in sigma_plus.perms,
        "square is a nontrivial base-preserving element",
    )
    try:
        ctx.facet_perms  # raises ValueError if a generator does not permute the facets
        rep.add("every element permutes the facet set", True, f"{sigma.order} maps")
    except ValueError as exc:
        rep.add("every element permutes the facet set", False, str(exc))
    return rep


def check_orbits(ctx: Certificate) -> Report:
    rep = Report("facet orbits")
    labels = ctx.labels
    orb_plus = ctx.orbits_plus
    sizes = sorted(len(o) for o in orb_plus)
    rep.add(
        "orbit sizes under the base-preserving group",
        sizes == [1, 1] + [32] * 10,
        str(sizes),
    )
    letter_of = [lbl.letter for lbl in labels]
    for orbit in orb_plus:
        letters = {letter_of[f] for f in orbit}
        rep.add(
            f"orbit of {labels[orbit[0]]} has one letter",
            len(letters) == 1,
            "".join(sorted(letters)),
        )
    pairing = sorted("".join(sorted({letter_of[f] for f in o})) for o in ctx.orbits)
    want = sorted("".join(sorted(pair)) for pair in SIGMA_ORBIT_PAIRS)
    rep.add("six full-group orbits pair the letters", pairing == want, " ".join(pairing))
    return rep


def check_neighbor_lists(ctx: Certificate) -> Report:
    rep = Report("representative neighbor lists")
    labels = ctx.labels
    for name, wanted in REPRESENTATIVE_NEIGHBORS.items():
        f = ctx.by_label[name]
        got = tuple(sorted(str(labels[g]) for g in ctx.graph.adj[f]))
        rep.add(f"neighbors of {name}", got == tuple(sorted(wanted)), " ".join(got))
    return rep


def check_width(ctx: Certificate) -> Report:
    rep = Report("width")
    pr, graph = ctx.pr, ctx.graph
    dist = graph.distance(pr.base_plus, pr.base_minus)
    rep.add("dual distance between bases", dist == 6, str(dist))
    path = graph.shortest_path(pr.base_plus, pr.base_minus)
    rep.add("a six-step path exists", len(path) == 7, "->".join(str(i) for i in path))
    rep.add("no five-step path exists", dist > 5, f"BFS minimum is {dist}")
    rep.add("d-step property fails", dist > pr.dim, f"width {dist} > dim {pr.dim}")
    return rep


def check_orbit_quotient(ctx: Certificate) -> Report:
    """Quotient adjacency by base-preserving orbits, its A-to-L distance, and
    the bi-dimension bands."""
    rep = Report("orbit quotient")
    labels, by_label = ctx.labels, ctx.by_label
    q, which = orbit_adjacency_graph(ctx.graph, ctx.orbits_plus)
    a_node = which[by_label["A"]]
    l_node = which[by_label["L"]]
    rep.add("quotient distance A to L", q.distance(a_node, l_node) == 6, str(q.distance(a_node, l_node)))
    # bi-dimension bands per letter
    bad = [
        f"{labels[f]}:{dims}"
        for f, dims in ctx.bidims.items()
        if dims != FAMILY_BIDIMENSION[labels[f].letter]
    ]
    rep.add("bi-dimension bands match the families", not bad, " ".join(bad) or "all 320")
    return rep


def check_spindle_polar(ctx: Certificate) -> Report:
    """The polar is a 5-spindle with 48 facets, 322 vertices, length 6.

    The polar's hull is the one `polar` derives by duality and verifies, so
    its facet count follows from the 48 certified vertices of q48.  The
    tests keep a double-description build of the 322 points as the
    cross-check, until a ridge certificate proves the hull complete."""
    rep = Report("polar spindle")
    pol = polar(ctx.poly)
    n_facets = facet_enumeration(pol).incidence.n_facets
    rep.add("polar vertex count", pol.n_vertices == 322, str(pol.n_vertices))
    rep.add("polar facet count", n_facets == 48, str(n_facets))
    found = is_spindle(pol)
    rep.add("polar is a spindle", found is not None, "")
    if found:
        rep.add("spindle length", found[2] == 6, str(found[2]))
    return rep


def check_base_structure(ctx: Certificate) -> Report:
    """Facet structure of the two bases: 32 facets each of the stated shape,
    cube vertex figures, torus membership, and the worked cone containment."""
    rep = Report("base structure")
    qp, qm, hull_p, hull_m = ctx.qplus, ctx.qminus, ctx.hull_plus, ctx.hull_minus
    rep.add("top base has 32 facets", hull_p.incidence.n_facets == 32, str(hull_p.incidence.n_facets))
    want_p = {(q + (Rat(90),)) for q in gplus_vertices()}
    got_p = set(hull_p.hrep.inequalities)
    rep.add("top base facets match the two families", got_p == want_p, "")
    rep.add(
        "every top-base vertex on exactly 8 facets",
        all(m.bit_count() == 8 for m in hull_p.incidence.vertex_masks),
        "",
    )
    cube_ok = all(
        is_combinatorial_cube(normal_cone(hull_p, v))
        for v in range(qp.n_vertices)
    )
    rep.add("vertex figures of the top base are 3-cubes", cube_ok, "24 vertices")
    rep.merge(torus_membership_check(facet_normals(hull_p)))
    want_m = {(q + (Rat(90),)) for q in gminus_vertices()}
    got_m = set(hull_m.hrep.inequalities)
    rep.add("bottom base facets match the swapped families", got_m == want_m, "")

    # the worked example: (5,1,2,1) sits strictly inside the cone of the
    # bottom-base vertex at (45,0,0,0), whose generators are (2,±1,±1,±5)
    v_dir = (Rat(5), Rat(1), Rat(2), Rat(1))
    c_idx = qm.vertices.index((Rat(45), Rat(0), Rat(0), Rat(0)))
    rep.add(
        "(5,1,2,1) strictly inside the cone of (45,0,0,0)",
        interior_owner(qm, v_dir) == c_idx,
        "",
    )
    gens = set(normal_cone(hull_m, c_idx))
    want_gens = {
        (Rat(2), Rat(a), Rat(b), Rat(5 * c))
        for a in (1, -1)
        for b in (1, -1)
        for c in (1, -1)
    }
    rep.add("cone of (45,0,0,0) generated by (2,±1,±1,±5)", gens == want_gens, "")
    return rep


def check_minkowski_section(ctx: Certificate) -> Report:
    """The sum of the bases: 320 facets, dual graph equal to the prismatoid's
    minus its bases, failed pair d-step with minimum sequence 5, transversal,
    and the interiority statements."""
    rep = Report("base Minkowski sum")
    pr, ms = ctx.pr, ctx.base_sum
    rep.add("sum facet count", ms.n_facets == 320, str(ms.n_facets))

    # dual-graph identity under matching of normals restricted to x1..x4
    sum_index = {primitive(mf.normal): f for f, mf in enumerate(ms.facets)}
    inc = pr.hull.incidence
    bases = {pr.base_plus, pr.base_minus}
    mapping = {}
    ok = len(sum_index) == ms.n_facets
    for f in range(inc.n_facets):
        if f in bases:
            continue
        key = primitive(pr.hull.hrep.inequalities[f][:4])
        if key not in sum_index:
            ok = False
            break
        mapping[f] = sum_index[key]
    ok = ok and len(mapping) == 320 and len(set(mapping.values())) == 320
    rep.add("restricted normals biject onto sum facets", ok, f"{len(mapping)} matched")
    if ok:
        edges_q = {
            (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
            for a, b in ctx.graph.edges
            if a not in bases and b not in bases
        }
        edges_s = set(ms.graph.edges)
        rep.add(
            "dual graph of the sum equals the prismatoid's minus its bases",
            edges_q == edges_s,
            f"{len(edges_s)} edges",
        )
        has_prop, min_facets = pair_dstep_property(ctx.qplus, ctx.qminus, pr.dim, ms=ms)
        rep.add("pair d-step property fails", not has_prop, "")
        rep.add("minimum facet sequence length", min_facets == 5, str(min_facets))
        # bi-dimension bands per family letter
        bands_ok = True
        for f, lbl in enumerate(ctx.labels):
            if lbl.letter in ("A", "L"):
                continue
            if ms.facets[mapping[f]].bi_dimension != FAMILY_BIDIMENSION[lbl.letter]:
                bands_ok = False
                break
        rep.add("sum bi-dimensions match the family bands", bands_ok, "")
    rep.merge(transversality_check(pr, ctx.bidims))
    orbit = (4, 5, 6, 7)  # vertices 5..8 of either base
    rep.merge(normal_map_interiority_check(ctx.qplus, ctx.qminus, orbit, orbit))
    return rep


def _run_sections(title: str, ctx: Certificate, sections) -> Report:
    """Run the sections in order. A section that raises becomes one FAIL line
    and the rest still run, except that a failed census ends the run: every
    later section assumes the 322 labelled facets."""
    rep = Report(title)
    for section in sections:
        try:
            rep.merge(section(ctx))
        except Exception as exc:  # a broken section must not end the report
            rep.add(f"{section.__name__} raised", False, f"{type(exc).__name__}: {exc}")
        if section is check_facet_census and not rep.passed:
            break
    return rep


def verify_counterexample(full: bool) -> Report:
    """The complete verification suite; `full` adds the base-structure and
    Minkowski-sum sections."""
    sections = [
        check_facet_census,
        check_representative_facets,
        check_prism_collinearities,
        check_symmetries,
        check_orbits,
        check_neighbor_lists,
        check_width,
        check_orbit_quotient,
        check_spindle_polar,
    ]
    ctx = Certificate()
    if full:
        sections += [check_base_structure, check_minkowski_section]
        ctx.sum_worker = _SumWorker.start()
    try:
        return _run_sections("width-6 prismatoid", ctx, sections)
    finally:
        if ctx.sum_worker is not None:
            ctx.sum_worker.stop()

