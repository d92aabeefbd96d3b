"""The 5-dimensional prismatoid of width 6 on 48 vertices.

This module embeds the vertex coordinates, the 22 representative facet
inequality families (expanded by sign patterns to all 322 facets), the
symmetry groups of order 32 and 64, and the verification suite showing that
the polytope is a prismatoid of width 6 — i.e. without the d-step property —
whose polar is a 5-spindle of length 6 and whose bases have a Minkowski sum
without the pair d-step property.

`Certificate` derives each artifact the suite shares (family table, hull,
labels, groups, facet permutations and orbits, base hulls, base Minkowski
sum) once, on first use; every `check_*` section takes it, and the section
runner turns a section that raises into one FAIL line.  A graph is read off
the hull that keeps it (`polytopes.Hull`), so q48's dual graph and the base
sum's are each built once.  `FAST_SECTIONS` and `FULL_SECTIONS` name the
sections of `verify --fast` and full `verify`.

A symmetry group is its generators, their vertex permutations, and the set
of permutations its elements induce on the vertices: those that products
of the generators' permutations reach from the identity.  One breadth-first
walk, `_reachable`, closes a group and finds a facet orbit.  The vertices
span R^5, so each element is fixed by its permutation.  The permutations
are found once, for the full group: the base-preserving subgroup and the
base-swap check read them.  Only the six generators are applied to the
facet rows: the orbits of a group are the orbits of its generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .geometry import OrthMap, integer_points, smul, vadd, vsub
from .graphs import Graph
from .linalg import matrix_rank, primitive
from .normalfans import (
    bi_dimensions,
    facet_normals,
    interior_owner,
    is_combinatorial_cube,
    minkowski_sum_from_cayley,
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
    facet_enumeration,
    iter_bits,
    polar,
)
from .prismatoids import is_spindle, make_prismatoid, width
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


def _base(rows, sign) -> VPolytope:
    return VPolytope(
        tuple(tuple(Rat(c) for c in p) for p in rows),
        tuple(f"{i + 1}{sign}" for i in range(len(rows))),
    )


def base_plus() -> VPolytope:
    """The top base as a 4-polytope (last coordinate dropped)."""
    return _base(_PLUS, "+")


def base_minus() -> VPolytope:
    return _base(_MINUS, "-")


def vertices48() -> VPolytope:
    """The 48 labeled vertices: the top base at x5 = 1, then the bottom base
    at x5 = -1."""
    bases = ((base_plus(), Rat(1)), (base_minus(), Rat(-1)))
    return VPolytope(
        tuple(p + (x5,) for base, x5 in bases for p in base.vertices),
        tuple(label for base, _ in bases for label in base.labels),
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


def expected_facets():
    """All 322 facets as {facet row: label}.  A label is "A", "L", or the
    family letter, a prime for a primed family and one sign per sign slot,
    as in "B'+-++".  Each family's row is made a primitive integer row
    once; a sign pattern flips its entries, which keeps it primitive."""
    out = {(0, 0, 0, 0, 1, 1): "A", (0, 0, 0, 0, -1, 1): "L"}
    for letter, primed, terms, x5, rhs in _FAMILIES:
        first = [Rat(0)] * 4 + [x5, rhs]
        for coef, axis in terms:
            first[axis] = coef
        first = primitive_ints(first)
        family = letter + ("'" if primed else "")
        for signs in _SIGNS:
            row = list(first)
            for (_, axis), s in zip(terms, signs):
                row[axis] *= s
            row = tuple(row)
            if row in out:
                raise AssertionError(f"duplicate expanded facet {row}")
            out[row] = family + "".join("+" if s > 0 else "-" for s in signs)
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


def _reachable(start, moves) -> set:
    """Everything that `moves`, functions of one argument, reach from
    `start` when applied over and over, found breadth-first."""
    queue = [start]
    seen = {start}
    for x in queue:  # the list grows while it is read: a BFS queue
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _closure(generators, gen_perms) -> SymmetryGroup:
    """The group of `generators`: the permutations that products of the
    vertex permutations `gen_perms` they induce reach from the identity, so
    a product costs n lookups."""
    identity = tuple(range(len(gen_perms[0])))
    perms = _reachable(identity, [partial(_compose, h) for h in gen_perms])
    return SymmetryGroup(tuple(generators), tuple(gen_perms), frozenset(perms))


def _close_group(generators, poly: VPolytope) -> SymmetryGroup:
    """The group the orthogonal `generators` generate on the vertices of
    `poly`.  A linear map is fixed by its permutation only when the vertices
    span R^d, so that is checked first: otherwise two maps with the same
    permutation would be taken for one."""
    pts = integer_points(poly.vertices)[0]
    index = {p: i for i, p in enumerate(pts)}
    if matrix_rank(pts) != poly.ambient_dim:
        raise ValueError("the vertices do not span the space")
    return _closure(generators, [_vertex_permutation(m, pts, index) for m in generators])


def base_swap_map() -> OrthMap:
    """The symmetry exchanging the bases, sending vertex i+ to i-."""
    return OrthMap(
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
        gens_plus.append(OrthMap(rows))
    gens_plus.append(
        OrthMap(
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
    """Index -> label for the enumerated facets, looked up in the
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
    primitive row, and the image is looked up as it stands: entry i of
    M a is entry c of a times s, for the (c, s) of `OrthMap.signed`.

    `Certificate.facet_perms` calls this on the six generators only.  That
    proves as much as calling it on every element: maps that permute the
    facets compose to a map that does, and a group's orbits are the orbits
    of its generators."""
    signed = m.signed
    perm = [None] * len(index)
    for q, f in index.items():
        img = tuple([s * q[c] for c, s in signed]) + (q[-1],)
        if img not in index:
            raise ValueError("map does not permute the facet set")
        perm[f] = index[img]
    return tuple(perm)


def facet_orbits(perms):
    """Partition of facet indices under the group that the facet
    permutations `perms` generate, sorted by smallest member."""
    moves = [perm.__getitem__ for perm in perms]
    seen = set()
    orbits = []
    for start in range(len(perms[0])):
        if start not in seen:
            orbit = _reachable(start, moves)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


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
    first use from `poly`: `vertices48()`, or a mutant of it in the tests.

    The hull of `poly` is built once, checked by `_verify` and compared
    with the family table by the census.  Each base's hull is built apart
    from it and kept on `qplus` or `qminus`.  The base Minkowski sum is
    read off the hull of `poly`, the bases' Cayley polytope: the sum's rows
    meet every pairwise sum of the bases once, in exact arithmetic, with
    ranks and repeated rows checked on the sum's vertices.  The face ranks
    of `poly` are kept on it, so `bidims`, `base_sum` and the
    representative facets rank each face once.  The dual graphs of q48
    and of the sum are kept on their hulls."""

    def __init__(self, poly: VPolytope):
        self.poly = poly

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
        """Facet label -> facet index."""
        return {lbl: i for i, lbl in enumerate(self.labels)}

    @cached_property
    def pr(self):
        certify_vertices(self.poly)
        return make_prismatoid(self.poly, (self.by_label["A"], self.by_label["L"]))

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
    def base_sum(self):
        """The Minkowski sum of the bases, read off the prismatoid's
        verified hull: q48 is their Cayley polytope, at heights 1 and -1."""
        return minkowski_sum_from_cayley(self.qplus, self.qminus, self.pr.polytope)


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
    poly, by_label, rank_of = ctx.poly, ctx.by_label, ctx.poly.face_rank
    rows, masks = ctx.hull.hrep.inequalities, ctx.hull.incidence.facet_masks
    for name, (tight_labels, row) in REPRESENTATIVE_FACETS.items():
        f = by_label[name]
        rep.add(f"{name} inequality", rows[f] == row, str(row))
        tight = list(iter_bits(masks[f]))
        got = tuple(sorted(poly.labels[v] for v in tight))
        rep.add(f"{name} tight set", got == tuple(sorted(tight_labels)), " ".join(got))
        rank = rank_of(masks[f])
        rep.add(f"{name} affine rank", rank == 4, str(rank))
    for name, (tight_labels, _) in REPRESENTATIVE_FACETS.items():
        count = len(tight_labels)
        rep.add(f"{name} vertex count", masks[by_label[name]].bit_count() == count, str(count))
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
    letter_of = [lbl[0] for lbl in labels]
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
        got = tuple(sorted(labels[g] for g in ctx.hull.dual_graph.adj[f]))
        rep.add(f"neighbors of {name}", got == tuple(sorted(wanted)), " ".join(got))
    return rep


def check_width(ctx: Certificate) -> Report:
    rep = Report("width")
    pr = ctx.pr
    dist = width(pr)
    rep.add("dual distance between bases", dist == 6, str(dist))
    path = pr.hull.dual_graph.shortest_path(pr.base_plus, pr.base_minus)
    rep.add("a six-step path exists", len(path) == 7, "->".join(str(i) for i in path))
    rep.add("no five-step path exists", dist > 5, f"BFS minimum is {dist}")
    rep.add("d-step property fails", dist > pr.dim, f"width {dist} > dim {pr.dim}")
    return rep


def _off_band(labels, bidims) -> list:
    """`label:bi-dimension` of each facet in `bidims` (non-base facet ->
    bi-dimension) off its family's band in FAMILY_BIDIMENSION."""
    return [
        f"{labels[f]}:{dims}"
        for f, dims in bidims.items()
        if dims != FAMILY_BIDIMENSION[labels[f][0]]
    ]


def check_orbit_quotient(ctx: Certificate) -> Report:
    """Quotient adjacency by base-preserving orbits, its A-to-L distance, and
    the bi-dimension bands."""
    rep = Report("orbit quotient")
    q, which = orbit_adjacency_graph(ctx.hull.dual_graph, ctx.orbits_plus)
    dist = q.distance(which[ctx.by_label["A"]], which[ctx.by_label["L"]])
    rep.add("quotient distance A to L", dist == 6, str(dist))
    bad = _off_band(ctx.labels, ctx.bidims)
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


def top_base_figures(ctx: Certificate) -> tuple:
    """One top-base vertex per orbit of the base-preserving group, the
    smallest: a vertex figure of each is checked, since a symmetry carries
    the figure at v onto the figure at its image.  Each generator is a
    signed coordinate permutation fixing x5 that permutes q48's vertices,
    so it permutes those at x5 = 1, which are the top base's vertices at
    the same indices, and maps each facet normal there by itself; its
    permutation on them is read from `Certificate.groups`.  Every vertex
    stands alone when the vertices do not line up so."""
    n = ctx.qplus.n_vertices
    top = [perm[:n] for perm in ctx.groups[1].generator_perms]
    lifted = tuple(p + (Rat(1),) for p in ctx.qplus.vertices)
    if ctx.poly.vertices[:n] != lifted or any(max(perm) >= n for perm in top):
        return tuple(range(n))
    return tuple(orbit[0] for orbit in facet_orbits(top))


def check_base_structure(ctx: Certificate) -> Report:
    """Facet structure of the two bases: 32 facets each of the stated shape,
    cube vertex figures, torus membership, and the worked cone containment.

    Each base's hull is built from its own 24 points, apart from q48's,
    and compared with the hand-written tables `gplus_vertices()` and
    `gminus_vertices()`."""
    rep = Report("base structure")
    qm, hull_p, hull_m = ctx.qminus, facet_enumeration(ctx.qplus), facet_enumeration(ctx.qminus)
    rep.add("top base has 32 facets", hull_p.incidence.n_facets == 32, str(hull_p.incidence.n_facets))
    want_p = {(q + (Rat(90),)) for q in gplus_vertices()}
    got_p = set(hull_p.hrep.inequalities)
    rep.add("top base facets match the two families", got_p == want_p, "")
    rep.add(
        "every top-base vertex on exactly 8 facets",
        all(m.bit_count() == 8 for m in hull_p.incidence.vertex_masks),
        "",
    )
    cube_ok = all(is_combinatorial_cube(normal_cone(hull_p, v)) for v in top_base_figures(ctx))
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
    and the interiority statements.

    The prismatoid is the Cayley polytope of its bases at heights 1 and
    -1, so `Certificate.base_sum` reads the sum off the prismatoid's own
    verified hull (`normalfans.minkowski_sum_from_cayley`), and the two
    hulls compared here are one hull: a fault of the hull builder would
    reach both.  The sum's rows still meet all 576 pairwise sums, once, in
    one exact packed test, and pass the rank certificates and the
    repeated-row test on the 208 vertices.  The independent
    cross-checks are in the tests: the double-description build of all
    576 pairwise sums in `test_q48_polar_and_base_sum_steps_match_the_full_scan`,
    and the pinned differential `test_base_sum_matches_the_reference`."""
    rep = Report("base Minkowski sum")
    pr, ms = ctx.pr, ctx.base_sum
    n_facets = ms.hull.incidence.n_facets
    rep.add("sum facet count", n_facets == 320, str(n_facets))

    # dual-graph identity under matching of normals restricted to x1..x4
    sum_index = {primitive(normal): f for f, normal in enumerate(facet_normals(ms.hull))}
    inc = pr.hull.incidence
    bases = {pr.base_plus, pr.base_minus}
    mapping = {}
    ok = len(sum_index) == n_facets
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
            for a, b in pr.hull.dual_graph.edges
            if a not in bases and b not in bases
        }
        edges_s = set(ms.hull.dual_graph.edges)
        rep.add(
            "dual graph of the sum equals the prismatoid's minus its bases",
            edges_q == edges_s,
            f"{len(edges_s)} edges",
        )
        has_prop, min_facets = pair_dstep_property(ctx.qplus, ctx.qminus, pr.dim, ms=ms)
        rep.add("pair d-step property fails", not has_prop, "")
        rep.add("minimum facet sequence length", min_facets == 5, str(min_facets))
        sum_bidims = {f: ms.bidims[g] for f, g in mapping.items()}
        rep.add("sum bi-dimensions match the family bands", not _off_band(ctx.labels, sum_bidims), "")
    rep.merge(transversality_check(pr, ctx.bidims))
    orbit = (4, 5, 6, 7)  # vertices 5..8 of either base
    rep.merge(normal_map_interiority_check(ctx.qplus, ctx.qminus, orbit, orbit))
    return rep


def _run_sections(ctx: Certificate, sections) -> Report:
    """Run the sections in order. A section that raises becomes one FAIL line
    and the rest still run, except that a failed census ends the run: every
    later section assumes the 322 labelled facets."""
    rep = Report("width-6 prismatoid")
    for section in sections:
        try:
            rep.merge(section(ctx))
        except Exception as exc:  # a broken section must not end the report
            rep.add(f"{section.__name__} raised", False, f"{type(exc).__name__}: {exc}")
        if section is check_facet_census and not rep.passed:
            break
    return rep


# the sections of `verify --fast`, in order, and those of full `verify`
FAST_SECTIONS = (
    check_facet_census,
    check_representative_facets,
    check_prism_collinearities,
    check_symmetries,
    check_orbits,
    check_neighbor_lists,
    check_width,
    check_orbit_quotient,
    check_spindle_polar,
)
FULL_SECTIONS = FAST_SECTIONS + (check_base_structure, check_minkowski_section)


def verify_counterexample(full: bool) -> Report:
    """The complete verification suite: `FULL_SECTIONS` when `full`, else
    `FAST_SECTIONS`."""
    return _run_sections(Certificate(vertices48()), FULL_SECTIONS if full else FAST_SECTIONS)

