"""Convex-hull facet enumeration with exact incidence, and the derived
combinatorics: vertex certification, dual and vertex graphs, polar
duality and face ranks.  Each rule is stated once, where it is applied:

- `HullBuilder` is the one hull, over integer points (`_homogeneous`) and
  primitive `HPolytope` rows with masks of tight points.  `_start` builds
  the starting simplex (Bareiss 1968), `_add` inserts a point by one
  double-description step (Fukuda & Prodon 1996), and `copy` and `insert`
  serve the perturbation searches.
- `affine_chart` and `Chart` put input of lower dimension on coordinates
  of its affine hull; `_enumerate` builds there and `Chart.lift` lifts.
- `_verify` is the check every returned hull passes: `_check_incidence`
  meets every point with every row (`_tight_masks`), and `_check_ranks`
  proves each facet's rank (`_triangular_certificate`, a certificate in
  the sense of McConnell, Mehlhorn, Naeher & Schweitzer 2011).
  `HullBuilder.hull` checks a copy's carried rows at the inserted points
  alone; `Chart.vertex_hull` runs the two halves apart.
- `_smallest_faces` is the vertex test of `certify_vertices` and
  `extreme_indices`; `_adjacency` builds both graphs, which `Hull` keeps.
- `facet_enumeration` and `keep_hull` keep one verified hull per
  `VPolytope` object; `polar` derives the polar's hull by duality, with no
  build.
- Each derived fact is a `cached_property` of the object that owns it:
  `VPolytope.face_rank`, `FacetIncidence.vertex_masks` and
  `.smallest_faces`, and `Hull.dual_graph` and `.vertex_graph`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from math import gcd
from operator import mul, neg
from typing import Callable, NamedTuple, Optional

from .geometry import (
    DegenerateInput,
    DimensionMismatch,
    affine_rank,
    check_same_dim,
    dot,
    integer_points,
    vsub,
)
from .graphs import Graph
from .linalg import matrix_rank, nullspace, pivot_columns, primitive, reduce_rows
from .rationals import Rat, common_denominator, format_rat, primitive_ints


class DuplicatePoints(DegenerateInput):
    pass


class NotAVertex(ValueError):
    pass


@dataclass(frozen=True)
class VPolytope:
    """A polytope as an ordered list of points (tuples of rationals).

    `_hull` is the verified hull of this object's points, once
    `facet_enumeration` or `keep_hull` has recorded it; it takes no part in
    construction, comparison or hashing, and neither does `face_rank`.  The
    object is frozen and its points are tuples, so a kept hull stays the
    hull of its points."""

    vertices: tuple
    labels: Optional[tuple] = None
    _hull: Optional["Hull"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_same_dim(self.vertices)
        if self.labels is not None and len(self.labels) != len(self.vertices):
            raise ValueError("labels/vertices length mismatch")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def face_rank(self) -> Callable:
        """The function: mask of points -> the affine rank of those points.
        It ranks each mask once, so every caller that ranks the faces of
        one polytope object shares the ranks.  Ranks do not change under
        positive scaling, so it ranks integer copies of the points."""
        points = integer_points(self.vertices)[0]

        @cache
        def rank(mask):
            return affine_rank([points[i] for i in iter_bits(mask)])

        return rank


@dataclass(frozen=True)
class HPolytope:
    """Irredundant facet inequalities plus the affine hull's equalities.

    Every row is the tuple (a_1, ..., a_d, b) of coprime ints, meaning
    a . x <= b (a . x = b for an equality), as in an HPOLY file.  A facet is
    its row: rows are hashed, compared and sorted as they are.  An equality
    row's first nonzero coefficient is positive."""

    ambient_dim: int
    inequalities: tuple
    equalities: tuple = ()


@dataclass(frozen=True, eq=False)
class FacetIncidence:
    """Facet-by-vertex tightness, stored as one bitmask per facet.  The
    transpose and each point's smallest face are computed on first use and
    kept.  Two incidences are equal only if they are one object."""

    facet_masks: tuple
    n_vertices: int

    @property
    def n_facets(self) -> int:
        return len(self.facet_masks)

    @cached_property
    def vertex_masks(self):
        """One bitmask per vertex over facet indices (the transpose).  The
        facet masks, last facet first, are written as n-digit binary numbers
        into one string, so the digits of point j stand n apart in it, from
        facet m-1 down to facet 0: one slice and one `int` per point."""
        n = self.n_vertices
        if not self.facet_masks:
            return (0,) * n
        digits = "".join(format(fm, "b").zfill(n) for fm in reversed(self.facet_masks))
        return tuple(int(digits[n - 1 - j::n], 2) for j in range(n))

    @cached_property
    def smallest_faces(self):
        """Per point, the mask of the smallest face containing it (see
        `_smallest_faces`)."""
        return tuple(_smallest_faces(self))

    def vertices_of(self, f: int):
        return tuple(iter_bits(self.facet_masks[f]))

    def facets_of(self, v: int):
        return tuple(iter_bits(self.vertex_masks[v]))


@dataclass(frozen=True)
class Hull:
    """A verified hull: its rows `hrep`, their `incidence` and `dim`, the
    dimension of the chart they were built on.  Its dual and vertex graphs
    are built by `_adjacency` on first use and kept, as the incidence keeps
    its transpose."""

    hrep: HPolytope
    incidence: FacetIncidence
    dim: int

    @cached_property
    def dual_graph(self) -> Graph:
        """Facets sharing a ridge."""
        return _adjacency(self.incidence.facet_masks, self.incidence.vertex_masks, self.dim, True)

    @cached_property
    def vertex_graph(self) -> Graph:
        """Points joined by 1-faces: the smallest face containing both is
        exactly those two."""
        return _adjacency(self.incidence.vertex_masks, self.incidence.facet_masks, self.dim, False)


def bits(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_duplicates(points):
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide")
        seen[p] = i


def _homogeneous(p):
    """(-w p_1, ..., -w p_k, w) in `int`, w the lcm of the denominators of p,
    so that a row (a, b) meets it in w (b - a . p)."""
    w = common_denominator(p)
    return tuple(-v.numerator * (w // v.denominator) for v in p) + (w,)


# the high byte of a digit of `_tight_masks`'s zero test, 0x80 or 0x00, as
# the binary digit "1" or "0"
_TOP_BIT_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def _tight_masks(points, rows):
    """Per row h: the mask of the points q with h . q == 0, or None when some
    point has h . q < 0.  Exact, with a few big-integer operations per row:
    column j of the points is packed into one integer with point i in the
    w-bit digit i, so sum_j h_j column_j holds every h . q at once.  w bounds
    every |h . q| below 2^(w-1), so after adding 2^(w-1) to each digit no
    digit borrows or carries: its top bit is set iff h . q >= 0, and its low
    bits are zero iff h . q == 0.

    w is rounded up to whole bytes, so the top bit of a digit is the top
    bit of its high byte and every other bit of that byte is clear in the
    zero test.  Its big-endian bytes, sliced to one high byte per digit,
    spell the mask from point n-1 down to point 0, and `translate` makes
    them the binary digits `int` reads: a few calls per row, where reading
    the bits one by one took a step per tight point."""
    n = len(points)
    w = (
        max(max(map(abs, q)) for q in points).bit_length()
        + max(sum(map(abs, h)) for h in rows).bit_length()
        + 1
    )
    size = -(-w // 8)
    w = 8 * size
    ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)  # a 1 in every digit
    top = ones << (w - 1)
    low = top - ones
    half = 1 << (w - 1)
    # each coordinate plus 2^(w-1) is a digit in [0, 2^w): one join of
    # fixed-width bytes and one `from_bytes` per column, less 2^(w-1) a digit
    columns = [
        int.from_bytes(b"".join((q[j] + half).to_bytes(size, "little") for q in points), "little")
        - top
        for j in range(len(points[0]))
    ]
    for h in rows:
        d = sum(map(mul, h, columns)) + top
        if d & top != top:
            yield None
            continue
        # adding 2^(w-1) - 1 to the low bits of a digit carries into its
        # top bit iff they are not all zero
        zeros = top & ~((d & low) + low)
        yield int(zeros.to_bytes(n * size, "big")[::size].translate(_TOP_BIT_DIGITS), 2)


def _triangular_certificate(fmask, vmasks, everyone, dim) -> bool:
    """Whether points t_1..t_dim of `fmask` and witness rows g_1..g_dim are
    found with g_i tight at t_1..t_(i-1) but not at t_i; vmasks[j] is the
    mask of the witnesses tight at point j, `everyone` that of all of them.
    When the witnesses' incidence is exact, (g_i . t_j) is then triangular
    with a nonzero diagonal, so the points have rank at least dim.  `keep`
    holds the witnesses tight at the points chosen so far.  The first pass
    takes the points in index order, which always succeeds on a simplicial
    facet of a complete hull; a larger facet gets a second pass that takes
    the point keeping the most witnesses, climbing a flag of faces."""
    keep, need = everyone, dim
    for j in iter_bits(fmask):
        kept = keep & vmasks[j]
        if kept != keep:
            keep, need = kept, need - 1
            if not need:
                return True
    if fmask.bit_count() <= dim:
        return False
    points = list(iter_bits(fmask))
    keep = everyone
    for _ in range(dim):
        keep = max(
            (kept for j in points if (kept := keep & vmasks[j]) != keep),
            key=int.bit_count,
            default=None,
        )
        if keep is None:
            return False
    return True


def _verify(dim, pts, pairs, unchecked, empty) -> FacetIncidence:
    """The incidence of the (row, mask) `pairs`, after checking that each
    pair of `unchecked` is exact against the homogeneous points `pts`
    (`_check_incidence`), that the rows are distinct and that the tight
    points of each pair of `unchecked` have rank `dim` (`_check_ranks`);
    raises DegenerateInput naming the first check that fails.  The slots in
    `empty` hold the zero vector, which every row holds tightly, and the
    masks lack them.  The caller has verified the incidence of the
    other pairs.  `HullBuilder.hull` checks its hulls here, and `polar` the
    one it derives; a Minkowski sum runs the two halves apart."""
    _check_incidence(pts, unchecked, empty)
    return _check_ranks(dim, pts, pairs, unchecked)


def _check_incidence(pts, pairs, empty):
    """Raise DegenerateInput unless each (row, mask) pair is exact against
    the homogeneous points `pts`: every point inside the row, and exactly
    the points of the mask tight, the `empty` slots aside (see `_verify`).
    One `_tight_masks` pass meets every point with every row."""
    # zip stops at the end of `pairs` before it asks `_tight_masks`, which
    # needs a row, for more
    for (_, fmask), tight in zip(pairs, _tight_masks(pts, [h for h, _ in pairs])):
        if tight is None:
            raise DegenerateInput("hull verification failed: point outside facet")
        if tight != fmask | empty or fmask & empty:
            raise DegenerateInput("hull verification failed: incidence mismatch")


def _check_ranks(dim, pts, pairs, unchecked) -> FacetIncidence:
    """The incidence of the (row, mask) `pairs`, after checking that their
    rows are distinct and that the tight points of each pair of `unchecked`
    have rank `dim`; the caller has checked the incidence of every pair.

    Every pair's incidence is exact, so every row is a witness of the
    triangular certificates (see `_triangular_certificate`), which bound
    the rank from below; a nonzero row bounds it by `dim` from above.  Only
    without both does `matrix_rank` decide."""
    if len({h for h, _ in pairs}) != len(pairs):
        raise DegenerateInput("hull verification failed: repeated facet")
    incidence = FacetIncidence(tuple(m for _, m in pairs), len(pts))
    everyone = (1 << len(pairs)) - 1
    for h, fmask in unchecked:
        if any(h) and _triangular_certificate(fmask, incidence.vertex_masks, everyone, dim):
            continue
        if matrix_rank([pts[j] for j in iter_bits(fmask)]) != dim:
            raise DegenerateInput("hull verification failed: facet rank")
    return incidence


class HullBuilder:
    """Incremental hull of full-dimensional points, one double-description
    step per inserted point.

    Slot i holds point i as q = (-w p, w) with w > 0 the lcm of its
    denominators, or None until `insert(i, p)` fills it; bit i of a facet
    mask means point i is tight.  A facet is its `HPolytope` row h = (a, b),
    which meets q in h . q = w (b - a . p), w times the slack of p: each point
    keeps its own denominator, and a point with new denominators inserts
    without rescaling the rest.  `copy()` is cheap, so a search can build the
    hull of its fixed points once and insert one moved point per candidate.

    `hull()` checks every row by `_verify`, except a row a copy carried from
    its base, which its own loop checks at the inserted points.  A copy
    records the builder it came from, its base.  The first `hull()` of a
    copy verifies every row of the base against the base's own points, and
    keeps them with the base's (row, mask) pairs in the base's `verified`; a
    base that fails makes the `hull()` of each of its copies raise.  A row
    of a copy whose pair, less the bits of the slots filled since, is one of
    the base's needs only the points in those slots checked, provided every
    other slot holds the very point object the base held; every other row
    gets the full check.
    """

    __slots__ = ("dim", "points", "rows", "masks", "base", "verified")

    def __init__(self, points):
        """Hull of the non-None `points`, started from the simplex on a
        greedy affine basis and then inserted in index order.  Raises
        DegenerateInput when they are not full-dimensional."""
        vectors = [None if p is None else _homogeneous(p) for p in points]
        present = [i for i, q in enumerate(vectors) if q is not None]
        if not present:
            raise DegenerateInput("a hull needs points")
        basis = [present[j] for j in reduce_rows([vectors[i] for i in present])[0]]
        if len(basis) != len(vectors[present[0]]):
            raise DegenerateInput("hull points are not full-dimensional")
        self._start(vectors, basis)

    def _start(self, vectors, basis):
        """Start from the simplex on the spanning indices `basis` of the
        `_homogeneous` `vectors` (None: an empty slot); insert the rest in order.

        With M the basis points as rows, the facet opposite basis point i
        meets it positively and the others in 0: it is column i of M^-1 up
        to a positive factor.  One fraction-free Gauss-Jordan pass over
        [M | I] (Bareiss 1968), each step dividing exactly by the previous
        pivot, ends at [D I | D M^-1] with D = +-det M the last pivot, so
        each facet is a column of the right block times the sign of D, made
        primitive.  A left column is dropped once its pivot is used."""
        self.points = vectors
        n = len(basis)
        self.dim = n - 1
        self.base = None
        self.verified = None
        block = [list(vectors[i]) + [0] * n for i in basis]
        for i, row in enumerate(block):
            row[n + i] = 1
        prev = 1
        for k in range(n):
            if not block[k][0]:
                r = next(r for r in range(k + 1, n) if block[r][0])
                block[k], block[r] = block[r], block[k]
            p, *rest = block[k]
            for i, row in enumerate(block):
                f = row[0]
                block[i] = rest if i == k else [(p * x - f * y) // prev for x, y in zip(row[1:], rest)]
            prev = p
        sign = 1 if prev > 0 else -1
        self.rows = [primitive(tuple(sign * v for v in column)) for column in zip(*block)]
        everyone = bits(basis)
        self.masks = [everyone ^ 1 << i for i in basis]
        in_basis = set(basis)
        for i, q in enumerate(vectors):
            if q is not None and i not in in_basis:
                self._add(i)

    def copy(self) -> "HullBuilder":
        twin = HullBuilder.__new__(HullBuilder)
        twin.dim = self.dim
        twin.points = list(self.points)
        twin.rows = list(self.rows)
        twin.masks = list(self.masks)
        twin.base = self
        twin.verified = None
        return twin

    def insert(self, i: int, point) -> bool:
        """Fill the empty slot i with `point` and update the facets; whether
        the point saw a facet.  One that sees none lies in the hull of the
        points before it, and only the incidence of the facets through it
        changes."""
        if len(point) != self.dim:
            raise DimensionMismatch(f"point of dimension {len(point)}, hull of {self.dim}")
        if self.points[i] is not None:
            raise ValueError(f"hull slot {i} is already filled")
        self.points[i] = _homogeneous(point)
        return self._add(i)

    def _add(self, i) -> bool:
        """The double-description step for the point in slot i; whether it
        saw a facet.

        A facet with negative slack is visible and goes; one with zero slack
        extends to the point.  A visible facet fa and a facet fk with positive
        slack share a ridge iff no third facet holds all their common points
        (Fukuda & Prodon 1996, "Double description method revisited"); the
        new facet through that ridge and the point is s_k fa - s_a fk, a
        positive combination, so it is oriented, and its tight points are the
        common ones plus the point.  A facet with exactly k tight points is
        a simplex: any k-1 of them span one of its ridges, which lies in it
        and one other facet only.  So when fa is a simplex, every fk meeting
        it in k-1 points is its partner, and when fk is one, it is fa's; in
        either case no third facet is tested.

        The candidates are output-sensitive: the partner fk and every third
        facet that could hold the common points meet fa in at least k-1
        points, so in as many of the visible region U, the union of the
        visible facets' points.  One pass keeps the facets meeting U so
        (every facet for k = 1: the ends of a segment share no point), and
        each visible facet scans only the kept ones meeting it so.  A
        visible facet leaves by trading places with the last; `hull()`
        sorts."""
        q = self.points[i]
        bit = 1 << i
        rows, masks = self.rows, self.masks
        slacks = [sum(map(mul, h, q)) for h in rows]
        visible = [f for f, s in enumerate(slacks) if s < 0]
        for f in [f for f, s in enumerate(slacks) if s == 0]:
            masks[f] |= bit
        if not visible:
            return False
        k1 = self.dim - 1
        region = 0
        for a in visible:
            region |= masks[a]
        kept = [(f, m) for f, m in enumerate(masks) if (region & m).bit_count() >= k1]
        beyond = [(f, m) for f, m in kept if slacks[f] > 0]
        new_rows, new_masks = [], []
        for a in visible:
            ha, ma, sa = rows[a], masks[a], slacks[a]
            if ma.bit_count() == self.dim:
                # a simplex: every facet beyond the point meeting it in k-1
                # points is a partner
                partners = [(b, c) for b, m in beyond if (c := ma & m).bit_count() >= k1]
            else:
                near = [(f, c) for f, m in kept if (c := ma & m).bit_count() >= k1 and f != a]
                # a simplex b holds a ridge in any k-1 of its points; else b
                # itself is in `near`, and a third holder of `common` is a veto
                partners = [
                    (b, common) for b, common in near
                    if slacks[b] > 0 and (
                        masks[b].bit_count() == self.dim
                        or sum(c & common == common for _, c in near) == 1
                    )
                ]
            for b, common in partners:
                sb = slacks[b]
                new_rows.append(primitive(tuple(sb * x - sa * y for x, y in zip(ha, rows[b]))))
                new_masks.append(common | bit)
        for a in reversed(visible):  # every higher visible facet has left
            rows[a], masks[a] = rows[-1], masks[-1]
            del rows[-1], masks[-1]
        rows += new_rows
        masks += new_masks
        return True

    def _verified_pairs(self):
        """(points, the set of (row, mask) pairs), after `_verify` has
        passed every pair against the points, an empty slot packed as the
        zero vector.  Computed on the first call and kept: the facts stay
        true when this builder changes later, since they name the points
        they hold for.  A builder that fails raises on every call."""
        if self.verified is None:
            pts = tuple(self.points)
            zero = (0,) * (self.dim + 1)
            empty = bits(i for i, q in enumerate(pts) if q is None)
            pairs = list(zip(self.rows, self.masks))
            _verify(self.dim, [zero if q is None else q for q in pts], pairs, pairs, empty)
            self.verified = (pts, set(pairs))
        return self.verified

    def hull(self) -> Hull:
        """The hull, after `_verify`: no repeated facet, every point inside
        every facet with exactly the recorded incidence, and the tight
        points of every facet spanning a hyperplane.  The builder's rows are
        the hull's rows, sorted with their masks.

        In a copy, a row that passed on the base with the same mask outside
        the slots filled since needs only those slots' points checked: the
        slack at each is >= 0, and 0 iff its bit is set.  Tight points added
        to a set of rank `dim` on the row's hyperplane keep that rank.  The
        returned incidence's `vertex_masks`, which the rank certificates
        read, are reused by the vertex test."""
        pts = self.points
        if None in pts:
            raise ValueError(f"hull slot {pts.index(None)} is empty")
        _check_duplicates(pts)
        pairs = sorted(zip(self.rows, self.masks))
        unchecked = pairs
        if self.base is not None:
            fixed, passed = self.base._verified_pairs()
            if all(p is None or p is q for p, q in zip(fixed, pts)):
                added = [(i, pts[i]) for i, p in enumerate(fixed) if p is None]
                new = bits(i for i, _ in added)
                unchecked = []
                for h, fmask in pairs:
                    if (h, fmask & ~new) not in passed:
                        unchecked.append((h, fmask))
                        continue
                    # a carried row is checked here at the inserted points,
                    # usually one, not by `_check_incidence`: its packed test
                    # costs more per row than this loop on so few points, and
                    # a search carries thousands of rows per candidate
                    for i, q in added:
                        s = sum(map(mul, h, q))
                        if s < 0:
                            raise DegenerateInput("hull verification failed: point outside facet")
                        if (s == 0) != bool(fmask >> i & 1):
                            raise DegenerateInput("hull verification failed: incidence mismatch")
        incidence = _verify(self.dim, pts, pairs, unchecked, 0)
        return Hull(HPolytope(self.dim, tuple(h for h, _ in pairs)), incidence, self.dim)


def facet_enumeration(poly: VPolytope) -> Hull:
    """Complete irredundant facet list with exact incidence.

    Facets are `HPolytope` rows in lexicographic order; for
    non-full-dimensional input the affine hull's equality constraints are
    reported in `hrep.equalities` and facets cut within it.
    The hull is built once per object: it is kept on `poly`, and a later
    call on the same object returns it.  A new `VPolytope` with the same
    points, equal to `poly` as a value, is enumerated again, and an input
    that raises keeps nothing.
    """
    if poly._hull is None:
        keep_hull(poly, _enumerate(poly.vertices))
    return poly._hull


def keep_hull(poly: VPolytope, hull: Hull) -> Hull:
    """Record `hull` on `poly` as its `facet_enumeration` and return it.
    `hull` must be the hull of poly's points in their order that passed
    `_verify`, as a `HullBuilder` over exactly those points returns it (a
    search's candidate), as `polar` derives it by duality or as
    `Chart.vertex_hull` checks a Minkowski sum's.  Later code
    reads it back with `facet_enumeration(poly)`, never from a second
    variable."""
    object.__setattr__(poly, "_hull", hull)
    return hull


class Chart(NamedTuple):
    """Coordinates on the affine hull of points in R^d of affine dimension
    k: `cols`, the k pivot columns of its directions (all d when k = d), a
    projection that is one-to-one on it, and `equalities`, its sorted
    equality rows.  Both depend on the affine hull alone, not on the points
    that span it."""

    ambient_dim: int
    cols: tuple
    equalities: tuple

    def project(self, p) -> tuple:
        return tuple(p[c] for c in self.cols)

    def vertex_hull(self, vectors, pairs):
        """(keep, hull) for `vectors`, points that may be no vertices, and
        (row, mask) `pairs` with masks over all of them: `keep`, the indices
        of the vertices, by the face test of `_smallest_faces` on the
        masks, and `hull`, theirs, whose facets are the rows with the masks
        restricted to them.  One `_check_incidence` then meets every point
        with every row, so the test read exact incidence, and the rank half
        of `_verify` runs on the vertices alone."""
        faces = FacetIncidence(tuple(m for _, m in pairs), len(vectors)).smallest_faces
        keep = [i for i, face in enumerate(faces) if face == 1 << i]
        _check_incidence(vectors, pairs, 0)
        new = {old: i for i, old in enumerate(keep)}
        pairs = sorted((h, bits(new[v] for v in iter_bits(m) if v in new)) for h, m in pairs)
        k = len(self.cols)
        incidence = _check_ranks(k, [vectors[i] for i in keep], pairs, pairs)
        return keep, self.lift(Hull(HPolytope(k, tuple(h for h, _ in pairs)), incidence, k))

    def lift(self, hull: Hull) -> Hull:
        """A hull on the chart's coordinates as a hull in R^d: each facet
        with zeros in the other columns, the unique facet inequality
        supported on `cols`, and the equalities.  Inserting zeros at fixed
        positions keeps the sort order."""
        if not self.equalities:
            return hull
        facets = []
        for row in hull.hrep.inequalities:
            lifted = [0] * self.ambient_dim + [row[-1]]
            for c, a in zip(self.cols, row[:-1]):
                lifted[c] = a
            facets.append(tuple(lifted))
        return replace(hull, hrep=HPolytope(self.ambient_dim, tuple(facets), self.equalities))


def affine_chart(pts):
    """(basis, vectors, chart): the indices of the greedy affine basis of
    the points, their `_homogeneous` vectors on the `Chart` of their affine
    hull, and that chart.  Raises DuplicatePoints on a repeated point and
    DegenerateInput when the affine rank is below 1."""
    vectors = [_homogeneous(p) for p in pts]
    _check_duplicates(vectors)
    basis = reduce_rows(vectors)[0]
    k = len(basis) - 1
    if k < 1:
        raise DegenerateInput("affine rank < 1: a single point has no facets")
    d = len(pts[0])
    if k == d:
        return basis, vectors, Chart(d, tuple(range(d)), ())
    base = pts[basis[0]]
    dirs = [vsub(pts[i], base) for i in basis[1:]]
    equalities = []
    for vec in nullspace(dirs):
        row = primitive_ints(tuple(vec) + (dot(vec, base),))
        # vec is not zero, so the first nonzero entry is a coefficient
        sign = 1 if next(a for a in row if a) > 0 else -1
        equalities.append(tuple(sign * a for a in row))
    chart = Chart(d, tuple(pivot_columns(dirs)), tuple(sorted(equalities)))
    return basis, [_homogeneous(chart.project(p)) for p in pts], chart


def _enumerate(pts) -> Hull:
    """`HullBuilder` run over the points in input order, on the coordinates
    of their `affine_chart`, and lifted from there."""
    basis, vectors, chart = affine_chart(pts)
    builder = HullBuilder.__new__(HullBuilder)
    builder._start(vectors, basis)
    return chart.lift(builder.hull())


def _smallest_faces(inc: FacetIncidence):
    """Per input point: the AND of the masks of the facets through it (all
    points when no facet is), the smallest face containing it.  A point is a
    vertex iff this is its own bit.  A point that is not a vertex never
    passes, even with facets missing from the list: it lies in the relative
    interior of a face with at least two vertices, and every valid facet
    tight at it contains that whole face.  The AND always holds the point,
    so it stops once it is the point's bit alone, which further facets keep.
    `FacetIncidence.smallest_faces` keeps the result, so the vertex test and
    `extreme_indices` compute it once per hull."""
    fmasks = inc.facet_masks
    everything = (1 << inc.n_vertices) - 1
    for j, vmask in enumerate(inc.vertex_masks):
        own = 1 << j
        face = everything
        for f in iter_bits(vmask):
            face &= fmasks[f]
            if face == own:
                break
        yield face


def certify_vertices(poly: VPolytope, hull: Optional[Hull] = None) -> VPolytope:
    """Confirm every listed point is an extreme point; raises NotAVertex.
    Without `hull`, the one `facet_enumeration` keeps on `poly` is read.
    The package's own callers pass no hull; `perfbench` still passes the
    one it holds, which is that same kept hull."""
    if hull is None:
        hull = facet_enumeration(poly)
    for i, face in enumerate(hull.incidence.smallest_faces):
        if face != 1 << i:
            raise NotAVertex(
                f"point {poly.labels[i] if poly.labels else i} = ({', '.join(map(format_rat, poly.vertices[i]))}) "
                f"is not a vertex "
                f"({face.bit_count()} input points lie on the smallest face containing it)"
            )
    return poly


def extreme_indices(hull: Hull):
    """Indices of the points that are vertices of the hull."""
    return tuple(i for i, face in enumerate(hull.incidence.smallest_faces) if face == 1 << i)


# `_adjacency` counts misses only in graphs with more members than this
_PAIR_LOOP_MEMBERS = 64


def _adjacency(masks, tmasks, k, simplices: bool) -> Graph:
    """Members a < b of one side of an incidence, joined iff the members
    holding all their common elements are exactly a and b (the combinatorial
    test of the double description method); masks[a] is member a's mask over
    the elements, tmasks[j] element j's mask over the members.  Facets over
    points give the dual graph, points over facets the vertex graph.  With k
    the dimension, a ridge holds at least k-1 points and an edge lies in at
    least k-1 facets, so a is tested only against the b sharing at least k-1
    elements with it, by ANDing the masks of their common elements.

    With `simplices` (the facet side), a member with exactly k elements is
    a simplex facet: any k-1 of its points span one of its ridges, which
    lies in it and one other facet only, so it is joined to every b sharing
    k-1 of them with no such test.  On the vertex side a point on k facets
    proves nothing like it: the two ends of an edge with a point inside it
    share k-1 facets and are not joined.

    One pass over every b > a finds those with an AND and a bit count per
    pair.  In a graph of more than `_PAIR_LOOP_MEMBERS` members, a member
    for which it costs less counts instead the misses of its elements over
    `tmasks`, a few big-integer operations per element: such a b lacks at
    most |a| - (k-1) of them, so the work follows the degrees, not the m^2
    pairs.  The union of the members through a's elements would not do: in
    a prismatoid a base vertex lies on most facets."""
    m = len(masks)
    everyone = (1 << m) - 1
    k1 = k - 1
    edges = []
    for a, ma in enumerate(masks):
        size = ma.bit_count()
        spare = size - k1
        simplex = simplices and size == k
        if m > _PAIR_LOOP_MEMBERS and size * spare < m:
            if spare < 0:
                continue
            # miss[i]: the members that lack exactly i of a's elements seen
            # so far; a member that lacks more than `spare` of them drops out
            miss = [everyone] + [0] * spare
            for j in iter_bits(ma):
                has = tmasks[j]
                for i in range(spare, 0, -1):
                    miss[i] = (miss[i] & has) | (miss[i - 1] & ~has)
                miss[0] &= has
            near = 0
            for x in miss:
                near |= x
            candidates = iter_bits(near >> (a + 1) << (a + 1))
        else:
            candidates = range(a + 1, m)
        pair_a = 1 << a
        for b in candidates:
            common = ma & masks[b]
            if common.bit_count() < k1:
                continue
            if simplex:
                edges.append((a, b))
                continue
            pair = pair_a | 1 << b
            # with no common elements (a segment) every member holds them all
            face = everyone
            while common:
                low = common & -common
                face &= tmasks[low.bit_length() - 1]
                if face == pair:
                    break
                common ^= low
            if face == pair:
                edges.append((a, b))
    return Graph(m, edges)


def dual_graph(poly: VPolytope, hull: Hull) -> Graph:
    """Facets sharing a ridge: the graph `hull` keeps (`Hull.dual_graph`).
    This is the public `(poly, hull)` API, which the package exports and
    `perfbench` calls and traces by name; the engine reads the hull's
    graph.  Dropping `poly` (ROADMAP item 10) waits for a change to the
    benchmark harness."""
    return hull.dual_graph


def vertex_graph(poly: VPolytope, hull: Hull) -> Graph:
    """Points joined by 1-faces: the graph `hull` keeps
    (`Hull.vertex_graph`); the public `(poly, hull)` API, kept as
    `dual_graph` is."""
    return hull.vertex_graph


def _centroid(points):
    """(n, s, L, ints) with n > 0, s an integer vector and gcd(n, s) = 1,
    such that s / n is the centroid of `points`, found without rational
    sums: with L the lcm of their denominators and `ints` the points scaled
    by L (`integer_points`), the centroid is S / N for S the column sums of
    `ints` and N = (point count) L, so n = N / G and s = S / G for
    G = gcd(N, S)."""
    ints, scale = integer_points(points)
    sums = [sum(col) for col in zip(*ints)]
    total = len(points) * scale
    g = gcd(total, *sums)
    return total // g, [v // g for v in sums], scale, ints


def polar(poly: VPolytope) -> VPolytope:
    """Polar polytope after translating the vertex centroid to the origin,
    with its hull derived by duality from the hull `facet_enumeration` keeps
    on `poly`, and kept on it.

    Vertices of the polar are facet normals scaled so normal . x = 1 on the
    facet; facets of the polar correspond to vertices of the input, with the
    transposed incidence.  The shift by the centroid c = s / n (`_centroid`) takes a . x <= b to
    a . y <= b - a . c, whose primitive row (a', b') is that of
    (n a, n b - a . s); sorted, these are the rows the enumeration of the
    shifted points gives, and polar vertex j is a' / b' for the j-th.

    A vertex v of the input gives the polar facet (v - c) . y <= 1, whose
    primitive row is that of (n L v - L s, n L) for any L > 0 that makes it
    integral, and which holds polar vertex j iff the input facet sorted j-th
    holds v; a point that is not a vertex gives no facet.  These rows and
    masks, sorted, pass the full `_verify` against the polar vertices as
    the integer vectors (-a', b'), and the hull is kept on the polar with
    `keep_hull`, so no hull is built.
    """
    hull = facet_enumeration(poly)
    if hull.hrep.equalities:
        raise DegenerateInput("polar requires a full-dimensional polytope")
    n, s, scale, ints = _centroid(poly.vertices)
    shifted = [
        primitive(tuple(n * a for a in row[:-1]) + (n * row[-1] - sum(map(mul, row[:-1], s)),))
        for row in hull.hrep.inequalities
    ]
    order = sorted(range(len(shifted)), key=shifted.__getitem__)
    ineqs = [shifted[f] for f in order]
    if any(q[-1] <= 0 for q in ineqs):
        raise DegenerateInput("origin not interior after centroid shift")
    pol = VPolytope(tuple(tuple(Rat(a, q[-1]) for a in q[:-1]) for q in ineqs))
    # per input point, the mask of the polar vertices whose facet holds it
    fmasks = hull.incidence.facet_masks
    masks = FacetIncidence(tuple(fmasks[f] for f in order), poly.n_vertices).vertex_masks
    shift = [scale * c for c in s]
    pairs = sorted(
        (primitive((*[n * x - t for x, t in zip(ints[i], shift)], n * scale)), masks[i])
        for i in extreme_indices(hull)
    )
    pts = [(*map(neg, q[:-1]), q[-1]) for q in ineqs]
    _check_duplicates(pts)
    incidence = _verify(hull.dim, pts, pairs, pairs, 0)
    keep_hull(pol, Hull(HPolytope(hull.dim, tuple(h for h, _ in pairs)), incidence, hull.dim))
    return pol


def maximizers(points, direction) -> tuple:
    """Indices of the points at which `direction` attains its maximum."""
    if len(direction) != len(points[0]):
        raise DimensionMismatch(f"direction of dimension {len(direction)}, not {len(points[0])}")
    if not any(direction):
        raise DegenerateInput("zero direction")
    values = [dot(direction, p) for p in points]
    best = max(values)
    return tuple(i for i, v in enumerate(values) if v == best)
