"""Convex-hull facet enumeration with exact incidence, and the derived
combinatorics: vertex certification, dual and vertex graphs, polar
duality and face ranks.  A `VPolytope` holds each point as its
`geometry.homogeneous` vector (-w p, w), primitive with w > 0, and every
layer here reads those vectors: the chart's directions and equalities,
the hull builder, the face ranks and `polar`, whose points are the
vectors it verifies.  Its `vertices`, the rational points, are computed
on read, for output and for the message of `certify_vertices`.
Each rule is stated once, where it is applied:

- `HullBuilder` is the one hull, over homogeneous integer vectors and
  primitive `HPolytope` rows with masks of tight points.  Its one
  constructor takes the starting simplex's facets from one `nullspace`,
  `_add` steps a point in by one double-description step (Fukuda & Prodon
  1996), and the builder is never changed after it: `extend` gives the
  perturbation searches each candidate's hull.  Every elimination is a
  `linalg` call.
- `affine_chart` and `Chart` put input of lower dimension on coordinates
  of its affine hull; `_enumerate` builds there and `Chart.lift` lifts.
- `_verify` is the check every returned hull passes, and the one place a
  `Hull` is made from (row, mask) pairs: it meets every point with every
  row (`_tight_masks`) and proves each facet's rank
  (`_triangular_certificate`, a certificate in the sense of McConnell,
  Mehlhorn, Naeher & Schweitzer 2011).  `HullBuilder.extend` checks the
  rows a candidate carried from its verified builder at the new point
  alone; `Chart.vertex_hull` verifies a Minkowski sum's rows against its
  listed vertices and refuses a listed point that is no vertex.
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

from .geometry import DegenerateInput, DimensionMismatch, check_same_dim, dot, integer_points
from .graphs import Graph
from .linalg import matrix_rank, nullspace, pivot_columns, primitive, reduce_rows
from .rationals import Rat, format_rat


class DuplicatePoints(DegenerateInput):
    pass


class NotAVertex(ValueError):
    pass


@dataclass(frozen=True)
class VPolytope:
    """A polytope as an ordered list of points, each held as its
    `geometry.homogeneous` vector (-w p, w): a tuple of coprime ints with
    w > 0, so two vectors are equal exactly when their points are.

    `_hull` is the verified hull of this object's points, once
    `facet_enumeration` or `keep_hull` has recorded it; it takes no part in
    construction, comparison or hashing, and neither does `face_rank`.  The
    object is frozen and its vectors are tuples, so a kept hull stays the
    hull of its points."""

    vectors: tuple
    labels: Optional[tuple] = None
    _hull: Optional["Hull"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_same_dim(self.vectors)
        if self.labels is not None and len(self.labels) != len(self.vectors):
            raise ValueError("labels/vertices length mismatch")

    @property
    def vertices(self) -> tuple:
        """The points as tuples of rationals, computed on each read and not
        kept: the view that text output and messages print."""
        return tuple(tuple(Rat(-a, q[-1]) for a in q[:-1]) for q in self.vectors)

    @property
    def ambient_dim(self) -> int:
        return len(self.vectors[0]) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.vectors)

    @cached_property
    def face_rank(self) -> Callable:
        """The function: mask of points -> the affine rank of those points
        (-1 for none), the rank of their vectors less one.  It ranks each
        mask once, so every caller that ranks the faces of one polytope
        object shares the ranks."""

        @cache
        def rank(mask):
            return matrix_rank([self.vectors[i] for i in iter_bits(mask)]) - 1

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
    them the binary digits `int` reads: a few calls per row, however many
    points are tight."""
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


def _verify(dim, pts, pairs, unchecked, empty) -> Hull:
    """The hull of the (row, mask) `pairs`, in their order, after checking
    that each pair of `unchecked` is exact against the homogeneous points
    `pts` (every point inside the row, exactly the points of the mask
    tight), that the rows are distinct and that the tight points of each
    pair of `unchecked` have rank `dim`; raises DegenerateInput naming the
    first check that fails.  The slots in `empty` hold the zero vector,
    which every row holds tightly, and the masks lack them.  The caller has
    verified the incidence of the other pairs.

    One `_tight_masks` pass meets every point with every unchecked row.
    Every pair's incidence is then exact, so every row is a witness of the
    triangular certificates (see `_triangular_certificate`), which bound
    the rank from below; a nonzero row bounds it by `dim` from above.  Only
    without both does `matrix_rank` decide: the tight points' homogeneous
    vectors have rank `dim` when the points have affine rank dim - 1."""
    # zip stops at the end of `unchecked` before it asks `_tight_masks`,
    # which needs a row, for more
    for (_, fmask), tight in zip(unchecked, _tight_masks(pts, [h for h, _ in unchecked])):
        if tight is None:
            raise DegenerateInput("hull verification failed: point outside facet")
        if tight != fmask | empty or fmask & empty:
            raise DegenerateInput("hull verification failed: incidence mismatch")
    rows = tuple(h for h, _ in pairs)
    if len(set(rows)) != len(rows):
        raise DegenerateInput("hull verification failed: repeated facet")
    incidence = FacetIncidence(tuple(m for _, m in pairs), len(pts))
    everyone = (1 << len(pairs)) - 1
    for h, fmask in unchecked:
        if any(h) and _triangular_certificate(fmask, incidence.vertex_masks, everyone, dim):
            continue
        if matrix_rank([pts[j] for j in iter_bits(fmask)]) != dim:
            raise DegenerateInput("hull verification failed: facet rank")
    return Hull(HPolytope(dim, rows), incidence, dim)


def _add(dim, rows, masks, i, q) -> bool:
    """The double-description step for the `homogeneous` vector q in the
    empty slot i, on the lists `rows` and `masks` of a hull of dimension
    `dim`, which it changes in place; whether the point saw a facet.

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
    visible facet leaves by trading places with the last; the hull
    sorts."""
    bit = 1 << i
    slacks = [sum(map(mul, h, q)) for h in rows]
    visible = [f for f, s in enumerate(slacks) if s < 0]
    for f in [f for f, s in enumerate(slacks) if s == 0]:
        masks[f] |= bit
    if not visible:
        return False
    k1 = dim - 1
    region = 0
    for a in visible:
        region |= masks[a]
    kept = [(f, m) for f, m in enumerate(masks) if (region & m).bit_count() >= k1]
    beyond = [(f, m) for f, m in kept if slacks[f] > 0]
    new_rows, new_masks = [], []
    for a in visible:
        ha, ma, sa = rows[a], masks[a], slacks[a]
        if ma.bit_count() == dim:
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
                    masks[b].bit_count() == dim
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


def _verify_filled(dim, pts, pairs, unchecked) -> Hull:
    """`_verify` of the sorted (row, mask) `pairs` against the points of
    every slot, after checking that no slot is empty and no point repeats."""
    if None in pts:
        raise ValueError(f"hull slot {pts.index(None)} is empty")
    _check_duplicates(pts)
    return _verify(dim, pts, pairs, unchecked, 0)


class HullBuilder:
    """The hull of full-dimensional points, one double-description step
    (`_add`) per point, fixed once its constructor returns.

    Slot i holds point i as its `homogeneous` vector q = (-w p, w), w > 0,
    as a `VPolytope` holds it, or None when it is empty.  Bit i of a facet
    mask means point i is tight.  A facet is its `HPolytope` row h = (a, b), which
    meets q in h . q = w (b - a . p), w times the slack of p: each point
    keeps its own denominator, and a point with new denominators enters
    without rescaling the rest.  `points`, `rows` and `masks` are tuples
    that no method changes: `hull()` verifies them, and `extend(i, q)`
    gives the hull with one empty slot filled, so a search builds the hull
    of its fixed points once and extends it by one moved point per
    candidate.
    """

    __slots__ = ("dim", "points", "rows", "masks", "snapshot")

    def __init__(self, vectors):
        """Hull of the non-None `vectors`, `geometry.homogeneous` integer
        vectors (None marks an empty slot), started from the simplex on
        their greedy basis and then stepped in index order.  Raises
        DegenerateInput when they are not full-dimensional.

        With M the basis points as rows, the facet opposite basis point i
        meets it positively and the others in 0: it is M^-1 e_i up to a
        positive factor.  The kernel of [M | -I] is {(y, M y)}, and M is
        invertible, so its free columns are those of -I; `nullspace` gives
        one vector (y, z) per free column, positive there and zero at the
        others, so z is a positive multiple of e_i and y the facet."""
        present = [i for i, q in enumerate(vectors) if q is not None]
        if not present:
            raise DegenerateInput("a hull needs points")
        basis = [present[j] for j in reduce_rows([vectors[i] for i in present])[0]]
        n = len(basis)
        if n != len(vectors[present[0]]):
            raise DegenerateInput("hull points are not full-dimensional")
        self.dim = n - 1
        block = [vectors[i] + tuple(-(i == j) for j in basis) for i in basis]
        rows = [primitive(x[:n]) for x in nullspace(block)]
        everyone = bits(basis)
        masks = [everyone ^ 1 << i for i in basis]
        in_basis = set(basis)
        for i, q in enumerate(vectors):
            if q is not None and i not in in_basis:
                _add(self.dim, rows, masks, i, q)
        self.points, self.rows, self.masks = tuple(vectors), tuple(rows), tuple(masks)
        self.snapshot = None

    def hull(self) -> Hull:
        """The hull `_verify` returns: no repeated facet, every point inside
        every facet with exactly the recorded incidence, and the tight
        points of every facet spanning a hyperplane.  The builder's rows are
        the hull's rows, sorted with their masks.  The returned incidence's
        `vertex_masks`, which the rank certificates read, are reused by the
        vertex test."""
        pairs = sorted(zip(self.rows, self.masks))
        return _verify_filled(self.dim, self.points, pairs, pairs)

    def extend(self, i: int, q) -> Optional[Hull]:
        """The hull of the builder's points with the empty slot i filled by
        the `homogeneous` vector q, as `hull()` verifies it, or None when
        the point sees no facet: it then lies in the hull of the others.

        The first call verifies every row against the builder's points, an
        empty slot packed as the zero vector, which every row holds
        tightly, and keeps those tuples with the set of verified (row, mask)
        pairs; a builder that fails raises on every call.  Each call steps
        from that snapshot, so nothing assigned to the builder later
        reaches a candidate.  A row whose pair, less bit i, was verified
        needs only q checked, by a dot product: the slack there is >= 0, and
        0 iff bit i is set, and tight points added to a set of rank `dim` on
        the row's hyperplane keep that rank.  Every other row goes through
        `_verify`."""
        if len(q) != self.dim + 1:
            raise DimensionMismatch(f"point of dimension {len(q) - 1}, hull of {self.dim}")
        if self.snapshot is None:
            pts, rows, masks = self.points, self.rows, self.masks
            zero = (0,) * (self.dim + 1)
            empty = bits(j for j, p in enumerate(pts) if p is None)
            pairs = list(zip(rows, masks))
            _verify(self.dim, [zero if p is None else p for p in pts], pairs, pairs, empty)
            self.snapshot = (pts, rows, masks, set(pairs))
        pts, rows, masks, passed = self.snapshot
        if pts[i] is not None:
            raise ValueError(f"hull slot {i} is already filled")
        rows, masks = list(rows), list(masks)
        if not _add(self.dim, rows, masks, i, q):
            return None
        bit = 1 << i
        pairs = sorted(zip(rows, masks))
        unchecked = []
        for h, fmask in pairs:
            if (h, fmask & ~bit) not in passed:
                unchecked.append((h, fmask))
                continue
            # a carried row is checked here at q, not by `_tight_masks`: its
            # packed test costs more per row than one dot product, and a
            # search carries thousands of rows per candidate
            s = sum(map(mul, h, q))
            if s < 0:
                raise DegenerateInput("hull verification failed: point outside facet")
            if (s == 0) != bool(fmask & bit):
                raise DegenerateInput("hull verification failed: incidence mismatch")
        return _verify_filled(self.dim, pts[:i] + (q,) + pts[i + 1:], pairs, unchecked)


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
        keep_hull(poly, _enumerate(poly.vectors))
    return poly._hull


def keep_hull(poly: VPolytope, hull: Hull) -> Hull:
    """Record `hull` on `poly` as its `facet_enumeration` and return it.
    `hull` must be the hull of poly's points in their order that came out
    of `_verify`, as `HullBuilder.hull` or `HullBuilder.extend` over
    exactly those points returns it (a search's candidate), as `polar` derives it by duality or as
    `Chart.vertex_hull` verifies a Minkowski sum's on its vertices.  Later
    code reads it back with `facet_enumeration(poly)`, never from a second
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

    def project(self, q) -> tuple:
        """The `homogeneous` vector of the point of vector q on the chart."""
        return primitive(tuple(q[c] for c in self.cols) + q[-1:])

    def vertex_hull(self, vectors, pairs) -> Hull:
        """The hull of `vectors`, points on the chart listed as vertices, and
        of the sorted (row, mask) `pairs`, lifted.  One `_verify` checks
        every pair against every point, and the face test of
        `_smallest_faces` reads its incidence: raises DegenerateInput when a
        listed point is no vertex.  Points left unlisted are not met with
        the rows; for a Minkowski sum, the rows derived from its Cayley
        polytope bound every pairwise sum (see `normalfans`)."""
        hull = _verify(len(self.cols), vectors, pairs, pairs, 0)
        if len(extreme_indices(hull)) != len(vectors):
            raise DegenerateInput("hull verification failed: a listed point is no vertex")
        return self.lift(hull)

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


def affine_chart(vectors):
    """(vectors on the chart, chart): the `homogeneous` vectors of points
    projected to the `Chart` of their affine hull, and that chart.  Raises
    DuplicatePoints on a repeated point and DegenerateInput when the affine
    rank is below 1."""
    _check_duplicates(vectors)
    basis = reduce_rows(vectors)[0]
    k = len(basis) - 1
    if k < 1:
        raise DegenerateInput("affine rank < 1: a single point has no facets")
    d = len(vectors[0]) - 1
    if k == d:
        return vectors, Chart(d, tuple(range(d)), ())
    # with q_i = (-w_i p_i, w_i), w_i q_0 - w_0 q_i is w_0 w_i (p_i - p_0) in
    # its first d entries, and a kernel vector v of these directions gives
    # the equality v . x = v . p_0, a positive multiple of (w_0 v, -v . q_0)
    *q0, w0 = vectors[basis[0]]
    dirs = [[w * a - w0 * b for a, b in zip(q0, q)] for *q, w in map(vectors.__getitem__, basis[1:])]
    equalities = []
    for vec in nullspace(dirs):
        row = primitive((*[w0 * a for a in vec], -dot(vec, q0)))
        # vec is not zero, so the first nonzero entry is a coefficient
        sign = 1 if next(a for a in row if a) > 0 else -1
        equalities.append(tuple(sign * a for a in row))
    chart = Chart(d, tuple(pivot_columns(dirs)), tuple(sorted(equalities)))
    return [chart.project(q) for q in vectors], chart


def _enumerate(vectors) -> Hull:
    """`HullBuilder` run over the points' vectors in input order, on the
    coordinates of their `affine_chart`, and lifted from there."""
    vectors, chart = affine_chart(vectors)
    return chart.lift(HullBuilder(vectors).hull())


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
    Without `hull`, the one `facet_enumeration` keeps on `poly` is read;
    a passed `hull` must be that kept hull."""
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
    `poly` is the polytope whose hull `hull` is; it is not read."""
    return hull.dual_graph


def vertex_graph(poly: VPolytope, hull: Hull) -> Graph:
    """Points joined by 1-faces: the graph `hull` keeps
    (`Hull.vertex_graph`); `poly` is not read, as in `dual_graph`."""
    return hull.vertex_graph


def _centroid(vectors):
    """(n, s, L, ints) with n > 0, s an integer vector and gcd(n, s) = 1,
    such that s / n is the centroid of the points of `vectors`, found
    without rational sums: with L the lcm of their last entries and `ints`
    the points scaled by L (`integer_points`), the centroid is S / N for S
    the column sums of `ints` and N = (point count) L, so n = N / G and
    s = S / G for G = gcd(N, S)."""
    ints, scale = integer_points(vectors)
    sums = [sum(col) for col in zip(*ints)]
    total = len(vectors) * scale
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
    the integer vectors (-a', b'), which the polar holds as its points, and
    the hull is kept on it with `keep_hull`, so no hull is built.
    """
    hull = facet_enumeration(poly)
    if hull.hrep.equalities:
        raise DegenerateInput("polar requires a full-dimensional polytope")
    n, s, scale, ints = _centroid(poly.vectors)
    shifted = [
        primitive(tuple(n * a for a in row[:-1]) + (n * row[-1] - sum(map(mul, row[:-1], s)),))
        for row in hull.hrep.inequalities
    ]
    order = sorted(range(len(shifted)), key=shifted.__getitem__)
    ineqs = [shifted[f] for f in order]
    if any(q[-1] <= 0 for q in ineqs):
        raise DegenerateInput("origin not interior after centroid shift")
    # per input point, the mask of the polar vertices whose facet holds it
    fmasks = hull.incidence.facet_masks
    masks = FacetIncidence(tuple(fmasks[f] for f in order), poly.n_vertices).vertex_masks
    shift = [scale * c for c in s]
    pairs = sorted(
        (primitive((*[n * x - t for x, t in zip(ints[i], shift)], n * scale)), masks[i])
        for i in extreme_indices(hull)
    )
    pol = VPolytope(tuple((*map(neg, q[:-1]), q[-1]) for q in ineqs))
    _check_duplicates(pol.vectors)
    keep_hull(pol, _verify(hull.dim, pol.vectors, pairs, pairs, 0))
    return pol


def maximizers(vectors, direction) -> tuple:
    """Indices of the points, given by their `homogeneous` vectors, at which
    `direction` attains its maximum: compared on the points scaled to one
    common denominator (`integer_points`)."""
    d = len(vectors[0]) - 1
    if len(direction) != d:
        raise DimensionMismatch(f"direction of dimension {len(direction)}, not {d}")
    if not any(direction):
        raise DegenerateInput("zero direction")
    values = [dot(direction, p) for p in integer_points(vectors)[0]]
    best = max(values)
    return tuple(i for i, v in enumerate(values) if v == best)
