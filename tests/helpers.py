"""Shared generators and property drivers for the randomized suites."""
import math
import random
from fractions import Fraction
from itertools import combinations

from exactpoly.constructions import (
    MAX_HALVINGS,
    ConstructionFailed,
    _fixed_builder,
    _moved,
    _push,
    one_point_suspension,
)
from exactpoly.counterexample import (
    Certificate,
    _run_sections,
    check_facet_census,
    check_prism_collinearities,
)
from exactpoly.geometry import DegenerateInput, OrthMap, affine_rank, vadd
from exactpoly.linalg import identity, mat_mul, nullspace
from exactpoly.polytopes import (
    VPolytope,
    bits,
    certify_vertices,
    dual_graph,
    extreme_indices,
    face_maximizing,
    facet_enumeration,
    iter_bits,
)
from exactpoly.prismatoids import make_prismatoid
from exactpoly.rationals import Rat, primitive_ints


def centroid(points):
    """The vertex centroid as `Fraction` sums, the reference for the integer
    shift inside `polytopes.polar`."""
    n = Rat(len(points))
    return tuple(sum((p[j] for p in points), Rat(0)) / n for j in range(len(points[0])))


def random_full_dim_points(rng, dim, n_points, spread=6):
    """Distinct integer points spanning the full dimension."""
    while True:
        pts = set()
        while len(pts) < n_points:
            pts.add(tuple(Rat(rng.randint(-spread, spread)) for _ in range(dim)))
        pts = tuple(sorted(pts, key=lambda p: tuple(int(c) for c in p)))
        try:
            hull = facet_enumeration(VPolytope(pts))
        except ValueError:
            continue
        if hull.dim == dim:
            return pts, hull


def random_polytope(rng, dim, max_points):
    """A certified random polytope: the extreme points of a random set."""
    pts, hull = random_full_dim_points(rng, dim, rng.randint(dim + 1, max_points))
    keep = extreme_indices(hull)
    poly = certify_vertices(VPolytope(tuple(pts[i] for i in keep)))
    return poly, facet_enumeration(poly)


def random_prismatoid(rng, dim, max_base_points):
    """A prismatoid with full-dimensional bases at heights +1 and -1."""
    while True:
        top, _ = random_polytope(rng, dim - 1, max_base_points)
        bot, _ = random_polytope(rng, dim - 1, max_base_points)
        verts = tuple(p + (Rat(1),) for p in top.vertices) + tuple(
            p + (Rat(-1),) for p in bot.vertices
        )
        poly = VPolytope(verts)
        hull = facet_enumeration(poly)
        rows = hull.hrep.inequalities
        plus_row = (0,) * (dim - 1) + (1, 1)
        minus_row = (0,) * (dim - 1) + (-1, 1)
        try:
            pr = make_prismatoid(poly, (rows.index(plus_row), rows.index(minus_row)))
        except ValueError:
            continue
        return pr, top, bot


def facet_enumeration_bruteforce(poly: VPolytope) -> tuple:
    """Oracle enumerator: test every dim-subset spanning a hyperplane with all
    points on one side.  Exponential; intended for cross-checking small cases
    (dim <= 4, <= 12 points).  Returns the facet rows, sorted."""
    pts = poly.vertices
    if len(set(pts)) != len(pts):
        raise DegenerateInput("oracle requires distinct points")
    d = affine_rank(pts)
    if d != poly.ambient_dim:
        raise DegenerateInput("oracle requires full-dimensional input")
    found = set()
    for subset in combinations(range(len(pts)), d):
        chosen = [pts[i] for i in subset]
        if affine_rank(chosen) != d - 1:
            continue
        h = hyperplane_through(chosen)
        signs = {(slack(h, p) > 0) - (slack(h, p) < 0) for p in pts}
        if -1 in signs and 1 in signs:
            continue
        if -1 in signs:
            h = tuple(-v for v in h)
        found.add(h)
    return tuple(sorted(found))


def slack(row, point):
    """b - a . point for the row (a, b), exact."""
    return row[-1] - sum(c * x for c, x in zip(row[:-1], point))


def hyperplane_through(points) -> tuple:
    """The unique hyperplane containing `points` (affine rank = dim - 1), as
    a primitive row (a, b) whose first nonzero coefficient is positive; the
    kernel comes from the Fraction elimination below, not the engine's."""
    basis = reference_nullspace([list(p) + [-1] for p in points])
    if len(basis) != 1:
        raise DegenerateInput(f"points have a {len(basis)}-dimensional kernel, need 1")
    h = primitive_ints(basis[0])
    return tuple(h) if next(c for c in h[:-1] if c != 0) > 0 else tuple(-v for v in h)


def apply_ineq(m, row) -> tuple:
    """Image of the row (a, b), a.x <= b, under the orthogonal map m: with
    x = M^T y it is (M a).y <= b, returned as a primitive row."""
    return tuple(primitive_ints(m.apply_point(row[:-1]) + (row[-1],)))


def relabeled(edges, perm):
    """The edges (a, b) as sorted pairs (perm[a], perm[b]), sorted."""
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def incidence_matrix(incidence):
    """Facet-by-vertex tightness as rows of booleans."""
    return tuple(
        tuple(bool(incidence.facet_masks[f] >> v & 1) for v in range(incidence.n_vertices))
        for f in range(incidence.n_facets)
    )


def is_connected(graph) -> bool:
    return graph.n == 0 or all(d >= 0 for d in graph.bfs_distances(0))


def verify_quick(poly: VPolytope):
    """Cheap subset of the verification suite, used by mutation tests: census
    and prism identities."""
    return _run_sections(
        "width-6 prismatoid (quick)",
        Certificate(poly),
        [check_facet_census, check_prism_collinearities],
    )


def push_into(poly, v, region, seed, genericity=None, max_halvings=MAX_HALVINGS):
    """`push_vertex`'s setup, then the push of vertex v toward a seeded point
    of the face with vertex indices `region`, under the caller's genericity
    predicate and halving budget: the face push `strong_dstep_step` runs."""
    fixed = _fixed_builder(poly, v)
    start = certify_vertices(_moved(poly, v, poly.vertices[v], fixed))
    return _push(start, v, fixed, region, seed, genericity, max_halvings)


def reference_push(poly, v, target_region=None, seed=0, max_halvings=64):
    """The vertex push as one plain loop that hulls every candidate from
    scratch: vertex v moves toward a seeded random point of the region (all
    vertices by default) by the longest of the steps 1, 1/2, ...,
    1/2^max_halvings of the way that leaves it a vertex, with every facet of
    the result inside exactly one facet of poly.  None when no step does."""
    rng = random.Random(seed)
    region = tuple(range(poly.n_vertices)) if target_region is None else tuple(target_region)
    weights = [Fraction(rng.randrange(1, 64)) for _ in region]
    target = tuple(
        sum(w * poly.vertices[i][j] for w, i in zip(weights, region)) / sum(weights)
        for j in range(poly.ambient_dim)
    )
    base = poly.vertices[v]
    if target == base:
        return poly
    old_masks = facet_enumeration(poly).incidence.facet_masks
    for n in range(max_halvings + 1):
        cand = tuple(b + Fraction(1, 2**n) * (t - b) for b, t in zip(base, target))
        if cand in poly.vertices:
            continue
        verts = list(poly.vertices)
        verts[v] = cand
        new_poly = VPolytope(tuple(verts), poly.labels)
        try:
            hull = facet_enumeration(new_poly)
            certify_vertices(new_poly, hull)
        except ValueError:
            continue
        if all(
            sum(m & mask == mask for m in old_masks) == 1 for mask in hull.incidence.facet_masks
        ):
            return new_poly
    return None


def check_hull_against_oracle(poly):
    """The hull's rows equal the oracle's, and each facet's mask holds
    exactly the points of zero slack."""
    hull = facet_enumeration(poly)
    got = hull.hrep.inequalities
    want = facet_enumeration_bruteforce(poly)
    assert got == want, f"hull/oracle mismatch: {got} vs {want}"
    for row, mask in zip(got, hull.incidence.facet_masks):
        assert mask == bits(i for i, p in enumerate(poly.vertices) if slack(row, p) == 0), row


def reference_dual_graph_edges(poly, hull):
    """Facet pairs whose common points span a ridge, by elimination: affine
    rank dim - 2, where no points at all have rank -1 (the two endpoints of a
    segment meet in the empty face)."""
    k = hull.dim
    masks = hull.incidence.facet_masks
    edges = []
    for a, b in combinations(range(len(masks)), 2):
        common = [poly.vertices[j] for j in iter_bits(masks[a] & masks[b])]
        if (affine_rank(common) if common else -1) == k - 2:
            edges.append((a, b))
    return tuple(edges)


def reference_vertex_graph_edges(poly, hull):
    """Point pairs whose smallest common face is exactly the two of them,
    tried pair by pair: the AND of the masks of the facets through both (the
    whole polytope when no facet is, an edge only for two points)."""
    inc = hull.incidence
    n = poly.n_vertices
    vmasks = inc.vertex_masks
    edges = []
    for a, b in combinations(range(n), 2):
        fm = vmasks[a] & vmasks[b]
        if fm == 0:
            if n == 2:
                edges.append((a, b))
            continue
        face = -1
        for f in iter_bits(fm):
            face &= inc.facet_masks[f]
        if face == (1 << a | 1 << b):
            edges.append((a, b))
    return tuple(edges)


def reference_close_group(generators, poly):
    """(maps sorted by rows, their vertex permutations) of the group the
    orthogonal `generators` generate, closed by multiplying matrices: every
    product of an element and a generator is formed and compared by rows."""
    start = identity(poly.ambient_dim)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                prod = mat_mul(h.rows, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    maps = tuple(OrthMap(rows) for rows in sorted(seen))
    index = {p: i for i, p in enumerate(poly.vertices)}
    return maps, tuple(tuple(index[m.apply_point(p)] for p in poly.vertices) for m in maps)


def reference_add(rows, masks, q, i, dim):
    """(rows, masks) after the double-description step for the homogeneous
    point q in slot i, with each visible facet's ridge candidates found by a
    full scan of every facet: those meeting it in at least dim-1 points.
    This is `HullBuilder._add` before its candidates came from the visible
    region, kept as the reference for the set of (row, mask) pairs."""
    bit = 1 << i
    masks = list(masks)
    slacks = [sum(a * b for a, b in zip(h, q)) for h in rows]
    visible = []
    for f, s in enumerate(slacks):
        if s < 0:
            visible.append(f)
        elif s == 0:
            masks[f] |= bit
    new_rows, new_masks = [], []
    for a in visible:
        ha, ma, sa = rows[a], masks[a], slacks[a]
        near = [
            (f, c) for f, m in enumerate(masks) if (c := ma & m).bit_count() >= dim - 1 and f != a
        ]
        for b, common in near:
            sb = slacks[b]
            if sb <= 0 or sum(c & common == common for _, c in near) > 1:
                continue
            row = tuple(sb * x - sa * y for x, y in zip(ha, rows[b]))
            g = math.gcd(*row)
            new_rows.append(tuple(v // g for v in row))
            new_masks.append(common | bit)
    gone = set(visible)
    return (
        [h for f, h in enumerate(rows) if f not in gone] + new_rows,
        [m for f, m in enumerate(masks) if f not in gone] + new_masks,
    )


def reference_affine_basis(points):
    """Greedy indices of an affinely independent spanning subset, by a new
    Fraction elimination of the difference vectors for every candidate."""
    idx = [0]
    rows = []
    for i in range(1, len(points)):
        if len(rows) == len(points[0]):
            break
        cand = rows + [[Fraction(a) - b for a, b in zip(points[i], points[0])]]
        if len(reference_rref(cand)[0]) == len(cand):
            rows = cand
            idx.append(i)
    return idx


def reference_extreme_indices(poly, hull):
    """The points at which the equalities and the tight facet normals have
    rank equal to the ambient dimension, by the Fraction elimination below."""
    eq_rows = [e[:-1] for e in hull.hrep.equalities]
    ineqs = hull.hrep.inequalities
    d = poly.ambient_dim
    return tuple(
        i
        for i, vmask in enumerate(hull.incidence.vertex_masks)
        if len(reference_rref(eq_rows + [ineqs[f][:-1] for f in iter_bits(vmask)])[0]) == d
    )


def suspension_facet_map(poly: VPolytope, hull, v: int):
    """Expected facet vertex sets of the suspension, keyed by mask.

    Facets come in two kinds: the suspension of each facet through v, and a
    pyramid over each facet avoiding v with apex u or w.  Returns
    (S, hull_S, mapping) where mapping[new_facet_mask] = (old_facet, kind)
    with kind in {"s", "u", "w"}; raises if the enumerated facets differ.
    """
    S = one_point_suspension(poly, v)
    u_bit, w_bit = 1 << (S.n_vertices - 2), 1 << (S.n_vertices - 1)
    expected = {}
    inc = hull.incidence
    for f in range(inc.n_facets):
        m = inc.facet_masks[f]
        new = bits(j - (j > v) for j in iter_bits(m) if j != v)
        if m >> v & 1:
            expected[new | u_bit | w_bit] = (f, "s")
        else:
            expected[new | u_bit] = (f, "u")
            expected[new | w_bit] = (f, "w")
    hull_S = facet_enumeration(S)
    got = set(hull_S.incidence.facet_masks)
    if got != set(expected):
        raise ConstructionFailed("suspension facets do not match the expected pattern")
    return S, hull_S, expected


def _suspension_lifts(poly, hull, v):
    """(S, hull_S, lifts): lifts(f) is the tuple of new facet indices over
    facet f, its suspension if f contains v, else its pyramids over u and w."""
    S, hull_S, expected = suspension_facet_map(poly, hull, v)
    mask_to_new = {m: i for i, m in enumerate(hull_S.incidence.facet_masks)}
    by_kind = {key: mask_to_new[mask] for mask, key in expected.items()}

    def lifts(f):
        if (f, "s") in by_kind:
            return (by_kind[(f, "s")],)
        return (by_kind[(f, "u")], by_kind[(f, "w")])

    return S, hull_S, lifts


def check_suspension_distances(poly, hull, v):
    """Lifted dual distances dominate the originals, for every facet pair and
    both pyramid lifts."""
    S, hull_S, lifts = _suspension_lifts(poly, hull, v)
    g_old = dual_graph(poly, hull)
    g_new = dual_graph(S, hull_S)
    dist_new = [g_new.bfs_distances(i) for i in range(g_new.n)]
    m = hull.incidence.n_facets
    for f1 in range(m):
        dist_old = g_old.bfs_distances(f1)
        for f2 in range(f1, m):
            for a in lifts(f1):
                for b in lifts(f2):
                    assert dist_new[a][b] >= dist_old[f2]


def lifted_distance_dominates(poly, v, f1, f2, choice=("u", "u")):
    """Dual distance between the lifts of f1 and f2 in the suspension at v is
    at least their distance in poly; choice picks the pyramid apex of each
    facet that does not contain v."""
    hull = facet_enumeration(poly)
    S, hull_S, lifts = _suspension_lifts(poly, hull, v)

    def lift(f, apex):
        options = lifts(f)
        return options[0] if len(options) == 1 else options["uw".index(apex)]

    d_old = dual_graph(poly, hull).distance(f1, f2)
    d_new = dual_graph(S, hull_S).distance(lift(f1, choice[0]), lift(f2, choice[1]))
    return d_new >= d_old


# ---------------------------------------------------------------------------
# reference elimination: textbook Gauss-Jordan over Fraction, kept independent
# of the engine's integer row reduction


def reference_rref(rows):
    """(pivot columns, reduced row echelon form) over Fraction, pivoting on
    the first nonzero entry in column order, scanning rows top-down."""
    work = [[Fraction(v) for v in row] for row in rows]
    n_cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return pivots, work


def reference_nullspace(rows):
    """Kernel basis: one vector per free column, 1 there, 0 at the other
    free columns."""
    pivots, work = reference_rref(rows)
    n_cols = len(rows[0]) if rows else 0
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        x = [Fraction(0)] * n_cols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -work[r][fc]
        basis.append(tuple(x))
    return basis


def reference_start(vectors, basis):
    """(rows, masks) of the starting simplex on the slots `basis` of the
    homogeneous `vectors`, one `nullspace` call per facet: the primitive
    kernel vector of the other basis points, turned to meet the dropped one
    positively, in the order of `basis`."""
    rows, masks = [], []
    for drop in basis:
        rest = [i for i in basis if i != drop]
        (h,) = nullspace([vectors[i] for i in rest])
        if sum(a * b for a, b in zip(h, vectors[drop])) < 0:
            h = tuple(-v for v in h)
        rows.append(h)
        masks.append(bits(rest))
    return rows, masks


def reference_minkowski_sum(a: VPolytope, b: VPolytope):
    """The sum of `a` and `b` from the hull of every pairwise sum, with no
    prefilter, and each facet's faces from `face_maximizing` on the rational
    summands: (vertices, hrep, facet masks, faces, provenance), laid out as
    `minkowski_sum` lays them out."""
    sums = {}
    for i, p in enumerate(a.vertices):
        for j, q in enumerate(b.vertices):
            sums.setdefault(vadd(p, q), []).append((i, j))
    points = tuple(sums)
    raw = VPolytope(points)
    hull = facet_enumeration(raw)
    keep = extreme_indices(hull)
    new = {o: n for n, o in enumerate(keep)}
    masks = tuple(
        bits(new[v] for v in iter_bits(m) if v in new) for m in hull.incidence.facet_masks
    )
    faces = tuple(
        (face_maximizing(a, row[:-1]), face_maximizing(b, row[:-1]))
        for row in hull.hrep.inequalities
    )
    provenance = tuple(tuple(sums[points[o]]) for o in keep)
    return tuple(points[o] for o in keep), hull.hrep, masks, faces, provenance
