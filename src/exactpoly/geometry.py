"""Points, affine ranks and orthogonal maps, all exact.

Points are plain tuples of rationals or ints; the ambient dimension is the
tuple length.  An inequality is no object of its own: it is the primitive
integer row of `polytopes.HPolytope`.  An affine rank is the rank of the
difference rows, taken by the integer row reduction of `linalg`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .linalg import matrix_rank
from .rationals import common_denominator


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class DegenerateInput(GeometryError):
    pass


def dot(a, b):
    return sum(map(mul, a, b))


def vsub(a, b):
    return tuple(a[i] - b[i] for i in range(len(a)))


def vadd(a, b):
    return tuple(a[i] + b[i] for i in range(len(a)))


def smul(c, a):
    return tuple(c * x for x in a)


def integer_points(points):
    """(ints, scale): the points times `scale`, the lcm of all their
    denominators, as int tuples.  Affine ranks, incidences and facet
    normals are unchanged."""
    scale = common_denominator([v for p in points for v in p])
    return [tuple(v.numerator * (scale // v.denominator) for v in p) for p in points], scale


def check_same_dim(points):
    if not points:
        raise DegenerateInput("empty point list")
    d = len(points[0])
    for p in points:
        if len(p) != d:
            raise DimensionMismatch(f"mixed ambient dimensions {d} and {len(p)}")
    return d


def affine_rank(points) -> int:
    """Dimension of the affine hull (0 for a single point)."""
    check_same_dim(points)
    base = points[0]
    return matrix_rank([vsub(p, base) for p in points[1:]])


@dataclass(frozen=True)
class OrthMap:
    """An orthogonal map with integer entries, stored row-wise (y = M x):
    a signed coordinate permutation, the only kind of symmetry the
    certificate uses.  The constructor checks both and keeps the rows as
    tuples; every entry must be an `int`, and a `Rat` is refused even when
    integral.  `signed` holds each row's one nonzero entry as (column,
    sign), so y_i = sign * x_column."""

    rows: tuple
    signed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("orthogonal map must be square")
        if not all(isinstance(v, int) for r in rows for v in r):
            raise GeometryError("orthogonal map entries must be integers")
        # an integer matrix is orthogonal iff it is a signed permutation:
        # the rows' absolute values are the n unit vectors, each once
        units = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        if {tuple(map(abs, r)) for r in rows} != units:
            raise GeometryError("matrix is not orthogonal")
        signed = tuple(next((c, v) for c, v in enumerate(r) if v) for r in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "signed", signed)

    @property
    def ambient_dim(self) -> int:
        return len(self.rows)

    def apply_point(self, p):
        if len(p) != self.ambient_dim:
            raise DimensionMismatch("point/map dimension mismatch")
        return tuple([s * p[c] for c, s in self.signed])
