"""Points and affine ranks, all exact.

Points are plain tuples of rationals or ints; the ambient dimension is the
tuple length.  An inequality is no object of its own: it is the primitive
integer row of `polytopes.HPolytope`, and a symmetry is its tuple of
(column, sign) pairs (`counterexample.induced_permutation`).  An affine rank
is the rank of the difference rows, taken by the integer row reduction of
`linalg`.
"""
from __future__ import annotations

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
