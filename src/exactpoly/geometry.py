"""Points and affine ranks, all exact.

Points are plain tuples of rationals or ints; the ambient dimension is the
tuple length.  An inequality is no object of its own: it is the primitive
integer row of `polytopes.HPolytope`, and a symmetry is its tuple of
(column, sign) pairs (`counterexample.induced_permutation`).

Here a rational point becomes integers, in one of two ways: `homogeneous`
takes one point to its homogeneous vector, at the point's own scale, and
`integer_points` scales a point set by the lcm of all its denominators.
Both are called at the engine's edge, where points come in:
`polytopes.HullBuilder` takes `homogeneous` vectors only, which
`polytopes.affine_chart` and the searches of `constructions` make.
The affine rank of points is the rank of their homogeneous vectors minus
one, taken by the integer row reduction of `linalg`; `affine_rank`,
`polytopes.VPolytope.face_rank` and the rank check of `polytopes._verify`
all rank so.
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


def homogeneous(p):
    """(-w p_1, ..., -w p_k, w) in `int`, w the lcm of the denominators of p,
    so that a row (a, b) meets it in w (b - a . p)."""
    w = common_denominator(p)
    return tuple(-v.numerator * (w // v.denominator) for v in p) + (w,)


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
    return matrix_rank([homogeneous(p) for p in points]) - 1
