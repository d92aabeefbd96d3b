"""Points and affine ranks, all exact.

Inside the engine a point is its homogeneous vector (-w p, w): `int`s,
coprime, with w > 0 the lcm of the denominators of p, as `homogeneous`
makes it from a tuple of rationals or ints where text is read
(`fileformats.read_poly`).  `polytopes.VPolytope` holds such vectors, and
every layer reads them; `plus` forms the vector of the sum of two points,
`lift` that of a point one dimension up at a given height, and
`integer_points` scales a set of them to integer points at one common
denominator.  An inequality is no object of its
own: it is the primitive integer row of `polytopes.HPolytope`, which
meets a vector (-w p, w) in w times its slack at p, and a symmetry is its
tuple of (column, sign) pairs (`counterexample.induced_permutation`).
The affine rank of points is the rank of their homogeneous vectors minus
one, taken by the integer row reduction of `linalg`; `affine_rank`,
`polytopes.VPolytope.face_rank` and the rank check of `polytopes._verify`
all rank so.
"""
from __future__ import annotations

import math
from operator import mul

from .linalg import matrix_rank, primitive


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
    """(-w p_1, ..., -w p_k, w) in `int`, w the lcm of the denominators of
    the rationals or ints p, so that a row (a, b) meets it in w (b - a . p):
    the one vector of the point, since its entries are coprime."""
    w = math.lcm(*(v.denominator for v in p))
    return tuple(-v.numerator * (w // v.denominator) for v in p) + (w,)


def plus(q, r):
    """The `homogeneous` vector of the sum of the points of the vectors
    q = (-w p, w) and r = (-v s, v): the primitive vector of
    (v q' + w r', w v), with q' and r' the vectors without their last
    entries."""
    w, v = q[-1], r[-1]
    return primitive((*(v * a + w * b for a, b in zip(q, r[:-1])), w * v))


def lift(q, h):
    """The vector of the point (p, h) one dimension up, for the vector
    q = (-w p, w) of p: (-w p, -w h, w)."""
    return q[:-1] + (-h * q[-1], q[-1])


def integer_points(vectors):
    """(ints, scale): the points of the `homogeneous` vectors times `scale`,
    the lcm of their last entries, as int tuples.  Affine ranks, incidences
    and facet normals are unchanged."""
    scale = math.lcm(*(q[-1] for q in vectors))
    return [tuple(-a * (scale // q[-1]) for a in q[:-1]) for q in vectors], scale


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
