"""Exact rational scalars at the edges of the engine.

`Rat` is `fractions.Fraction`: arbitrary precision, lowest terms, positive
denominator.  Rationals are what the file formats read and write, what
points and the excess arithmetic hold, and what a polar produces.
Inside the engine the arithmetic is on Python `int`, and a rational
becomes integers in one of two places only: `geometry.homogeneous` takes
one point to its homogeneous integer vector, and `geometry.integer_points`
scales a point set by one common denominator.  Every facet and equality
is a primitive integer row, the hull builder takes homogeneous vectors,
and `linalg` eliminates over `int` rows only.  Data that is integral is
written as `int`s, such as q48's facet families and base normals.
Code that divides values which may both be `int` writes `Rat(a, b)`, never
`a / b`, which would give a float.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction as Rat

ZERO = Rat(0)

_LITERAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rat(text):
    """Parse `[sign]int[/posint]` (e.g. "315/2", "-45"); reject anything else."""
    s = text.strip()
    if not _LITERAL.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Rat(int(num), d)
    return Rat(int(s))


def format_rat(q) -> str:
    """Canonical literal: `n` or `n/d` with d > 1."""
    n, d = q.numerator, q.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"


def common_denominator(values) -> int:
    """The lcm of the denominators of ints and rationals (1 for ints)."""
    return math.lcm(*(v.denominator for v in values))
