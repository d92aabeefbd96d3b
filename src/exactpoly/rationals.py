"""Exact rational scalars at the edges of the engine.

`Rat` is `fractions.Fraction`: arbitrary precision, lowest terms, positive
denominator.  Rationals are what the file formats read and write and what
the excess arithmetic holds.  Inside the engine the arithmetic is on
Python `int`: a point is its homogeneous integer vector, which
`geometry.homogeneous` makes once, where `fileformats.read_poly` reads a
row, and `polytopes.VPolytope.vertices` reads back as rationals for
output.  Every facet and equality is a primitive integer row, the hull
builder takes the vectors, and `linalg` eliminates over `int` rows only.
Data that is integral is written as `int`s, such as q48's vertices, facet
families and base normals.  Code that divides values which may both be
`int` writes `Rat(a, b)`, never `a / b`, which would give a float.
"""
from __future__ import annotations

import re
from fractions import Fraction as Rat

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
