"""Exact rational scalars at the edges of the engine.

`Rat` is `fractions.Fraction`: arbitrary precision, lowest terms, positive
denominator.  Rationals are what the file formats read and write, what
points and the excess arithmetic hold, and what a polar produces.
Inside the engine the hot arithmetic is on Python `int`: a point set is
scaled to integers once (`common_denominator`), and every facet and equality
is a primitive integer row.  Rationals become such rows with
`primitive_ints` at two edges only: the facet family table of the
counterexample and the equalities of an affine hull.
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


def clear_denominators(values):
    """Scale a rational sequence by the lcm of denominators; returns ints."""
    lcm = common_denominator(values)
    return [v.numerator * (lcm // v.denominator) for v in values]


def primitive_ints(values):
    """Clear denominators and divide by the gcd (sign preserved)."""
    ints = clear_denominators(values)
    g = math.gcd(*ints)
    if g <= 1:
        return ints
    return [v // g for v in ints]
