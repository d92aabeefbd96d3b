"""Text formats for polytopes.  POLY is read and written, and its reader
raises `FormatError` on bad text; HPOLY and INC are written only.

POLY:   "POLY 1" / "dim <d>" / "vertices <n>" / n rows of d rationals,
        then optionally "labels" followed by n label lines.
HPOLY:  "HPOLY 1" / "dim <d>" / "inequalities <m>" / m rows of d+1 integers
        meaning a.x <= b with b last; a row "equality <d+1 integers>"
        means a.x = b.  Each row is a primitive integer row of
        `HPolytope`.
INC:    "INC 1" / "facets <m>" / "vertices <n>" / per facet, the indices of
        its tight points, ascending.

Rationals are made only here: `read_poly` turns each row into its
`geometry.homogeneous` vector once, and `write_poly` prints the
`VPolytope.vertices` view.
"""
from __future__ import annotations

from .geometry import homogeneous
from .polytopes import HPolytope, VPolytope, iter_bits
from .rationals import format_rat, parse_rat


class FormatError(ValueError):
    pass


def _reader(text):
    lines = [ln.strip() for ln in text.splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _expect(line, keyword):
    """The integer value, at least 1, of the header line '<keyword> <value>'."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(f"expected '{keyword} <value>', got {line!r}")
    try:
        value = int(parts[1])
    except ValueError as exc:
        raise FormatError(f"bad integer in {line!r}") from exc
    if value < 1:
        raise FormatError(f"{keyword} must be at least 1, got {value}")
    return value


def _rats(parts, line):
    try:
        return [parse_rat(x) for x in parts]
    except ValueError as exc:
        raise FormatError(f"{exc} in {line!r}") from exc


def write_poly(poly: VPolytope) -> str:
    out = ["POLY 1", f"dim {poly.ambient_dim}", f"vertices {poly.n_vertices}"]
    for p in poly.vertices:
        out.append(" ".join(format_rat(x) for x in p))
    if poly.labels:
        out.append("labels")
        out.extend(poly.labels)
    return "\n".join(out) + "\n"


def read_poly(text: str) -> VPolytope:
    lines = _reader(text)
    if not lines or lines[0] != "POLY 1":
        raise FormatError("missing POLY 1 header")
    if len(lines) < 3:
        raise FormatError("truncated header")
    d = _expect(lines[1], "dim")
    n = _expect(lines[2], "vertices")
    if len(lines) < 3 + n:
        raise FormatError("truncated vertex block")
    verts = []
    for ln in lines[3 : 3 + n]:
        row = ln.split()
        if len(row) != d:
            raise FormatError(f"vertex row has {len(row)} entries, expected {d}")
        verts.append(homogeneous(_rats(row, ln)))
    labels = None
    rest = lines[3 + n :]
    if rest:
        if rest[0] != "labels" or len(rest) != 1 + n:
            raise FormatError("malformed labels block")
        labels = tuple(rest[1:])
    return VPolytope(tuple(verts), labels)


def write_hpoly(h: HPolytope) -> str:
    out = ["HPOLY 1", f"dim {h.ambient_dim}", f"inequalities {len(h.inequalities)}"]
    out.extend(" ".join(map(str, q)) for q in h.inequalities)
    out.extend("equality " + " ".join(map(str, q)) for q in h.equalities)
    return "\n".join(out) + "\n"


def write_incidence(hull) -> str:
    inc = hull.incidence
    out = ["INC 1", f"facets {inc.n_facets}", f"vertices {inc.n_vertices}"]
    out.extend(" ".join(map(str, iter_bits(m))) for m in inc.facet_masks)
    return "\n".join(out) + "\n"
