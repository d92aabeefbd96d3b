"""SVG figures of normal maps on the flat torus.

Angles map linearly to pixels; an edge whose shortest angular representative
leaves the square is drawn again at the eight wraparound offsets, clipped by
the viewport.  All coordinates are fixed-precision text, so identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import math

from .normalfans import torus_project

TAU = 2 * math.pi


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def torus_svg(layers, size: int) -> str:
    """Render layers of (points, edges, color) on the flat torus.

    points: list of 4-dimensional directions; edges: index pairs into it.
    """
    px = size / TAU
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white" stroke="none"/>',
    ]
    # dashed grid: the sixteen octants
    for k in range(1, 4):
        c = _fmt(size * k / 4)
        out.append(
            f'<line x1="{c}" y1="0" x2="{c}" y2="{size}" stroke="#bbbbbb" '
            f'stroke-width="1" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<line x1="0" y1="{c}" x2="{size}" y2="{c}" stroke="#bbbbbb" '
            f'stroke-width="1" stroke-dasharray="6 4"/>'
        )
    for points, edges, color in layers:
        coords = []
        for p in points:
            a1, a2 = torus_project(p)
            coords.append((a1 * px, size - a2 * px))
        for a, b in edges:
            x1, y1 = coords[a]
            x2, y2 = coords[b]
            # shortest representative on the torus
            dx = (x2 - x1 + size / 2) % size - size / 2
            dy = (y2 - y1 + size / 2) % size - size / 2
            for ox in (-size, 0, size):
                for oy in (-size, 0, size):
                    sx, sy = x1 + ox, y1 + oy
                    ex, ey = sx + dx, sy + dy
                    if max(sx, ex) < 0 or min(sx, ex) > size:
                        continue
                    if max(sy, ey) < 0 or min(sy, ey) > size:
                        continue
                    out.append(
                        f'<line x1="{_fmt(sx)}" y1="{_fmt(sy)}" x2="{_fmt(ex)}" '
                        f'y2="{_fmt(ey)}" stroke="{color}" stroke-width="1.5"/>'
                    )
        for x, y in coords:
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
