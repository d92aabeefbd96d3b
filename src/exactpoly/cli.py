"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error or a
stdout that cannot be written (its reader closed it), 3 infeasible
operation (degenerate geometry, a listed point that is not a vertex, no
prismatoid structure, a failed construction).  `main` maps these errors to
their codes in one table, `_EXIT_CODES`, so no input ends in a traceback
for them.  All numeric output is exact rational text; identical
invocations (same inputs, same seed) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from . import counterexample, normalfans
from .constructions import (
    ConstructionFailed,
    VacuousFamily,
    blend_graph,
    family_parameters,
    hirsch_excess,
    one_point_suspension,
    product,
    push_vertex,
    strong_dstep_iterate,
)
from .fileformats import FormatError, read_poly, write_hpoly, write_incidence, write_poly
from .geometry import GeometryError
from .plotting import torus_svg
from .polytopes import (
    NotAVertex,
    VPolytope,
    certify_vertices,
    facet_enumeration,
    polar,
)
from .prismatoids import NotAPrismatoid, make_prismatoid, width
from .rationals import format_rat


class CliError(ValueError):
    """A usage error the parser cannot see, or a file that cannot be read or
    written."""


def _load(path: str) -> VPolytope:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_poly(fh.read())
    except (OSError, ValueError) as exc:  # FormatError, or a file that is not UTF-8
        raise CliError(f"cannot read {path}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise CliError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_hull(args) -> int:
    poly = _load(args.input)
    hull = facet_enumeration(poly)
    out = args.out or (args.input + ".hpoly")
    _emit(write_hpoly(hull.hrep), out)
    _emit(write_incidence(hull), out + ".inc")
    print(f"facets {hull.incidence.n_facets} dim {hull.dim}")
    return 0


def _cmd_width(args) -> int:
    poly = _load(args.input)
    certify_vertices(poly)
    print(width(make_prismatoid(poly)))
    return 0


def _cmd_diameter(args) -> int:
    poly = certify_vertices(_load(args.input))
    print(facet_enumeration(poly).vertex_graph.diameter())
    return 0


def _cmd_polar(args) -> int:
    poly = certify_vertices(_load(args.input))
    _emit(write_poly(polar(poly)), args.out)
    return 0


def _cmd_verify(args) -> int:
    rep = counterexample.verify_counterexample(full=not args.fast)
    sys.stdout.write(rep.render())
    n_fail = len(rep.failures())
    print(f"{len(rep.checks)} checks, {n_fail} failures")
    return 0 if rep.passed else 1


def _cmd_builtin(args) -> int:
    _emit(write_poly(counterexample.vertices48()), args.out)
    return 0


def _cmd_excess(args) -> int:
    rep = hirsch_excess(args.dim, args.facets, args.diameter)
    verdict = "HIRSCH" if rep.is_hirsch else "NON-HIRSCH"
    print(f"{format_rat(rep.excess)} {verdict}")
    return 0


def _cmd_family(args) -> int:
    fp = family_parameters(args.dim, args.facets, args.diameter, args.k, args.j)
    print(f"dim={fp.dim} facets={fp.facets} diameter_lb={fp.diameter_lb}")
    print(f"excess_lb={format_rat(fp.excess_lb)} limit={format_rat(fp.excess_limit)}")
    print(
        f"theorem_bound={format_rat(fp.theorem_bound)} "
        f"refined_bound={format_rat(fp.refined_bound)}"
    )
    return 0


def _cmd_plot_torus(args) -> int:
    if args.svg_size <= 0:
        raise CliError(f"--svg-size must be positive, not {args.svg_size}")
    layers = []
    data_lines = []
    for maps, base, colour, prefix in (
        ("plus", counterexample.base_plus, "#222222", "p"),
        ("minus", counterexample.base_minus, "#999999", "m"),
    ):
        if args.maps in (maps, "both"):
            hull = facet_enumeration(base())
            layers.append((normalfans.facet_normals(hull), hull.dual_graph.edges, colour))
            data_lines += normalfans.torus_plot_data(hull, prefix)
    _emit(torus_svg(layers, args.svg_size), args.out)
    if args.data:
        _emit("\n".join(data_lines) + "\n", args.data)
    return 0


def _write_polytope(poly: VPolytope, args) -> None:
    # a polytope a search returns keeps the hull the search verified, which
    # `facet_enumeration` returns without building it again
    if args.format == "hpoly":
        _emit(write_hpoly(facet_enumeration(poly).hrep), args.out)
    else:
        _emit(write_poly(poly), args.out)


def _cmd_construct(args) -> int:
    if args.operation in ("product", "blend") and args.second is None:
        raise CliError(f"construct {args.operation} needs a second input polytope")
    if args.operation == "ops":
        poly = _load(args.input)
        certify_vertices(poly)
        _write_polytope(one_point_suspension(poly, args.vertex), args)
    elif args.operation == "push":
        poly = _load(args.input)
        _write_polytope(push_vertex(poly, args.vertex, seed=args.seed), args)
    elif args.operation == "product":
        p1 = certify_vertices(_load(args.input))
        p2 = certify_vertices(_load(args.second))
        _write_polytope(product(p1, p2), args)
    elif args.operation == "blend":
        p1 = certify_vertices(_load(args.input))
        p2 = certify_vertices(_load(args.second))
        bg = blend_graph(p1, args.v1, p2, args.v2)
        print(
            f"BLEND dim={bg.dim} facets={bg.facet_count} nodes={bg.n_nodes} "
            f"diameter={bg.diameter()}"
        )
    elif args.operation == "dstep-iterate":
        poly = _load(args.input)
        certify_vertices(poly)
        pr = make_prismatoid(poly)
        final, trace = strong_dstep_iterate(pr, args.steps, seed=args.seed)
        for i, rec in enumerate(trace):
            print(rec.line(i))
        if args.out:
            _write_polytope(final.polytope, args)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown operation {args.operation}")
    return 0


# the first entry that matches decides: every kind but ConstructionFailed
# is a ValueError, so the catch-all ValueError, which takes CliError, comes
# last
_EXIT_CODES = (
    (FormatError, 2),
    ((ConstructionFailed, GeometryError, NotAVertex, NotAPrismatoid, VacuousFamily), 3),
    (ValueError, 2),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exactpoly",
        description="Exact-arithmetic polytope combinatorics and non-Hirsch constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hull", help="facet enumeration; writes HPOLY and incidence files")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_hull)

    p = sub.add_parser("width", help="dual distance between the base facets of a prismatoid")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_width)

    p = sub.add_parser("diameter", help="combinatorial diameter of the vertex graph")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_diameter)

    p = sub.add_parser("polar", help="polar polytope (centroid shifted to the origin)")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_polar)

    p = sub.add_parser("verify", help="verification suite for the built-in width-6 prismatoid")
    p.add_argument("--fast", action="store_true", help="skip the Minkowski/normal-map sections")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("builtin", help="write the built-in 48-vertex prismatoid as a POLY file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_builtin)

    p = sub.add_parser("excess", help="exact Hirsch excess l/(n-d) - 1")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--facets", type=int, required=True)
    p.add_argument("--diameter", type=int, required=True)
    p.set_defaults(fn=_cmd_excess)

    p = sub.add_parser("family", help="parameters of the glued power family from a non-Hirsch seed")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--facets", type=int, required=True)
    p.add_argument("--diameter", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--j", type=int, default=1)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("plot-torus", help="SVG of the base normal maps on the flat torus")
    p.add_argument("--maps", choices=("plus", "minus", "both"), default="both")
    p.add_argument("--svg-size", type=int, default=800)
    p.add_argument("--data", help="also write TORUS/EDGE plot-data lines here")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_plot_torus)

    p = sub.add_parser("construct", help="building operations")
    p.add_argument(
        "operation", choices=("ops", "push", "product", "blend", "dstep-iterate")
    )
    p.add_argument("input")
    p.add_argument("second", nargs="?", help="second polytope for product/blend")
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--v1", type=int, default=0)
    p.add_argument("--v2", type=int, default=0)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("poly", "hpoly"), default="poly")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_construct)

    return ap


def main(argv=None) -> int:
    # argparse drops an OSError of its own write to stdout, so the help
    # text is caught here and written by `main`, whose failed write or
    # flush takes the route below, not the interpreter's at exit
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                args = build_parser().parse_args(argv)
            code = args.fn(args)
        except SystemExit as exc:  # argparse's, after --help or a usage error
            sys.stdout.write(text.getvalue())
            code = 2 if exc.code not in (0, None) else 0
        sys.stdout.flush()
        return code
    except OSError as exc:  # stdout is closed or full; files are `_emit`'s
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # what stays buffered goes nowhere, so the exit's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, ConstructionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
