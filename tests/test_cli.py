import contextlib
import fcntl
import io
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from exactpoly import cli, counterexample, polytopes
from exactpoly.cli import main
from exactpoly.fileformats import FormatError, read_poly, write_hpoly, write_incidence, write_poly
from exactpoly.geometry import affine_rank
from exactpoly.polytopes import facet_enumeration
from exactpoly.rationals import Rat, format_rat
from helpers import fractions, read_hpoly, reference_rank, vpoly
from northstar import PINS, sha256


def pt(*coords):
    return tuple(Rat(c) for c in coords)


COORD = fractions(-4, 4, 3)


@st.composite
def hull_inputs(draw):
    """Distinct rational points of affine rank k in d-space, 1 <= k <= d <= 4:
    full-dimensional when k = d, else the image of points in k-space under a
    random injective rational affine map."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(k, 4))
    points = draw(
        st.lists(st.tuples(*[COORD] * k), min_size=k + 1, max_size=k + 6, unique=True)
        .filter(lambda ps: affine_rank(ps) == k)
    )
    if d > k:
        matrix = draw(
            st.lists(st.tuples(*[COORD] * k), min_size=d, max_size=d).filter(
                lambda rows: reference_rank(rows) == k
            )
        )
        shift = draw(st.tuples(*[COORD] * d))
        points = [
            tuple(t + sum(a * x for a, x in zip(row, p)) for row, t in zip(matrix, shift))
            for p in points
        ]
    return vpoly(tuple(points))


def cube_text():
    pts = tuple(pt(*(1 if m >> i & 1 else -1 for i in range(3))) for m in range(8))
    return write_poly(vpoly(pts))


class TestFileFormats:
    def test_poly_round_trip_exact(self):
        rng = random.Random(4)
        pts = tuple(
            tuple(Rat(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(3))
            for _ in range(6)
        )
        poly = vpoly(pts, tuple(f"v{i}" for i in range(6)))
        back = read_poly(write_poly(poly))
        assert back.vertices == poly.vertices
        assert back.labels == poly.labels

    def test_hpoly_round_trip_exact(self):
        tri = vpoly((pt(0, 0, 1), pt(2, 0, 1), pt(0, 2, 1)))
        hull = facet_enumeration(tri)
        back = read_hpoly(write_hpoly(hull.hrep))
        assert back.inequalities == hull.hrep.inequalities
        assert back.equalities == hull.hrep.equalities

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(hull_inputs())
    def test_hpoly_round_trip_of_random_hulls(self, poly):
        hrep = facet_enumeration(poly).hrep
        back = read_hpoly(write_hpoly(hrep))
        assert back.ambient_dim == hrep.ambient_dim
        assert back.inequalities == hrep.inequalities
        assert back.equalities == hrep.equalities

    @staticmethod
    def _hpoly_and_incidence_by_rationals(hull):
        """The HPOLY and INC text as written with `format_rat` on each row
        entry and `vertices_of` on each facet."""
        h, inc = hull.hrep, hull.incidence
        out = ["HPOLY 1", f"dim {h.ambient_dim}", f"inequalities {len(h.inequalities)}"]
        out.extend(" ".join(map(format_rat, q)) for q in h.inequalities)
        out.extend("equality " + " ".join(map(format_rat, q)) for q in h.equalities)
        hpoly = "\n".join(out) + "\n"
        out = ["INC 1", f"facets {inc.n_facets}", f"vertices {inc.n_vertices}"]
        out.extend(" ".join(str(v) for v in inc.vertices_of(f)) for f in range(inc.n_facets))
        return hpoly, "\n".join(out) + "\n"

    def test_hpoly_and_incidence_text_is_the_rational_form(self):
        # negative, zero and multi-digit entries, an equality, an empty
        # mask and tight points past index 9
        hrep = polytopes.HPolytope(
            3,
            ((-12, 0, 305, 7), (0, -1, 0, 0), (1000, -999, 1, -40)),
            ((0, 1, -20, 31),),
        )
        incidence = polytopes.FacetIncidence((0b1011, 0, 1 << 12 | 1 << 10 | 1), 13)
        hull = polytopes.Hull(hrep, incidence, 2)
        hpoly, inc = self._hpoly_and_incidence_by_rationals(hull)
        assert write_hpoly(hrep) == hpoly
        assert write_incidence(hull) == inc
        assert inc.splitlines()[3:] == ["0 1 3", "", "0 10 12"]

    @given(st.data())
    def test_poly_round_trip_of_random_points(self, data):
        d = data.draw(st.integers(1, 4))
        coord = fractions(-10**6, 10**6, 10**4)
        pts = tuple(data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8)))
        label = st.text(alphabet="abxyz019+-'", min_size=1, max_size=5)
        labels = data.draw(st.none() | st.tuples(*[label] * len(pts)))
        back = read_poly(write_poly(vpoly(pts, labels)))
        assert back.vertices == pts
        assert back.labels == labels

    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=5).filter(lambda r: any(r[:-1])),
        st.fractions(min_value=Rat(1, 50), max_value=50),
        st.booleans(),
    )
    @example([2, 3, -5], Rat(1, 4), False)  # "1/2 3/4 -5/4"
    @example([1, 2, 3], Rat(2), True)  # "equality 2 4 6"
    def test_rows_are_read_as_primitive_rows(self, row, scale, equality):
        # a row written with fractions or a common factor reads back as the
        # coprime integer row with the same direction
        text = ("equality " if equality else "") + " ".join(format_rat(scale * v) for v in row)
        h = read_hpoly(f"HPOLY 1\ndim {len(row) - 1}\ninequalities {int(not equality)}\n{text}\n")
        g = math.gcd(*row)
        assert (h.equalities if equality else h.inequalities) == (tuple(v // g for v in row),)

    def test_poly_header_required(self):
        with pytest.raises(FormatError):
            read_poly("dim 2\nvertices 1\n0 0\n")

    def test_poly_truncated_header(self):
        with pytest.raises(FormatError):
            read_poly("POLY 1\n")
        with pytest.raises(FormatError):
            read_poly("POLY 1\ndim 2\n")

    def test_poly_row_width_checked(self):
        with pytest.raises(FormatError):
            read_poly("POLY 1\ndim 2\nvertices 1\n0 0 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("POLY 1\ndim 2\nvertices -1\n", "vertices must be at least 1, got -1"),
            ("POLY 1\ndim -1\nvertices 1\n0\n", "dim must be at least 1, got -1"),
            ("POLY 1\ndim 0\nvertices 1\n\n", "dim must be at least 1, got 0"),
            ("HPOLY 1\ndim 2\ninequalities -1\n", "inequalities must be at least 0, got -1"),
            ("HPOLY 1\ndim 0\ninequalities 0\n", "dim must be at least 1, got 0"),
        ],
        ids=["poly-vertices", "poly-dim-negative", "poly-dim-zero", "hpoly-inequalities", "hpoly-dim"],
    )
    def test_header_counts_range_checked(self, text, message):
        reader = read_hpoly if text.startswith("HPOLY") else read_poly
        with pytest.raises(FormatError) as info:
            reader(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("POLY 1\ndim 2\nvertices 1\n.0 1\n", "not a rational literal: '.0' in '.0 1'"),
            ("POLY 1\ndim 2\nvertices 1\n1/0 1\n", "zero denominator: '1/0' in '1/0 1'"),
            ("POLY 1\ndim 2\nvertices 0\n", "vertices must be at least 1, got 0"),
            ("HPOLY 1\ndim 2\ninequalities 1\n0 0 1\n", "all-zero coefficients in '0 0 1'"),
            (
                "HPOLY 1\ndim 2\ninequalities 1\n1 0 1\nequality 0 0 0\n",
                "all-zero coefficients in 'equality 0 0 0'",
            ),
        ],
        ids=["dot-literal", "zero-denominator", "no-vertices", "zero-row", "zero-equality"],
    )
    def test_unparsable_text_raises_format_error(self, text, message):
        reader = read_hpoly if text.startswith("HPOLY") else read_poly
        with pytest.raises(FormatError) as info:
            reader(text)
        assert type(info.value) is FormatError
        assert str(info.value) == message

    def test_rational_literals_in_files(self):
        text = "POLY 1\ndim 2\nvertices 3\n315/2 -45\n0 1/3\n-1 0\n"
        poly = read_poly(text)
        assert poly.vertices[0] == (Rat(315, 2), Rat(-45))


class TestCommands:
    def test_width_of_builtin(self, tmp_path, capsys):
        path = tmp_path / "q5.poly"
        assert main(["builtin", "--out", str(path)]) == 0
        assert main(["width", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "6"

    def test_excess_output(self, capsys):
        assert main(["excess", "--dim", "43", "--facets", "86", "--diameter", "44"]) == 0
        assert capsys.readouterr().out.strip() == "1/43 NON-HIRSCH"

    def test_excess_hirsch_case(self, capsys):
        assert main(["excess", "--dim", "3", "--facets", "6", "--diameter", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0 HIRSCH"

    def test_family_output(self, capsys):
        rc = main([
            "family", "--dim", "43", "--facets", "86", "--diameter", "44",
            "--k", "1", "--j", "2",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dim=43 facets=129 diameter_lb=87"

    def test_family_rejects_hirsch_input(self, capsys):
        rc = main(["family", "--dim", "3", "--facets", "6", "--diameter", "3"])
        assert rc == 3

    def test_hull_writes_files_deterministically(self, tmp_path, capsys):
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        out = tmp_path / "cube.hpoly"
        assert main(["hull", str(src), "--out", str(out)]) == 0
        first = out.read_text()
        first_inc = (tmp_path / "cube.hpoly.inc").read_text()
        assert main(["hull", str(src), "--out", str(out)]) == 0
        assert out.read_text() == first
        assert (tmp_path / "cube.hpoly.inc").read_text() == first_inc
        h = read_hpoly(first)
        assert len(h.inequalities) == 6

    def test_diameter_command(self, tmp_path, capsys):
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        assert main(["diameter", str(src)]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_polar_command(self, tmp_path):
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        out = tmp_path / "polar.poly"
        assert main(["polar", str(src), "--out", str(out)]) == 0
        pol = read_poly(out.read_text())
        assert pol.n_vertices == 6

    def test_polar_of_q48_builds_one_hull(self, tmp_path, capsys, hull_builds):
        # the input's hull, read back by `certify_vertices` and `polar`; the
        # polar's hull is derived, not built
        src = tmp_path / "q48.poly"
        assert main(["builtin", "--out", str(src)]) == 0
        assert main(["polar", str(src)]) == 0
        assert hull_builds == [48]
        assert sha256(capsys.readouterr().out.encode()) == PINS["polar-q48"].stdout

    def test_polar_of_q48_finds_the_smallest_faces_once(self, tmp_path, capsys, monkeypatch):
        # `certify_vertices` and the polar's `extreme_indices` read the
        # faces of the same hull, which keeps them
        src = tmp_path / "q48.poly"
        assert main(["builtin", "--out", str(src)]) == 0
        calls = []
        faces = polytopes._smallest_faces

        def counting(inc):
            calls.append(inc)
            return faces(inc)

        monkeypatch.setattr(polytopes, "_smallest_faces", counting)
        assert main(["polar", str(src)]) == 0
        assert len(calls) == 1 and calls[0].n_vertices == 48
        assert sha256(capsys.readouterr().out.encode()) == PINS["polar-q48"].stdout

    def test_construct_ops(self, tmp_path, capsys):
        src = tmp_path / "pent.poly"
        src.write_text(write_poly(vpoly((pt(0, 0), pt(4, 0), pt(6, 3), pt(3, 6), pt(-1, 3)))))
        out = tmp_path / "ops.poly"
        assert main(["construct", "ops", str(src), "--vertex", "1", "--out", str(out)]) == 0
        sus = read_poly(out.read_text())
        assert sus.n_vertices == 6
        assert sus.ambient_dim == 3

    def test_construct_push_deterministic(self, tmp_path):
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        o1, o2 = tmp_path / "p1.poly", tmp_path / "p2.poly"
        assert main(["construct", "push", str(src), "--vertex", "2", "--seed", "9",
                     "--out", str(o1)]) == 0
        assert main(["construct", "push", str(src), "--vertex", "2", "--seed", "9",
                     "--out", str(o2)]) == 0
        assert o1.read_text() == o2.read_text()

    @pytest.mark.parametrize(
        "operation, options",
        [("push", ["--vertex", "2", "--seed", "9"]), ("dstep-iterate", ["--steps", "2", "--seed", "7"])],
    )
    def test_construct_hpoly_is_the_search_hull(self, tmp_path, capsys, hull_builds, operation, options):
        # the search's result keeps the hull it verified: its HPOLY equals
        # the enumeration of a fresh, equal polytope, and writing it builds
        # no hull beyond those of the POLY run
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        runs = {}
        for fmt in ("poly", "hpoly"):
            out = tmp_path / f"out.{fmt}"
            start = len(hull_builds)
            args = ["construct", operation, str(src), *options, "--format", fmt, "--out", str(out)]
            assert main(args) == 0
            runs[fmt] = out.read_text(), hull_builds[start:]
        (poly_text, poly_builds), (hpoly_text, hpoly_builds) = runs["poly"], runs["hpoly"]
        assert hpoly_builds == poly_builds
        assert hpoly_text == write_hpoly(facet_enumeration(read_poly(poly_text)).hrep)

    def test_construct_product(self, tmp_path):
        a = tmp_path / "a.poly"
        a.write_text(write_poly(vpoly((pt(-1,), pt(1,)))))
        out = tmp_path / "sq.poly"
        assert main(["construct", "product", str(a), str(a), "--out", str(out)]) == 0
        assert read_poly(out.read_text()).n_vertices == 4

    def test_construct_blend(self, tmp_path, capsys):
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        assert main(["construct", "blend", str(src), str(src), "--v1", "0", "--v2", "7"]) == 0
        out = capsys.readouterr().out
        assert "facets=9" in out and "nodes=14" in out

    def test_construct_dstep_iterate(self, tmp_path, capsys):
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        out = tmp_path / "lifted.poly"
        rc = main(["construct", "dstep-iterate", str(src), "--steps", "2", "--seed",
                   "7", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("STEP 0 dim=3 vertices=8")
        assert lines[2].startswith("STEP 2 dim=5 vertices=10")
        lifted = read_poly(out.read_text())
        assert lifted.n_vertices == 10

    def test_plot_torus(self, tmp_path):
        out = tmp_path / "maps.svg"
        assert main(["plot-torus", "--out", str(out), "--svg-size", "400"]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 64
        out2 = tmp_path / "maps2.svg"
        assert main(["plot-torus", "--out", str(out2), "--svg-size", "400"]) == 0
        assert out2.read_text() == svg

    def test_missing_file_is_parse_error(self):
        assert main(["width", "/nonexistent/thing.poly"]) == 2

    def test_bad_flags_exit_2(self):
        assert main(["excess", "--dim", "43"]) == 2

    def test_verify_fast(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "0 failures" in out


class TestVerifyReport:
    def test_raising_section_becomes_fail_line(self, capsys, monkeypatch):
        assert main(["verify", "--fast"]) == 0
        clean = capsys.readouterr().out.splitlines()

        def no_groups(poly=None):
            raise RuntimeError("no groups")

        monkeypatch.setattr(counterexample, "symmetry_groups", no_groups)
        assert main(["verify", "--fast"]) == 1
        captured = capsys.readouterr()
        checks = [line for line in captured.out.splitlines() if line.startswith("CHECK ")]
        assert [line for line in checks if " FAIL " in line] == [
            f"CHECK width-6 prismatoid: {name} raised FAIL RuntimeError: no groups"
            for name in ("check_symmetries", "check_orbits", "check_orbit_quotient")
        ]
        # every section that needs no group reports exactly as before
        uses_groups = ("CHECK symmetry groups:", "CHECK facet orbits:", "CHECK orbit quotient:")
        assert [line for line in checks if " FAIL " not in line] == [
            line for line in clean if line.startswith("CHECK ") and not line.startswith(uses_groups)
        ]
        assert "Traceback" not in captured.out + captured.err

    # full verify builds the base Minkowski sum in this process, when the
    # last section first reads it; no child process is ever started

    @staticmethod
    def verify(capsys):
        """(exit code, stdout) of full verify; afterwards this process has
        no child."""
        code = main(["verify"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, capsys.readouterr().out

    def test_raising_sum_gives_one_fail_line(self, capsys, monkeypatch):
        def no_sum(*args):
            raise RuntimeError("no sum")

        monkeypatch.setattr(counterexample, "minkowski_sum_from_cayley", no_sum)
        code, out = self.verify(capsys)
        assert code == 1
        assert [line for line in out.splitlines() if " FAIL " in line] == [
            "CHECK width-6 prismatoid: check_minkowski_section raised FAIL RuntimeError: no sum"
        ]

    def test_failed_census_skips_the_sum(self, capsys, monkeypatch):
        q48 = counterexample.vertices48()
        monkeypatch.setattr(
            counterexample, "vertices48", lambda: vpoly(q48.vertices[1:], q48.labels[1:])
        )
        sums = []
        monkeypatch.setattr(counterexample, "minkowski_sum_from_cayley", lambda *args: sums.append(1))
        code, out = self.verify(capsys)
        assert code == 1
        assert "CHECK facet census: facet count FAIL" in out
        assert "CHECK base Minkowski sum:" not in out
        assert sums == []


SRC = Path(__file__).resolve().parent.parent / "src"


def run_args(tmp_path, args):
    """Run `python -m exactpoly.cli *args` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "exactpoly.cli", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


def run_cli(tmp_path, command, text):
    """Run `python -m exactpoly.cli command file` in a fresh interpreter;
    `command` may hold several words."""
    src = tmp_path / "input.poly"
    src.write_text(text)
    return run_args(tmp_path, [*command.split(), str(src)])


SQUARE_WITH_INNER_POINT = "POLY 1\ndim 2\nvertices 5\n0 0\n4 0\n0 4\n4 4\n1 1\n"
SQUARE_PYRAMID = "POLY 1\ndim 3\nvertices 5\n0 0 0\n2 0 0\n0 2 0\n2 2 0\n1 1 1\n"
SQUARE = "POLY 1\ndim 2\nvertices 4\n0 0\n1 0\n0 1\n1 1\n"
SQUARE_WITH_REPEATED_POINT = "POLY 1\ndim 2\nvertices 5\n0 0\n1 0\n0 1\n1 1\n1 0\n"
OCTAHEDRON = "POLY 1\ndim 3\nvertices 6\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"
SEGMENT = "POLY 1\ndim 1\nvertices 2\n0\n1\n"


class TestExitCodes:
    """Bad input ends with a documented exit code and an `error:` line, never
    a traceback: 2 for parse errors, 3 for infeasible geometry."""

    @pytest.mark.parametrize(
        "command, text, code",
        [
            ("hull", "POLY 1\n", 2),
            ("hull", "POLY 1\ndim 2\nvertices 1\n0 0\n", 3),
            ("diameter", "POLY 1\ndim 2\nvertices 3\n0 0\n1 1\n2 2\n", 3),
            ("width", "POLY 1\ndim 2\nvertices 4\n0 0\n1 0\n0 1\n1/4 1/4\n", 3),
            ("polar", "POLY 1\ndim 2\nvertices 5\n1 1\n1 -1\n-1 1\n-1 -1\n0 0\n", 3),
            ("construct product", cube_text(), 2),
            ("construct blend", cube_text(), 2),
            ("construct dstep-iterate", SQUARE_WITH_INNER_POINT, 3),
            ("construct dstep-iterate", SQUARE_PYRAMID, 3),
            ("construct ops --vertex 4", SQUARE_WITH_INNER_POINT, 3),
        ],
        ids=[
            "truncated-header", "single-point", "collinear-diameter", "non-vertex-width",
            "square-center-polar", "product-without-second", "blend-without-second",
            "non-vertex-dstep", "pyramid-dstep", "non-vertex-ops",
        ],
    )
    def test_exit_code_without_traceback(self, tmp_path, command, text, code):
        done = run_cli(tmp_path, command, text)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1

    def test_unknown_construct_operation_is_usage_error(self, tmp_path):
        # argparse's `choices` refuses it before `_cmd_construct` runs
        done = run_cli(tmp_path, "construct bogus", SQUARE)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert "invalid choice: 'bogus'" in done.stderr
        assert done.stdout == ""

    def test_push_names_the_point_that_is_not_a_vertex(self, tmp_path):
        # the input is certified before the search, so the error names the
        # inner point at once, not the pushed vertex after every candidate
        done = run_cli(tmp_path, "construct push --vertex 0", SQUARE_WITH_INNER_POINT)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: point 4 = (1, 1) is not a vertex")
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""

    def test_ops_names_the_point_that_is_not_a_vertex(self, tmp_path):
        # the input is certified before it is suspended, as push certifies
        # it before the search
        done = run_cli(tmp_path, "construct ops --vertex 4", SQUARE_WITH_INNER_POINT)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: point 4 = (1, 1) is not a vertex")
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("construct product input.poly", SQUARE_WITH_INNER_POINT, "point 4 = (1, 1) is not a vertex"),
            ("construct product input.poly", SQUARE_WITH_REPEATED_POINT, "points 1 and 4 coincide"),
            ("construct blend --v1 4 input.poly", SQUARE_WITH_INNER_POINT, "point 4 = (1, 1) is not a vertex"),
            ("construct blend input.poly", SQUARE_WITH_REPEATED_POINT, "points 1 and 4 coincide"),
        ],
        ids=["non-vertex-product", "repeated-point-product", "non-vertex-blend", "repeated-point-blend"],
    )
    def test_product_and_blend_certify_their_inputs(self, tmp_path, command, text, message):
        # both factors are the input file; each is certified before the
        # construction, so a point that is not a vertex or a repeated point
        # exits 3 naming it, instead of a product with extra points or a
        # blend refused as not simple
        done = run_cli(tmp_path, command, text)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"error: {message}")
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["--dim", "5", "--facets", "48", "--diameter", "6", "--k", "0"],
                "need k >= 1 and j >= 1",
            ),
            (["--dim", "0", "--facets", "0", "--diameter", "0"], "need n > d >= 1 and l >= 0"),
        ],
        ids=["k-zero", "dim-zero"],
    )
    def test_family_range_error_is_usage_error(self, tmp_path, args, message):
        done = run_args(tmp_path, ["family", *args])
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: {message}\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("option, value", [("--v1", "50"), ("--v2", "99"), ("--v1", "-1")])
    def test_blend_vertex_must_be_in_range(self, tmp_path, option, value):
        (tmp_path / "cube.poly").write_text(cube_text())
        done = run_args(tmp_path, ["construct", "blend", "cube.poly", "cube.poly", option, value])
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == f"error: vertex index {value} out of range\n"
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (OCTAHEDRON, OCTAHEDRON, "blend requires simple polytopes"),
            (SQUARE, OCTAHEDRON, "blend requires equal dimensions"),
            # a segment is simple, but the blend's facet count n1 + n2 - d
            # holds from d = 2 on
            (SEGMENT, SEGMENT, "blend requires dimension at least 2"),
        ],
        ids=["non-simple", "unequal-dimensions", "segments"],
    )
    def test_blend_refusal_is_infeasible(self, tmp_path, first, second, message):
        # valid input that cannot be blended exits 3, not 2
        (tmp_path / "a.poly").write_text(first)
        (tmp_path / "b.poly").write_text(second)
        done = run_args(tmp_path, ["construct", "blend", "a.poly", "b.poly"])
        assert done.returncode == 3, done.stderr
        assert done.stderr == f"error: {message}\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_svg_size_must_be_positive(self, tmp_path, size):
        done = run_args(tmp_path, ["plot-torus", "--svg-size", size, "--out", "maps.svg"])
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == f"error: --svg-size must be positive, not {size}\n"
        assert not (tmp_path / "maps.svg").exists()

    @pytest.mark.parametrize(
        "command, engine",
        [("hull", "facet_enumeration"), ("width", "width"), ("diameter", "certify_vertices"), ("polar", "polar")],
    )
    def test_bare_value_error_is_usage_error(self, tmp_path, monkeypatch, capsys, command, engine):
        # a ValueError of no kind the table names falls through to exit 2
        def broken(*args):
            raise ValueError("broken engine")

        monkeypatch.setattr(cli, engine, broken)
        src = tmp_path / "cube.poly"
        src.write_text(cube_text())
        assert main([command, str(src)]) == 2
        assert capsys.readouterr().err == "error: broken engine\n"


class TestUnwritableOutput:
    """An output path that cannot be written ends with exit 2 and one
    `error: cannot write <path>: ...` line, not a traceback."""

    @pytest.mark.parametrize(
        "args, target",
        [
            (["builtin", "--out", "missing/q48.poly"], "missing/q48.poly"),
            (["hull", "cube.poly", "--out", "missing/cube.hpoly"], "missing/cube.hpoly"),
            (["hull", "cube.poly"], "cube.poly.hpoly"),
            (["hull", "cube.poly", "--out", "out.hpoly"], "out.hpoly.inc"),
            (["polar", "cube.poly", "--out", "missing/polar.poly"], "missing/polar.poly"),
            (["plot-torus", "--svg-size", "40", "--out", "missing/maps.svg"], "missing/maps.svg"),
            (
                ["plot-torus", "--svg-size", "40", "--out", "maps.svg", "--data", "missing/maps.txt"],
                "missing/maps.txt",
            ),
            (["construct", "ops", "cube.poly", "--out", "missing/ops.poly"], "missing/ops.poly"),
            (
                ["construct", "dstep-iterate", "cube.poly", "--seed", "7", "--out", "missing/d.poly"],
                "missing/d.poly",
            ),
        ],
        ids=[
            "builtin", "hull-out", "hull-default", "hull-incidence", "polar", "plot-torus-out",
            "plot-torus-data", "construct-ops", "construct-dstep",
        ],
    )
    def test_unwritable_output_is_usage_error(self, tmp_path, monkeypatch, capsys, args, target):
        # "missing" does not exist; the default hull output and the
        # incidence file of out.hpoly are directories
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cube.poly").write_text(cube_text())
        (tmp_path / "cube.poly.hpoly").mkdir()
        (tmp_path / "out.hpoly.inc").mkdir()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_usage_error(self, tmp_path, unbuffered):
        # the report is over 5,000 bytes and the pipe is shrunk below that,
        # so verify is still writing when the reader closes it after a line
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
        with subprocess.Popen(
            [sys.executable, "-m", "exactpoly.cli", "verify"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env, cwd=tmp_path,
        ) as proc:
            assert fcntl.fcntl(proc.stdout, fcntl.F_SETPIPE_SZ, 4096) < 5000
            assert proc.stdout.readline().startswith(b"CHECK facet census")
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == 2, err
        assert err.startswith("error: cannot write stdout: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_help_into_a_closed_pipe(self, tmp_path, unbuffered):
        # the pipe's reading end is closed before the process starts.
        # argparse writes the help text into `main`'s buffer, and `main`
        # writes it to stdout: the failed write (unbuffered) or flush
        # (buffered) is a usage error, not argparse's silent exit 0 or the
        # interpreter's failed flush at exit (exit 120)
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "exactpoly.cli", "--help"],
                stdout=write, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
            )
        finally:
            os.close(write)
        err = done.stderr.decode()
        assert "Traceback" not in err and "Exception ignored" not in err
        assert done.returncode == 2, err
        assert err.startswith("error: cannot write stdout: ")
        assert err.count("\n") == 1


POLY_SEEDS = (
    cube_text(),
    SQUARE_WITH_INNER_POINT,
    SQUARE_PYRAMID,
    "POLY 1\ndim 2\nvertices 3\n0 0\n1/2 0\n0 -3/4\nlabels\na\nb\nc\n",
    "POLY 1\ndim 1\nvertices 2\n-1\n5/3\n",
)
POLY_PIECES = st.sampled_from(
    list("0123456789-/ \n#") + ["1/0", "-0", "dim 0", "vertices 0", "labels", "POLY 1", "99999"]
)
COORDINATES = st.sampled_from(("0", "1", "-1", "2", "1/2", "-3/4", "5/3"))


@st.composite
def mutated_texts(draw, seeds, pieces):
    """One of the valid texts `seeds` with one to four edits: a coordinate
    replaced, which keeps the format and may make the points degenerate, a
    character or one of `pieces` inserted, replaced or deleted, or a line
    dropped, repeated or swapped."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(
            ("coordinate", "coordinate", "insert", "replace", "delete", "drop", "repeat", "swap")
        ))
        if how == "coordinate":
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            words = lines[i].split()
            if i >= 3 and words:
                words[draw(st.integers(0, len(words) - 1))] = draw(COORDINATES)
                lines[i] = " ".join(words)
            text = "\n".join(lines)
        elif how in ("insert", "replace", "delete"):
            i = draw(st.integers(0, len(text)))
            piece = "" if how == "delete" else draw(pieces)
            text = text[:i] + piece + text[i + (how != "insert"):]
        else:
            lines = text.split("\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if how == "drop":
                del lines[i]
            elif how == "repeat":
                lines.insert(i, lines[j])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


@settings(max_examples=200, deadline=None)
@given(
    mutated_texts(POLY_SEEDS, POLY_PIECES),
    st.sampled_from(("hull", "width", "diameter", "polar", "construct ops")),
    st.integers(-1, 5),
)
def test_mutated_poly_text_ends_in_a_documented_exit_code(text, command, vertex):
    """Exit 0-3 for any input text, and no exception escapes `main`."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.poly"
        src.write_text(text)
        args = [*command.split(), str(src)]
        if command == "construct ops":
            args += ["--vertex", str(vertex)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()

