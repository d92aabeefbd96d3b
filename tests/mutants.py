"""Planted mutants: small wrong edits of `src/exactpoly` that named tests
must catch.

Each entry of MUTANTS is (name, file under src/exactpoly, exact source
snippet, replacement, test node ids).  For each mutant the runner copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory, requires
the snippet to occur exactly once in its file, replaces it there, and runs
the node ids with `pytest -x` (hypothesis seeded with 0, so a run repeats).
The mutant is caught when pytest reports a failed test, or one that errored
in its setup; it survives when every listed test passes.  Any other pytest exit (a node id not found, a
collection error) is an error.  A snippet that no longer matches once means
the code moved: re-plant the mutant on the new code instead of dropping it,
since removing a mutant removes a check.

EQUIVALENT lists mutants that change no result, each with its reason, so
they are not tried again; their snippets are checked, never run.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It prints one line per mutant (the node id that caught it and the seconds
taken), appends the same lines and the equivalent mutants to the file named
by GITHUB_STEP_SUMMARY when that is set, and exits 1 if a mutant survives, a snippet does not
match exactly once, or pytest ends in an error.  tier-1 does not collect
this file: its name does not match test_*.py.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    node_ids: tuple


MUTANTS = (
    Mutant(
        "add-simplex-test-widened",
        "polytopes.py",
        "if ma.bit_count() == self.dim:",
        "if ma.bit_count() >= self.dim:",
        (
            "tests/test_hullbuilder.py::test_ridge_candidates_from_the_visible_region_match_the_full_scan",
            "tests/test_hullbuilder.py::test_q48_polar_and_base_sum_steps_match_the_full_scan",
        ),
    ),
    Mutant(
        "vertex-graph-takes-the-facet-shortcut",
        "polytopes.py",
        "self.incidence.facet_masks, self.dim, False)",
        "self.incidence.facet_masks, self.dim, True)",
        ("tests/test_hullbuilder.py::test_cube_with_an_edge_midpoint_keeps_the_edge_ends_apart",),
    ),
    Mutant(
        "vertex-graph-reads-the-kept-dual-graph",
        "polytopes.py",
        "    return hull.vertex_graph\n",
        "    return hull.dual_graph\n",
        ("tests/test_hullbuilder.py::test_graphs_match_their_references",),
    ),
    Mutant(
        "halvings-skip-the-fixed-verification",
        "constructions.py",
        "        fixed._verified_pairs()\n",
        "        pass\n",
        ("tests/test_constructions.py::test_corrupted_fixed_builder_raises_before_inside_candidates_count",),
    ),
    Mutant(
        "start-drops-the-determinant-sign",
        "polytopes.py",
        "sign = 1 if prev > 0 else -1",
        "sign = 1",
        ("tests/test_hullbuilder.py::test_start_rows_need_a_row_swap_under_either_sign",),
    ),
    Mutant(
        "tight-masks-byte-width-rounded-down",
        "polytopes.py",
        "size = -(-w // 8)",
        "size = max(1, w // 8)",
        ("tests/test_hullbuilder.py::test_tight_masks_match_plain_dot_products",),
    ),
    Mutant(
        "add-kept-threshold-raised",
        "polytopes.py",
        "if (region & m).bit_count() >= k1]",
        "if (region & m).bit_count() > k1]",
        ("tests/test_hullbuilder.py::test_ridge_candidates_from_the_visible_region_match_the_full_scan",),
    ),
    Mutant(
        "copy-shares-its-base-masks",
        "polytopes.py",
        "twin.masks = list(self.masks)",
        "twin.masks = self.masks",
        ("tests/test_constructions.py::test_whole_search_is_the_same_without_a_fixed_builder",),
    ),
    Mutant(
        "polar-keeps-points-that-are-no-vertex",
        "polytopes.py",
        "for i in extreme_indices(hull)\n",
        "for i in range(poly.n_vertices)\n",
        ("tests/test_polytopes.py::TestPolar::test_polar_hull_by_duality_is_the_built_one",),
    ),
    Mutant(
        "orth-map-accepts-a-repeated-column",
        "geometry.py",
        "if {tuple(map(abs, r)) for r in rows} != units:",
        "if not {tuple(map(abs, r)) for r in rows} <= units:",
        (
            "tests/test_geometry.py::TestOrthMap::test_rejects_a_map_that_is_no_signed_permutation",
            "tests/test_geometry.py::TestOrthMap::test_from_rows_refuses_as_the_matrix_product_does",
        ),
    ),
    Mutant(
        "verify-lets-a-mask-claim-an-empty-slot",
        "polytopes.py",
        "if tight != fmask | empty or fmask & empty:",
        "if tight != fmask | empty:",
        ("tests/test_hullbuilder.py::test_fixed_builder_claiming_an_empty_slot_raises",),
    ),
    Mutant(
        "cayley-row-offset-not-doubled",
        "normalfans.py",
        "primitive(row[:k] + (2 * row[-1],))",
        "primitive(row[:k] + (row[-1],))",
        (
            "tests/test_normalfans.py::TestMinkowskiSum::test_sum_hull_is_kept_on_its_polytope",
            "tests/test_normalfans.py::test_minkowski_sum_is_the_hull_of_every_pairwise_sum",
        ),
    ),
    Mutant(
        "cayley-row-tight-at-either-summand",
        "normalfans.py",
        "tight_a & tight_b",
        "tight_a | tight_b",
        (
            "tests/test_normalfans.py::TestMinkowskiSum::test_sum_hull_is_kept_on_its_polytope",
            "tests/test_normalfans.py::test_minkowski_sum_is_the_hull_of_every_pairwise_sum",
        ),
    ),
    Mutant(
        "face-ranks-share-one-summand",
        "normalfans.py",
        "rank(m >> n << n)",
        "rank(m >> n)",
        (
            "tests/test_normalfans.py::test_minkowski_sum_is_the_hull_of_every_pairwise_sum",
            "tests/test_normalfans.py::test_minkowski_faces_match_face_maximizing",
        ),
    ),
    Mutant(
        "face-rank-drops-a-point",
        "polytopes.py",
        "return affine_rank([points[i] for i in iter_bits(mask)])",
        "return affine_rank([points[i] for i in iter_bits(mask)][1:])",
        (
            "tests/test_normalfans.py::TestTransversality::test_band_examples",
            "tests/test_hullbuilder.py::test_derived_facts_are_kept_on_their_owners",
        ),
    ),
    Mutant(
        "sum-skips-the-non-vertex-incidence",
        "polytopes.py",
        "_check_incidence(vectors, pairs, 0)",
        "_check_incidence([vectors[i] for i in keep], "
        "[(h, bits(keep.index(v) for v in iter_bits(m) if v in keep)) for h, m in pairs], 0)",
        ("tests/test_normalfans.py::test_a_non_vertex_sum_meets_every_row",),
    ),
    Mutant(
        "base-structure-reads-the-top-hull-twice",
        "counterexample.py",
        "facet_enumeration(ctx.qplus), facet_enumeration(ctx.qminus)",
        "facet_enumeration(ctx.qplus), facet_enumeration(ctx.qplus)",
        ("tests/test_normalfans.py::TestBaseStructure::test_base_report",),
    ),
    Mutant(
        "sum-chart-spanned-by-one-summand",
        "normalfans.py",
        "    span += [tuple(map(add, ints_a[0], q)) for q in ints_b[1:]]\n",
        "",
        ("tests/test_normalfans.py::test_summands_chart_is_the_chart_of_every_sum",),
    ),
    Mutant(
        "reachable-reads-only-the-start",
        "counterexample.py",
        "for x in queue:  # the list grows",
        "for x in queue[:1]:  # the list grows",
        (
            "tests/test_counterexample.py::TestSymmetry::test_group_orders",
            "tests/test_counterexample.py::TestOrbits::test_generator_orbits_match_every_element",
        ),
    ),
    Mutant(
        "shortest-path-takes-the-largest-step",
        "graphs.py",
        "path.append(next(w for w",
        "path.append(max(w for w",
        (
            "tests/test_polytopes.py::test_shortest_path_is_the_smallest_shortest_path",
            "tests/test_northstar.py::test_row_output_is_pinned[verify]",
        ),
    ),
    Mutant(
        "vertices48-swaps-the-heights",
        "counterexample.py",
        "bases = ((base_plus(), Rat(1)), (base_minus(), Rat(-1)))",
        "bases = ((base_plus(), Rat(-1)), (base_minus(), Rat(1)))",
        (
            "tests/test_counterexample.py::TestData::test_vertex_5_plus",
            "tests/test_northstar.py::test_row_output_is_pinned[verify]",
        ),
    ),
    Mutant(
        "off-band-accepts-any-family-band",
        "counterexample.py",
        "if dims != FAMILY_BIDIMENSION[labels[f][0]]",
        "if dims not in FAMILY_BIDIMENSION.values()",
        ("tests/test_counterexample.py::TestDualGraphStructure::test_quotient_report_names_a_facet_off_its_band",),
    ),
    Mutant(
        "dstep-minus-base-holds-every-point",
        "constructions.py",
        "((1 << S.n_vertices) - 1) ^ plus_mask",
        "((1 << S.n_vertices) - 1) | plus_mask",
        ("tests/test_constructions.py::TestStrongDStep::test_cube_single_step",),
    ),
    Mutant(
        "blend-leaves-by-the-neighbors-facet",
        "constructions.py",
        "(vmasks[v] & ~vmasks[n])",
        "(vmasks[n] & ~vmasks[v])",
        (
            "tests/test_constructions.py::TestBlend::test_two_cubes",
            "tests/test_constructions.py::TestBlend::test_every_blend_of_two_cubes_reaches_five",
        ),
    ),
    Mutant(
        "usage-error-exits-3",
        "cli.py",
        "((ConstructionFailed, GeometryError",
        "((CliError, ConstructionFailed, GeometryError",
        (
            "tests/test_cli.py::TestExitCodes::test_svg_size_must_be_positive[0]",
            "tests/test_cli.py::TestUnwritableOutput::test_unwritable_output_is_usage_error[builtin]",
        ),
    ),
    Mutant(
        "closed-stdout-keeps-its-buffer",
        "cli.py",
        "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",
        "pass",
        ("tests/test_cli.py::TestUnwritableOutput::test_closed_stdout_is_usage_error[buffered]",),
    ),
    Mutant(
        "help-text-stays-in-its-buffer",
        "cli.py",
        "            sys.stdout.write(text.getvalue())\n",
        "",
        ("tests/test_cli.py::TestUnwritableOutput::test_help_into_a_closed_pipe[unbuffered]",),
    ),
)


class Equivalent(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    reason: str


EQUIVALENT = (
    Equivalent(
        "ridge-veto-loosened-to-two-holders",
        "polytopes.py",
        "or sum(c & common == common for _, c in near) == 1",
        "or sum(c & common == common for _, c in near) <= 2",
        "the common face of two facets that are not adjacent has a face figure "
        "with two non-adjacent facets, so it lies in at least four facets: a "
        "third holder always comes with a fourth",
    ),
    Equivalent(
        "adjacency-early-break-dropped",
        "polytopes.py",
        "                if face == pair:\n                    break\n",
        "                if face == pair and common != low:\n                    break\n",
        "skipping the break when one common element is left changes nothing: "
        "the loop ends there anyway, and the face never shrinks below the pair, "
        "since every common element's mask holds both members",
    ),
)


def _count(path, snippet) -> int:
    return (ROOT / "src" / "exactpoly" / path).read_text().count(snippet)


def run(mutant: Mutant):
    """(status, detail, seconds): status "caught", "SURVIVED" or "ERROR"."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / "src" / "exactpoly" / mutant.path
        target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.node_ids],
            cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
            capture_output=True, text=True,
        )
    seconds = time.perf_counter() - t0
    if done.returncode == 0:
        return "SURVIVED", "every listed test passed", seconds
    # with -x, exit 1 is a test that failed or errored in its setup
    failed = [ln.split()[1] for ln in done.stdout.splitlines() if ln.startswith(("FAILED ", "ERROR "))]
    if done.returncode == 1 and failed:
        return "caught", failed[0], seconds
    tail = (done.stdout + done.stderr).strip().splitlines()[-3:]
    return "ERROR", f"pytest exit {done.returncode}: {' | '.join(tail)}", seconds


def main(names) -> int:
    lines = [f"ERROR {name}: no such mutant" for name in sorted(set(names) - {m.name for m in MUTANTS})]
    for m in (*MUTANTS, *EQUIVALENT):
        n = _count(m.path, m.snippet)
        if n != 1:
            lines.append(f"ERROR {m.name}: snippet occurs {n} times in {m.path}, not once")
    print("".join(f"{line}\n" for line in lines), end="", flush=True)
    bad = bool(lines)
    for m in MUTANTS:
        if names and m.name not in names or _count(m.path, m.snippet) != 1:
            continue
        status, detail, seconds = run(m)
        bad = bad or status != "caught"
        lines.append(f"{status} {m.name}: {detail} ({seconds:.1f} s)")
        print(lines[-1], flush=True)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        equivalent = [f"equivalent {e.name} (not run): {e.reason}" for e in EQUIVALENT]
        with open(summary, "a") as out:
            out.write("Planted mutants:\n```\n" + "\n".join(lines + equivalent) + "\n```\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
