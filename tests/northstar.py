"""North-star pins: the sha256 of every output that must stay byte-identical.

Each row of ROWS is (name, tier, exactpoly arguments, sha256 of stdout,
{file the command writes: sha256 of that file}).  A row runs in a directory
that holds the built-in prismatoid as `q48.poly` and nothing else.  The
tiers:

    tier-1    seconds each; tests/test_northstar.py runs them in-process
    ci        the dim-8 and dim-9 lifts, run by CI on every Python
    ci-3.11   the dim-10 lift, run by CI on Python 3.11 only
    opt-in    the dim-11 lift (about 3-4 min, 140 MB), run by hand

The digests that are no command's output are named constants below; the
tests that compute those bytes read them from here.

Run from anywhere, with the tier names as the only arguments:

    python tests/northstar.py tier-1 ci

Each row runs `python -m exactpoly.cli` in a fresh process on the sources
under src/ and is timed.  The runner prints one line per row (name,
seconds, last stdout line, `match` or `MISMATCH` with what differed),
appends the same lines to the file named by GITHUB_STEP_SUMMARY when that
is set, and exits 1 if a row's stdout or a written file differs from its
pin, a file is missing, or the command exits non-zero.

To change a pin on purpose, run the row, put the new digest in its row
here, and name the old and the new digest in CHANGES.md.  tier-1 does not
collect this file: its name does not match test_*.py.
"""
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CLI = (sys.executable, "-m", "exactpoly.cli")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

TIERS = ("tier-1", "ci", "ci-3.11", "opt-in")


class Row(NamedTuple):
    name: str
    tier: str
    args: tuple
    stdout: str
    files: dict


# the four STEP lines of the dim-8 lift, the same whichever format it writes
DIM8_STDOUT = "52b8efaf2e17a8b15cc495ab1a450cc332069b026d318bf679dd5409816e116b"

ROWS = (
    # the full certificate and its fast subset, recorded while every section
    # still built its own groups, orbits and base hulls
    Row("verify", "tier-1", ("verify",),
        "6a0a1be501586a10bc3ab255db21d84b8e6222c201587fc95c6da2983564710d", {}),
    Row("verify-fast", "tier-1", ("verify", "--fast"),
        "a65a29ca2c9ef8c9c5df17c935d38c48615ba4068e0d292ed4e9cee178d6fd32", {}),
    # the POLY text of q48's polar, recorded while the command still built
    # the hull twice
    Row("polar-q48", "tier-1", ("polar", "q48.poly"),
        "9de216e22f13b5c6aa2bab55d848a53e2ba455356a8bc5ef1fb5cd04f994d9d5", {}),
    # the strong d-step lift to dim 7; the command finds the bases itself and
    # so reaches another polytope (1555 facets) than test_08's
    # strong_dstep_iterate with the bases given (1545 facets)
    Row("lift-dim7", "tier-1",
        ("construct", "dstep-iterate", "q48.poly", "--steps", "2", "--seed", "0", "--out", "lift7.poly"),
        "893b1174c09a35fc4962fcaa5af82deea7719f41cb857ee3585982a2d5ee2098",
        {"lift7.poly": "2c7b75aaa2dbc228678d4e7293f9d402af45b8e3bc1179849107a591e07fca37"}),
    # the POLY text perfbench's dstep workload hashes as `push_q48`
    Row("push-q48", "tier-1", ("construct", "push", "q48.poly", "--vertex", "3", "--seed", "1"),
        "e12da389c76bb07849e52bdf262111fb32b76388be8251f7902d8f7baf7cd912", {}),
    # both normal maps on the flat torus; the command prints nothing
    Row("plot-torus", "tier-1", ("plot-torus", "--out", "maps.svg", "--data", "maps.txt"),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {"maps.svg": "05a5cd49d69b8c8a697f5898e979010b554a386ca41f8e7ff90c2968beb52f3f",
         "maps.txt": "516790b2e1a3a687c8bca63a801235e816196c18955ed0fc5bd68e105cc8329c"}),
    # the lift to dim 8 (3,573 facets), as POLY and as the HPOLY of the hull
    # the search verified, written without a second build
    Row("lift-dim8-poly", "ci",
        ("construct", "dstep-iterate", "q48.poly", "--steps", "3", "--seed", "0",
         "--format", "poly", "--out", "lift8.poly"),
        DIM8_STDOUT,
        {"lift8.poly": "5090d35c1c809626eca51d035935789cc02f3a6c1aba86b3bbab15afce45e1e1"}),
    Row("lift-dim8-hpoly", "ci",
        ("construct", "dstep-iterate", "q48.poly", "--steps", "3", "--seed", "0",
         "--format", "hpoly", "--out", "lift8.hpoly"),
        DIM8_STDOUT,
        {"lift8.hpoly": "34547a83562cc078db10abbc777b45d2073a8b0c247ba0fd23f2ae8f4712c2d7"}),
    # the lift to dim 9 (7,949 facets)
    Row("lift-dim9", "ci",
        ("construct", "dstep-iterate", "q48.poly", "--steps", "4", "--seed", "0", "--out", "lift9.poly"),
        "442e8d468e447d46fc295e3d7a89c9a1bff562158667b4ec2d2c4b30137feba6",
        {"lift9.poly": "e4219f2261011f714ab658440a4486ca1c5f643902e48481fd58aa82e6c34eda"}),
    # the lift to dim 10
    Row("lift-dim10", "ci-3.11",
        ("construct", "dstep-iterate", "q48.poly", "--steps", "5", "--seed", "0", "--out", "lift10.poly"),
        "34b5bbfd3391b84142f6702042154b3f7e1e35b6126769b7818c8375a19a1910",
        {"lift10.poly": "6e965b68d67b3dd757bd5ab7d0a78ee85028f33bb67d23c7ae5a39340e3c7ac0"}),
    # the lift to dim 11 (42,139 facets, width 12)
    Row("lift-dim11", "opt-in",
        ("construct", "dstep-iterate", "q48.poly", "--steps", "6", "--seed", "0", "--out", "lift11.poly"),
        "4dc4297d50c4368ced0a00756c53f9d913d86b9dd550ad30a061dad5a2b4c327",
        {"lift11.poly": "5ab0bd85b5c4313936d43da4ab785c780bc67e1106e3e08f15ef0c2a06f096fa"}),
)

PINS = {row.name: row for row in ROWS}

# the final POLY text of strong_dstep_iterate(q48_pr, max_steps=2, seed=0)
# with the bases given as facets A and L (test_08), recorded before the ridge
# and adjacency tests took their candidates from the incidence
STEP2_POLY = "e62f23e7669de94e293711d546c279c15c5909d6f813e89ad3557b872b1adec0"

# the searches of perfbench's dstep workload: per prismatoid of its
# `DSTEP_POOL`, built by `perfbench/workloads.dstep_rows` at shift (0, 0, 0),
# the sha256 of the STEP lines of strong_dstep_iterate(pr, 2, seed=0), as
# `perfbench/golden.json` keeps them in `dstep_steps`, and of the final POLY
# text; recorded when each candidate was an insertion into a copy of the
# fixed builder
DSTEP_POOL_PINS = (
    ("402aebc06c6339b0c53cf2d07d939c5937f3f13650718d8b01f46d9c1b65ed45",
     "596e7a818a5bfda04228f587305bac07035d097797f36eda285652491b83f65f"),
    ("82a1cca85b9cb59ea1a71a470fe8fabaf648be30590acb7f23ec2be536f4f47d",
     "b65e7b62adfb183f25cfedbe1eeee692f2ac8a190d42683988ec1e20f9d1dd2d"),
    ("c4c1e75dc8279418e95e4e8ef435b7639c900b79097b23bcc571cb28ee40f52f",
     "005725b348199d8a4c0f38fe31fa83513e82c017b54bd4df144c2e4ecc5a1fc5"),
)

# write_hpoly + write_incidence of q48's hull, recorded when elimination
# still ran over Fraction
HULL_TEXT = "723d730b3c71b042281d78384f0b8818891b0b2cddccea4008d937240313ece1"

# the HPOLY and INC text of tests/test_embedded_hulls.py's seeded corpus,
# recorded when the hull charted the affine hull by solving for coordinates
# in a basis of its directions
EMBEDDED_CORPUS = "aebb11666bdf92fa24aa99594a8e5ea7d6ceeaf80e5cb0d0c329f64a72d848ba"

# the HPOLY and INC text of q48 under x -> (x1, x2, x1 + x3/2 - 3, x3, x4,
# x5), recorded when the projection's columns and the equalities came from a
# Bareiss elimination
EMBEDDED_Q48 = "5230f7e4550b754f412bc45b6d564eb6bf5c505e1ae0c212c6ec26951afa489e"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatches(row: Row, stdout: bytes, directory: Path) -> list:
    """What differs from the row's pins, as short text; empty when all match."""
    found = []
    if sha256(stdout) != row.stdout:
        found.append(f"stdout {sha256(stdout)[:12]}")
    for name, want in row.files.items():
        path = directory / name
        got = sha256(path.read_bytes()) if path.is_file() else "missing"
        if got != want:
            found.append(f"{name} {got[:12]}")
    return found


def run(row: Row, q48: Path) -> tuple:
    """(ok, summary line) for one row run in a fresh process and directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copy(q48, work / "q48.poly")
        t0 = time.perf_counter()
        done = subprocess.run([*CLI, *row.args], cwd=work, env=ENV, capture_output=True)
        seconds = time.perf_counter() - t0
        sys.stderr.write(done.stderr.decode(errors="replace"))
        found = mismatches(row, done.stdout, work)
    if done.returncode:
        found.append(f"exit {done.returncode}")
    lines = done.stdout.decode(errors="replace").splitlines()
    last = lines[-1] if lines else "no stdout"
    verdict = f"MISMATCH ({', '.join(found)})" if found else "match"
    return not found, f"{row.name}: {seconds:.1f} s ({last}): {verdict}"


def main(tiers) -> int:
    unknown = sorted(set(tiers) - set(TIERS))
    if not tiers or unknown:
        print(f"usage: python tests/northstar.py TIER... (tiers: {', '.join(TIERS)}); "
              f"unknown: {', '.join(unknown) or 'none'}", file=sys.stderr)
        return 2
    bad = False
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        q48 = Path(tmp) / "q48.poly"
        subprocess.run([*CLI, "builtin", "--out", str(q48)], env=ENV, check=True)
        for row in ROWS:
            if row.tier in tiers:
                ok, line = run(row, q48)
                bad = bad or not ok
                lines.append(line)
                print(line, flush=True)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as out:
            out.write(f"North-star pins ({' '.join(tiers)}):\n```\n" + "\n".join(lines) + "\n```\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
