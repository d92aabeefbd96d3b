"""The tier-1 rows of tests/northstar.py, each run in-process through
`cli.main`, the searches of perfbench's dstep workload, and perfbench's
copies of the same pins."""
import importlib.util
import json
from pathlib import Path

import pytest

from exactpoly.cli import main
from exactpoly.constructions import strong_dstep_iterate
from exactpoly.fileformats import read_poly, write_poly
from exactpoly.prismatoids import make_prismatoid
from northstar import DSTEP_POOL_PINS, HULL_TEXT, PINS, ROWS, mismatches, sha256

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("row", [row for row in ROWS if row.tier == "tier-1"], ids=lambda row: row.name)
def test_row_output_is_pinned(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["builtin", "--out", "q48.poly"]) == 0
    capsys.readouterr()
    assert main(row.args) == 0
    assert mismatches(row, capsys.readouterr().out.encode(), tmp_path) == []


def test_dstep_pool_searches_are_pinned():
    # each prismatoid of the dstep workload's pool, built by the workload's
    # own `dstep_rows` (loaded from its file, so `perfbench/` needs no
    # package), lifted by two steps at seed 0
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert len(workloads.DSTEP_POOL) == len(DSTEP_POOL_PINS)
    for pool, (steps, poly) in zip(workloads.DSTEP_POOL, DSTEP_POOL_PINS):
        pr = make_prismatoid(read_poly(workloads.poly_text(workloads.dstep_rows(pool, (0, 0, 0)))))
        final, trace = strong_dstep_iterate(pr, 2, seed=0)
        lines = "".join(rec.line(k) + "\n" for k, rec in enumerate(trace))
        assert (sha256(lines.encode()), sha256(write_poly(final.polytope).encode())) == (steps, poly)


def test_perfbench_golden_digests_are_the_pins():
    # perfbench keeps its own copies until it reads this table; they must
    # name the same bytes
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert golden["verify_stdout"] == PINS["verify"].stdout
    assert golden["q48_hull"] == HULL_TEXT
    assert golden["push_q48"] == PINS["push-q48"].stdout
    assert golden["dstep_steps"] == [steps for steps, _ in DSTEP_POOL_PINS]
