"""The tier-1 rows of tests/northstar.py, each run in-process through
`cli.main`, and perfbench's copies of the same pins."""
import json
from pathlib import Path

import pytest

from exactpoly.cli import main
from northstar import HULL_TEXT, PINS, ROWS, mismatches


@pytest.mark.parametrize("row", [row for row in ROWS if row.tier == "tier-1"], ids=lambda row: row.name)
def test_row_output_is_pinned(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["builtin", "--out", "q48.poly"]) == 0
    capsys.readouterr()
    assert main(row.args) == 0
    assert mismatches(row, capsys.readouterr().out.encode(), tmp_path) == []


def test_perfbench_golden_digests_are_the_pins():
    # perfbench keeps its own copies until it reads this table; they must
    # name the same bytes
    golden = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())
    assert golden["verify_stdout"] == PINS["verify"].stdout
    assert golden["q48_hull"] == HULL_TEXT
    assert golden["push_q48"] == PINS["push-q48"].stdout
