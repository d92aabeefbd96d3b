"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

`verify` is not run here: its one item takes about a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from exactpoly import fileformats, polytopes, prismatoids  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(trace, seed=5):
    done = bench("--workload", "hull-mix", "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res["metrics"]


def test_end_to_end_metrics_match_the_spec():
    metrics = result(0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_repeats_its_counts():
    first, second = result(1), result(1)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in first.items()
    }
    counts = [n for n, m in first.items() if m["unit"] == "count"]
    assert [first[n]["value"] for n in counts] == [second[n]["value"] for n in counts]
    assert first["polytopes.facet_enumeration.calls"]["value"] > 0
    for name, m in first.items():
        if name.startswith(("counterexample.", "constructions.")):
            assert m["value"] == 0, name
    polar = first["polytopes.polar.s"]["value"]
    assert 0 < first["polytopes.polar.self_s"]["value"] < polar


def test_dstep_item_and_gates():
    inputs = workloads.setup_dstep(3, 1)
    out = workloads.Outcome()
    workloads.run_dstep({"rounds": [inputs["rounds"][0][1:2]], "push": []}, out)
    assert len(out.latencies) == 1 and out.attempted == 4 and not out.failures


def test_gates_count_failures_without_raising():
    out = workloads.Outcome()
    assert out.timed("broken", lambda: 1 / 0) is None
    out.check("wrong", False, "detail")
    assert out.attempted == 2 and len(out.failures) == 2


def test_tracer_patches_importers_and_restores_them():
    original = polytopes.facet_enumeration
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + (("polytopes", "no_such_function", tracing.SPAN, None),))
    try:
        assert prismatoids.facet_enumeration is polytopes.facet_enumeration is not original
        triangle = fileformats.read_poly(workloads.poly_text([(0, 0), (1, 0), (0, 1)]))
        polytopes.certify_vertices(triangle)
    finally:
        tracer.uninstall()
    assert prismatoids.facet_enumeration is polytopes.facet_enumeration is original
    assert tracer.absent == ["polytopes.no_such_function"]
    m = tracer.metrics()
    assert m["polytopes.certify_vertices.calls"] == 1
    assert m["polytopes.facet_enumeration.calls"] == 1
    assert m["polytopes.certify_vertices.self_s"] < m["polytopes.certify_vertices.s"]


def test_no_engine_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "hull-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
