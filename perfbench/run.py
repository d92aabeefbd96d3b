"""Benchmark driver for exactpoly.

    python3 perfbench/run.py --workload {verify,dstep,hull-mix} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the engine is imported from `src/`
of that checkout.  With `--trace 0` the run times the workload's batch with
tracing off and reports the end-to-end metrics.  With `--trace 1` it runs the
batch traced and reports the per-layer metrics.  Human readable lines come
first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Exit codes: 0 after a result, 2 when
the checkout holds no engine to measure.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
LONGEST_SPANS = 12


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "dstep", "hull-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter times import plus input generation
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def setup_probe(args):
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[args.workload][0](args.seed, args.seconds)
    print(time.perf_counter() - t0)


def setup_seconds(args):
    """Median over fresh interpreters of import plus input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def fresh_state():
    """Every timed pass starts from the same cache state."""
    from exactpoly import counterexample

    getattr(counterexample, "_PRISMATOID_CACHE", {}).clear()
    gc.collect()


def timed_pass(run, inputs, tracer=None, probe=None):
    from workloads import Outcome

    fresh_state()
    out = Outcome(tracer, probe)
    run(inputs, out)
    return out


def facts():
    """Context recorded with every result."""
    try:
        from exactpoly.rationals import Rat

        backend = f"{Rat.__module__}.{Rat.__name__}"
    except ImportError:
        backend = "absent"
    files = sorted(SRC.rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        sha.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "rat_backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": sha.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs in exports that are not repositories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, q):
    """Inclusive quantile, so that one or two samples still give a value."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "exactpoly" / "__init__.py").is_file():
        print(f"error: no engine at {SRC}/exactpoly; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.setup_probe:
        setup_probe(args)
        return 0

    from workloads import WORKLOADS

    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.seconds)
    metrics = {}
    if args.trace:
        from tracing import Tracer, metric_units

        tracer = Tracer()
        tracer.install()
        try:
            out = timed_pass(run, inputs, tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics()
        values["trace.wall_s"] = sum(out.latencies)
        values["trace.overhead_est_s"] = tracer.overhead_estimate()
        for name, unit in metric_units().items():
            metrics[name] = {"value": values[name], "unit": unit}
        for name in tracer.absent:
            print(f"ABSENT {name}")
        for seconds, item, path in tracer.longest(LONGEST_SPANS):
            print(f"SPAN {seconds:.4f} s [{item}] {path}")
    else:
        setup_s = setup_seconds(args)
        with SpeedProbe() as probe:
            out = timed_pass(run, inputs, probe=probe)
        scale = probe.scale()
        print(
            f"SPEED probe_median_ms={1000 * statistics.median(probe.samples):.4g} "
            f"probes={len(probe.samples)} scale={scale:.4g}"
        )
        lat = out.latencies

        def time_metrics(k):
            wall = k * sum(lat)
            return {
                "wall_s": (wall, "s"),
                "items_per_s": (len(lat) / wall, "1/s"),
                "item_p50_ms": (1000 * k * statistics.median(lat), "ms"),
                "item_p90_ms": (1000 * k * quantile(lat, 0.9), "ms"),
            }

        for name, (value, unit) in time_metrics(1.0).items():
            print(f"RAW {name} {value:.6g} {unit}")
        for name, (value, unit) in time_metrics(scale).items():
            metrics[f"ref_{name}"] = {"value": value, "unit": unit}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        }

    attempted, failures = out.attempted, out.failures
    for f in failures:
        print(f"FAIL {f}")
    print("FACTS " + json.dumps(facts()))
    print(
        f"RUN workload={args.workload} seed={args.seed} items={len(out.latencies)} "
        f"failed_ratio={len(failures) / attempted:.6g} ({len(failures)}/{attempted} checks)"
    )
    for name, m in metrics.items():
        print(f"METRIC {name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
