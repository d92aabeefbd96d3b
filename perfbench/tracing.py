"""Spans and counters recorded from outside the engine.

`Tracer.install` replaces each target function by a wrapper, in its defining
module and in every exactpoly module namespace that imported it by name (a
method is replaced on its class).  A span wrapper records one span per call:
an id, the id of the enclosing span, the item being processed, the name and
the start and end times.  A count wrapper only counts calls; it is used for
the functions called hundreds of thousands of times per run, where a span
would cost more than the call.  Spans stay in memory and are reduced to
per-name metrics once the traced pass ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "sid parent item name t0 t1 ok")

SPAN, COUNT = "span", "count"


def _facet_enumeration_counts(counts, args, result):
    counts["polytopes.facet_enumeration.points"] += result.incidence.n_vertices
    counts["polytopes.facet_enumeration.facets"] += result.incidence.n_facets


def _dual_graph_counts(counts, args, result):
    counts["polytopes.dual_graph.edges"] += len(result.edges)


def _minkowski_sum_counts(counts, args, result):
    a, b = args[:2]
    counts["normalfans.minkowski_sum.points_in"] += a.n_vertices * b.n_vertices
    counts["normalfans.minkowski_sum.vertices_out"] += result.polytope.n_vertices


# (module, name, kind, extra counts taken from the arguments and result)
TARGETS = (
    ("polytopes", "facet_enumeration", SPAN, _facet_enumeration_counts),
    ("polytopes", "certify_vertices", SPAN, None),
    ("polytopes", "extreme_indices", SPAN, None),
    ("polytopes", "polar", SPAN, None),
    ("polytopes", "dual_graph", SPAN, _dual_graph_counts),
    ("polytopes", "vertex_graph", SPAN, None),
    ("geometry", "Inequality.slack", COUNT, None),
    ("geometry", "affine_rank", COUNT, None),
    ("geometry", "hyperplane_through", COUNT, None),
    ("linalg", "echelon", COUNT, None),
    ("linalg", "solve_square", COUNT, None),
    ("graphs", "Graph.bfs_distances", SPAN, None),
    ("prismatoids", "make_prismatoid", SPAN, None),
    ("prismatoids", "width", SPAN, None),
    ("constructions", "strong_dstep_iterate", SPAN, None),
    ("constructions", "strong_dstep_step", SPAN, None),
    ("constructions", "push_vertex", SPAN, None),
    ("constructions", "push_vertex_with_hull", SPAN, None),
    ("constructions", "one_point_suspension_indexed", SPAN, None),
    ("counterexample", "verify_counterexample", SPAN, None),
    ("counterexample", "symmetry_groups", SPAN, None),
    ("counterexample", "facet_orbits", SPAN, None),
    ("counterexample", "facet_permutation", COUNT, None),
    ("counterexample", "facet_labels", SPAN, None),
    ("normalfans", "minkowski_sum", SPAN, _minkowski_sum_counts),
    ("normalfans", "pair_dstep_property", SPAN, None),
    ("normalfans", "normal_map_interiority_check", SPAN, None),
    ("fileformats", "read_poly", SPAN, None),
    ("fileformats", "write_poly", SPAN, None),
    ("fileformats", "write_hpoly", SPAN, None),
    ("fileformats", "write_incidence", SPAN, None),
)

EXTRA_COUNTS = (
    "polytopes.facet_enumeration.points",
    "polytopes.facet_enumeration.facets",
    "polytopes.dual_graph.edges",
    "normalfans.minkowski_sum.points_in",
    "normalfans.minkowski_sum.vertices_out",
)

STEP = "constructions.strong_dstep_step"
HULL = "polytopes.facet_enumeration"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, name, kind, _ in TARGETS:
        full = f"{module}.{name}"
        units[f"{full}.calls"] = "count"
        if kind == SPAN:
            units[f"{full}.s"] = "s"
            units[f"{full}.self_s"] = "s"
    for name in EXTRA_COUNTS:
        units[name] = "count"
    units["constructions.accepted_steps"] = "count"
    units["constructions.hulls_per_accepted_step"] = "hulls/step"
    units["trace.spans"] = "count"
    units["trace.absent"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_est_s"] = "s"
    return units


def _ancestors(span, by_id):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.item = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _span_wrapper(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.item, name, t0, t1, ok))
            if extra is not None:
                extra(self.counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        """Wrap every target; a target that no longer exists is recorded as absent."""
        modules = [m for n, m in sys.modules.items() if n == "exactpoly" or n.startswith("exactpoly.")]
        for module, name, kind, extra in targets:
            full = f"{module}.{name}"
            try:
                owner = importlib.import_module(f"exactpoly.{module}")
                *cls, attr = name.split(".")
                for part in cls:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(full)
                continue
            if kind == SPAN:
                wrapped = self._span_wrapper(full, fn, extra)
            else:
                wrapped = self._count_wrapper(full, fn)
            if cls:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def longest(self, n):
        """The n longest spans as (seconds, item, name path from the span up)."""
        by_id = {s.sid: s for s in self.spans}
        top = sorted(self.spans, key=lambda s: s.t0 - s.t1)[:n]
        return [
            (s.t1 - s.t0, s.item, " < ".join([s.name] + [a.name for a in _ancestors(s, by_id)]))
            for s in top
        ]

    def overhead_estimate(self, calls=20000):
        """Seconds the wrappers added: each wrapped call times the measured
        extra cost of a wrapper around an empty function."""

        def empty():
            return None

        scratch = Tracer()
        costs = {}
        for kind, fn in (
            ("plain", empty),
            (SPAN, scratch._span_wrapper("empty", empty, None)),
            (COUNT, scratch._count_wrapper("empty", empty)),
        ):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            costs[kind] = (time.perf_counter() - t0) / calls
        n_counted = sum(v for k, v in self.counts.items() if k.endswith(".calls"))
        return len(self.spans) * (costs[SPAN] - costs["plain"]) + n_counted * (
            costs[COUNT] - costs["plain"]
        )

    def metrics(self):
        """Per-name calls, inclusive time and self time, plus the counts."""
        by_id = {s.sid: s for s in self.spans}
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.t1 - s.t0

        out = {name: 0 for name in metric_units()}
        out.update(self.counts)
        hulls_in_steps = 0
        for s in self.spans:
            dur = s.t1 - s.t0
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += dur - child_time[s.sid]
            names_above = {a.name for a in _ancestors(s, by_id)}
            if s.name not in names_above:  # nested calls of one name count once
                out[f"{s.name}.s"] += dur
            if s.name == HULL and STEP in names_above:
                hulls_in_steps += 1
            if s.name == STEP and s.ok:
                out["constructions.accepted_steps"] += 1
        if out["constructions.accepted_steps"]:
            out["constructions.hulls_per_accepted_step"] = (
                hulls_in_steps / out["constructions.accepted_steps"]
            )
        out["trace.spans"] = len(self.spans)
        out["trace.absent"] = len(self.absent)
        return out
