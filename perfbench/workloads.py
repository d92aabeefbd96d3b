"""Workloads of the exactpoly benchmark: seeded inputs, timed batches and
correctness gates.

`setup(seed, seconds)` builds a workload's inputs from the seed alone; the
engine only ever sees those inputs.  `run(inputs, outcome)` drives the engine
through its public functions in a closed loop with one caller: the next item
starts when the previous one has returned.  Only calls into the engine are
timed.  The gates that check outputs run outside the timed region and count
their failures in the outcome instead of raising.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from exactpoly import (
    cli,
    constructions,
    counterexample,
    fileformats,
    normalfans,
    polytopes,
    prismatoids,
)

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


class Outcome:
    """Item latencies and gate results of one pass over a batch."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.latencies = []
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def timed(self, name, fn, *args):
        """Time one item; an item that raises counts as a failed check."""
        if self.tracer is not None:
            self.tracer.item = name
        probed = self.probe.spent if self.probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # one failing item must not end the run
            self._record(t0, probed)
            self.check(f"{name} completes", False, f"{type(exc).__name__}: {exc}")
            return None
        self._record(t0, probed)
        self.check(f"{name} completes", True)
        return result

    def _record(self, t0, probed):
        elapsed = time.perf_counter() - t0
        if self.probe is not None:
            elapsed -= self.probe.spent - probed
        self.latencies.append(elapsed)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def poly_text(rows):
    """POLY file text for integer points; inputs reach the engine through
    `read_poly`, so the generators depend on the file format only."""
    lines = ["POLY 1", f"dim {len(rows[0])}", f"vertices {len(rows)}"]
    lines += [" ".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def sphere_points(dim, r2):
    """Integer points with squared norm r2, in lexicographic order.  Points on
    a sphere are in convex position, so every one of them is a vertex."""
    b = math.isqrt(r2)
    return [
        p for p in itertools.product(range(-b, b + 1), repeat=dim) if sum(x * x for x in p) == r2
    ]


def affine_rank(rows):
    """Affine rank of integer points, by elimination over Fraction (kept
    independent of the engine so that generation never calls it)."""
    base = rows[0]
    work = [[Fraction(a - b) for a, b in zip(p, base)] for p in rows[1:]]
    rank = 0
    for col in range(len(base)):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def full_dim_sample(rng, pool, k):
    dim = len(pool[0])
    while True:
        pts = rng.sample(pool, k)
        if affine_rank(pts) == dim:
            return pts


# ---------------------------------------------------------------------------
# verify: the headline certificate


def setup_verify(seed, seconds):
    # the certificate is about one fixed object, so the seed cannot vary it
    return counterexample.vertices48()


def run_verify(q48, out):
    def item():
        # `exactpoly builtin | exactpoly hull`, then `exactpoly verify`
        poly = fileformats.read_poly(fileformats.write_poly(q48))
        hull = polytopes.facet_enumeration(poly)
        hull_text = fileformats.write_hpoly(hull.hrep) + fileformats.write_incidence(hull)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify"])
        return hull_text, code, buf.getvalue()

    res = out.timed("verify", item)
    if res is None:
        return
    hull_text, code, stdout = res
    out.check("verify exit code", code == 0, str(code))
    out.check("verify stdout digest", digest(stdout) == GOLDEN["verify_stdout"])
    out.check("q48 hull digest", digest(hull_text) == GOLDEN["q48_hull"])


# ---------------------------------------------------------------------------
# dstep: the perturbation search of the strong d-step and of pushing

# (sampling seed, squared radius of the top base, of the bottom base): five
# sphere points per base give dim-4 prismatoids whose two-step search takes
# 1.4-1.8 s.  Random prismatoids differ 50-fold in that cost (a width-2 one
# took 52 s), which would swamp any bound, so the pool is fixed and the run
# seed translates each of two copies by a lattice vector: the search takes the
# same path over other numbers, and its STEP lines are the same on every seed.
DSTEP_POOL = ((0, 21, 29), (2, 21, 21), (4, 17, 29))
DSTEP_COPIES = 2
DSTEP_STEPS = 2
DSTEP_SEED = 0


def dstep_rows(spec, shift):
    pick, r_top, r_bottom = spec
    rng = random.Random(pick)
    top = rng.sample(sphere_points(3, r_top), 5)
    bottom = rng.sample(sphere_points(3, r_bottom), 5)
    rows = [p + (1,) for p in top] + [p + (-1,) for p in bottom]
    return [tuple(c + s for c, s in zip(row, shift + (0,))) for row in rows]


def setup_dstep(seed, seconds):
    rng = random.Random(seed)
    rounds = [
        [
            (i, poly_text(dstep_rows(spec, tuple(rng.randint(-2, 2) for _ in range(3)))))
            for i, spec in enumerate(DSTEP_POOL)
        ]
        for _ in range(DSTEP_COPIES)
    ]
    return {"rounds": rounds, "push": [counterexample.vertices48()]}


def run_dstep(inputs, out):
    def iterate(pool):
        # `exactpoly construct dstep-iterate x.poly --steps 2 --seed 0` on each
        traces = []
        for i, text in pool:
            pr = prismatoids.make_prismatoid(fileformats.read_poly(text))
            _, trace = constructions.strong_dstep_iterate(pr, DSTEP_STEPS, seed=DSTEP_SEED)
            traces.append((i, trace))
        return traces

    def push(q48):
        # `exactpoly construct push q48.poly --vertex 3 --seed 1`
        return fileformats.write_poly(constructions.push_vertex(q48, 3, seed=1))

    # An item is one round over the pool: single prismatoids, 1.4-1.8 s each,
    # spread 20 % in their median from seed to seed; rounds average that out.
    for r, pool in enumerate(inputs["rounds"]):
        traces = out.timed(f"dstep round {r}", iterate, pool)
        for i, trace in traces or ():
            for a, b in zip(trace, trace[1:]):
                out.check(
                    f"dstep {i} step",
                    b.dim == a.dim + 1
                    and b.n_vertices == a.n_vertices + 1
                    and b.width >= a.width + 1,
                    f"{a} -> {b}",
                )
            lines = "\n".join(rec.line(k) for k, rec in enumerate(trace)) + "\n"
            out.check(f"dstep {i} STEP lines digest", digest(lines) == GOLDEN["dstep_steps"][i])

    for q48 in inputs["push"]:
        pushed = out.timed("push q48", push, q48)
        if pushed is not None:
            out.check("push output digest", digest(pushed) == GOLDEN["push_q48"])


# ---------------------------------------------------------------------------
# hull-mix: a stream of many small V-polytopes

# Each slot fixes an input class, a dimension, a squared sphere radius and a
# point count, so items in one slot cost about the same whatever the seed.
#   general:   points on a lattice sphere, mostly simplicial facets
#   grid:      points of the {-1,0,1} grid on the sphere of squared radius 2,
#              degenerate and non-simplicial
#   minkowski: all 25 pairwise sums of a sphere sample and a sample of the
#              cube {-1,1}^3; about a third of them are not vertices of the
#              sum and are rejected by slack alone
# Minkowski sums in dimension 4 are left out: one item took 0.4-0.8 s, more
# than the other slots together.  General points in dimension 4 fill two
# slots, so that the median item falls inside one class (about 95 ms) rather
# than in the gap between two, where it jumped by 20 % from seed to seed.
HULL_SLOTS = (
    ("general", 3, 26, 9),
    ("grid", 3, 2, 9),
    ("minkowski", 3, 14, 5),
    ("general", 4, 10, 8),
    ("grid", 4, 2, 11),
    ("general", 4, 10, 8),
)
MINKOWSKI_SECOND = (3, 5)  # squared radius and point count of the second summand
HULL_ITEMS_PER_SECOND = 15


def setup_hull_mix(seed, seconds):
    rng = random.Random(seed)
    spheres = {}

    def sample(dim, r2, k):
        if (dim, r2) not in spheres:
            spheres[dim, r2] = sphere_points(dim, r2)
        return poly_text(full_dim_sample(rng, spheres[dim, r2], k))

    items = []
    for i in range(HULL_ITEMS_PER_SECOND * seconds):
        kind, dim, r2, k = HULL_SLOTS[i % len(HULL_SLOTS)]
        texts = [sample(dim, r2, k)]
        if kind == "minkowski":
            texts.append(sample(dim, *MINKOWSKI_SECOND))
        items.append((kind, [fileformats.read_poly(t) for t in texts]))
    return items


def _hull_stages(poly):
    text = fileformats.write_poly(poly)
    back = fileformats.read_poly(text)
    hull = polytopes.facet_enumeration(back)
    polytopes.certify_vertices(back, hull)
    polytopes.dual_graph(back, hull)
    polytopes.vertex_graph(back, hull).diameter()
    hpoly = fileformats.write_hpoly(hull.hrep)
    inc = fileformats.write_incidence(hull)
    pol = polytopes.polar(back)
    pol_hull = polytopes.facet_enumeration(pol)
    return poly, back, hpoly, inc, pol, pol_hull


def _minkowski_stages(a, b):
    ms = normalfans.minkowski_sum(a, b)
    normalfans.pair_dstep_property(a, b, a.ambient_dim + 1, ms=ms)
    return _hull_stages(ms.polytope)


def _direction(values):
    """Primitive integer vector along a rational vector (positive scaling)."""
    values = [Fraction(int(v.numerator), int(v.denominator)) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def polar_round_trip(n_vertices, hpoly, inc, pol, pol_hull):
    """The polar's hull has one facet per input vertex, and its incidence is
    the transpose of the input's (polar vertex j lies along facet normal j)."""
    rows = [ln.split() for ln in hpoly.splitlines()[3:]]
    normals = {_direction([Fraction(x) for x in r[:-1]]): f for f, r in enumerate(rows)}
    facet_of = [normals.get(_direction(p)) for p in pol.vertices]
    if None in facet_of or len(set(facet_of)) != len(rows):
        return False
    facets_at = [set() for _ in range(n_vertices)]
    for f, ln in enumerate(inc.splitlines()[3:]):
        for v in ln.split():
            facets_at[int(v)].add(f)
    got = Counter(
        frozenset(facet_of[j] for j in pol_hull.incidence.vertices_of(g))
        for g in range(pol_hull.incidence.n_facets)
    )
    return pol_hull.incidence.n_facets == n_vertices and got == Counter(
        frozenset(s) for s in facets_at
    )


def run_hull_mix(items, out):
    for i, (kind, polys) in enumerate(items):
        stages = _minkowski_stages if kind == "minkowski" else _hull_stages
        res = out.timed(f"hull-mix {i} {kind}", stages, *polys)
        if res is None:
            continue
        poly, back, hpoly, inc, pol, pol_hull = res
        out.check(f"hull-mix {i} POLY round trip", back.vertices == poly.vertices)
        out.check(
            f"hull-mix {i} polar round trip",
            polar_round_trip(back.n_vertices, hpoly, inc, pol, pol_hull),
        )


WORKLOADS = {
    "verify": (setup_verify, run_verify),
    "dstep": (setup_dstep, run_dstep),
    "hull-mix": (setup_hull_mix, run_hull_mix),
}
