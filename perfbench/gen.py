"""Seeded GKM inputs for the benchmark.

Bases come from ``gkmlef.catalog``; this module adds the Cartesian product
of two GKM graphs, a "fresh copy" transform and a generic-circle drawer.
Every document handed to the program is produced by ``emit_gkm`` and is
checked with ``model.run_checks`` before use.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from gkmlef import catalog
from gkmlef.model import (Edge, GkmGraph, GkmValidationError, Vertex,
                          emit_gkm, parse_gkm, restrict_to_circle, run_checks)

XI_RANGE = 4  # generic circles are drawn from [-XI_RANGE, XI_RANGE]^rank


@dataclass(frozen=True)
class Base:
    """A named input before transformation, with the facts the oracle uses."""
    name: str
    graph: GkmGraph
    default_xi: tuple
    betti: tuple


@dataclass(frozen=True)
class Case:
    """One operation's input: the document text the program sees and the
    independent facts the oracle checks its report against."""
    name: str
    document: str
    xi: tuple
    graph: GkmGraph  # the generator's own graph, never the program's parse
    betti: tuple


def catalog_base(name, scale=None):
    entry = catalog.get(name, scale=scale)
    label = name if scale is None else "%s@%s" % (name, scale)
    return Base(label, parse_gkm(entry.document), tuple(entry.default_xi),
                tuple(entry.expected["betti"]))


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def product(a, b):
    """Cartesian product: direct-sum torus, weights embedded in their own
    coordinates, positions concatenated, default circles concatenated."""
    ga, gb = a.graph, b.graph
    za, zb = (0,) * ga.rank, (0,) * gb.rank

    def vid(u, v):
        return "%s*%s" % (u, v)

    vertices = tuple(Vertex(vid(u.id, v.id), u.position + v.position)
                     for u in ga.vertices for v in gb.vertices)
    edges = tuple(Edge(vid(e.v, v.id), vid(e.w, v.id), e.weight + zb)
                  for e in ga.edges for v in gb.vertices)
    edges += tuple(Edge(vid(u.id, f.v), vid(u.id, f.w), za + f.weight)
                   for u in ga.vertices for f in gb.edges)
    graph = GkmGraph(ga.rank + gb.rank, ga.dimension + gb.dimension,
                     vertices, edges)
    return Base("%sx%s" % (a.name, b.name), graph, a.default_xi + b.default_xi,
                convolve(a.betti, b.betti))


def _random_rational(rng, size=9):
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def fresh_copy(graph, rng, shuffle=False):
    """Same GKM data under a new vertex labelling and a rational translation
    of the moment image; with `shuffle`, also a shuffled document order with
    randomly reversed edges.  Betti numbers and hard Lefschetz ranks are
    unchanged.

    Without `shuffle` the program does the same arithmetic on every copy.
    Vertex and edge order set the column and row order of the congruence
    systems, and with them the size of the intermediate fractions: one
    shuffled cp3xcp1 copy takes 1.5 s, another 2.0 s (CPython 3.11 on a
    2.1 GHz Xeon core)."""
    ids = [v.id for v in graph.vertices]
    labels = rng.sample(range(16 ** 6), len(ids))
    rename = {old: "%06x" % new for old, new in zip(ids, labels)}
    shift = tuple(_random_rational(rng) for _ in range(graph.rank))
    vertices = [Vertex(rename[v.id], tuple(p + t for p, t in zip(v.position, shift)))
                for v in graph.vertices]
    edges = [Edge(rename[e.v], rename[e.w], e.weight) for e in graph.edges]
    if shuffle:
        edges = [Edge(e.w, e.v, tuple(-a for a in e.weight)) if rng.random() < 0.5
                 else e for e in edges]
        rng.shuffle(vertices)
        rng.shuffle(edges)
    return GkmGraph(graph.rank, graph.dimension, tuple(vertices), tuple(edges))


def generic_circle(graph, rng):
    """A random integer circle that restrict_to_circle accepts; rejected
    draws (non-generic, or no unique extremum) are drawn again."""
    while True:
        xi = tuple(rng.randint(-XI_RANGE, XI_RANGE) for _ in range(graph.rank))
        try:
            restrict_to_circle(graph, xi)
        except GkmValidationError:
            continue
        return xi


def emit_checked(graph):
    """Serialize a graph; raises if the document fails any model check."""
    document = emit_gkm(graph)
    failures = [(name, detail) for name, ok, detail in run_checks(json.loads(document))
                if not ok]
    if failures:
        raise ValueError("generated document fails checks: %s" % failures)
    return document


def make_case(base, rng):
    """A fresh copy of `base` analysed at its catalog circle."""
    graph = fresh_copy(base.graph, rng)
    return Case(base.name, emit_checked(graph), base.default_xi, graph, base.betti)


# ---------------------------------------------------------------------------
# Workloads.  A round is a fixed list of cases; runs repeat whole rounds, and
# round r of a seed is the same on every run, so report digests line up.

def ladder_bases():
    b = catalog_base
    return [b("cp2"), b("cp3"), b("cp4"), b("sphere_product2"),
            b("sphere_product3"), b("su3"), b("so5"), b("so5", scale=2),
            b("hirzebruch1"), product(b("cp2"), b("cp1")),
            product(b("so5"), b("cp1")), product(b("su3"), b("cp1")),
            product(b("cp3"), b("cp1")), product(b("cp2"), b("cp2"))]


# how many inputs of each kind a small_batch round holds; fixed counts keep
# the median inside the cheap kinds (cp1 .. sphere_product2, 60% of a round,
# 3-14 ms each on a 2.1 GHz Xeon core) instead of on their edge next to so5
# (about 28 ms), where a few random draws more or less moved it by 40%
SMALL_MIX = {"cp1": 25, "cp2": 25, "hirzebruch": 25, "cp1xcp1": 25,
             "sphere_product2": 25, "so5": 20, "su3": 20, "cp3": 20, "cp2xcp1": 15}


def small_base(kind, rng):
    """A small_batch base; the so5 scale and the Hirzebruch k are random."""
    if kind == "so5":
        return catalog_base("so5", scale=Fraction(rng.randint(1, 6), rng.randint(1, 4)))
    if kind == "hirzebruch":
        return catalog_base("hirzebruch%d" % rng.randint(1, 4))
    if "x" in kind:
        left, right = kind.split("x")
        return product(catalog_base(left), catalog_base(right))
    return catalog_base(kind)


def ladder_round(rng):
    return [make_case(base, rng) for base in ladder_bases()]


def circle_sweep(rng, size):
    """One fresh sphere_product3 copy under `size` random generic circles;
    after the first analysis the congruence spaces come from the cache."""
    base = catalog_base("sphere_product3")
    graph = fresh_copy(base.graph, rng)
    document = emit_checked(graph)
    return [Case(base.name, document, generic_circle(graph, rng), graph, base.betti)
            for _ in range(size)]


SWEEP_CIRCLES = 8


def small_batch_round(rng):
    """The SMALL_MIX documents at random circles in random order, plus one
    circle sweep at random places in the round.  The small documents are
    shuffled too: a run averages the shuffle's effect on the arithmetic over
    a thousand of them."""
    kinds = [kind for kind, count in SMALL_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    cases = []
    for kind in kinds:
        base = small_base(kind, rng)
        graph = fresh_copy(base.graph, rng, shuffle=True)
        cases.append(Case(base.name, emit_checked(graph), generic_circle(graph, rng),
                          graph, base.betti))
    for case in circle_sweep(rng, SWEEP_CIRCLES):
        cases.insert(rng.randrange(len(cases) + 1), case)
    return cases


WORKLOADS = {
    "ladder": ladder_round,
    "small_batch": small_batch_round,
}
# workloads whose rounds are fresh copies of the same inputs, named alike
# in every round, so that an input's latency can be its median over rounds
REPEATED = {"ladder"}


def make_round(workload, seed, index):
    """Round `index` of `workload` under `seed`; independent of other rounds."""
    return WORKLOADS[workload](random.Random("%s/%d/%d" % (workload, seed, index)))
