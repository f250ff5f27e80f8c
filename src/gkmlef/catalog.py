"""Built-in generators for the coadjoint-orbit examples and standard toric
controls, emitted in the same document format the parser accepts."""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .model import Edge, GkmGraph, Vertex, emit_gkm


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document: str
    default_xi: tuple
    expected: dict  # facts re-derived and checked by the pipeline at test time


def _graph(rank, dimension, vertices, edges):
    vs = tuple(Vertex(vid, tuple(Fraction(x) for x in pos)) for vid, pos in vertices)
    es = tuple(Edge(v, w, tuple(weight)) for v, w, weight in edges)
    return GkmGraph(rank, dimension, vs, es)


def _primitive(vec):
    g = gcd(*vec)
    return tuple(a // g for a in vec)


def su3_flag():
    """Six-dimensional coadjoint orbit of SU(3): hexagonal moment image with
    three long diagonals; circle selection (-1, 1) by default."""
    positions = [("A", (1, -1)), ("B", (1, 0)), ("C", (0, -1)),
                 ("D", (0, 1)), ("E", (-1, 0)), ("F", (-1, 1))]
    pos = dict(positions)
    boundary = [("B", "D"), ("D", "F"), ("F", "E"), ("E", "C"), ("C", "A"), ("A", "B")]
    diagonals = [("B", "E"), ("C", "D"), ("A", "F")]
    edges = []
    for v, w in boundary + diagonals:
        weight = _primitive(tuple(b - a for a, b in zip(pos[v], pos[w])))
        edges.append((v, w, weight))
    g = _graph(2, 6, positions, edges)
    return CatalogEntry(
        "su3", emit_gkm(g), (-1, 1),
        {"betti": [1, 0, 2, 0, 2, 0, 1],
         "levels": [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)],
         "constant_on_levels": True,
         "normalizer": None,
         "hl_holds": True,
         "semifree": False})


def so5_orbit(scale=1):
    """Six-dimensional coadjoint orbit of SO(5): square moment image with the
    two diagonals; circle selection (-1, 3) by default.  scale = 2 matches
    the normalization in which (mu + 6) / 2 is self-indexing."""
    s = Fraction(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    positions = [("P", (s, 0)), ("Q", (0, s)), ("R", (-s, 0)), ("S", (0, -s))]
    pos = dict(positions)
    links = [("S", "P"), ("P", "Q"), ("Q", "R"), ("R", "S"), ("R", "P"), ("S", "Q")]
    edges = []
    for v, w in links:
        diff = tuple(b - a for a, b in zip(pos[v], pos[w]))
        # positions are s * integer points; direction is integral after clearing s
        direction = tuple(int(d / s) for d in diff)
        edges.append((v, w, _primitive(direction)))
    g = _graph(2, 6, positions, edges)
    c = [Fraction(-3) * s, Fraction(-1) * s, Fraction(1) * s, Fraction(3) * s]
    return CatalogEntry(
        "so5", emit_gkm(g), (-1, 3),
        {"betti": [1, 0, 1, 0, 1, 0, 1],
         "levels": c,
         "constant_on_levels": True,
         "normalizer": (Fraction(1) / s, Fraction(3)),
         "hl_holds": True,
         "semifree": False})


def cp(n):
    """Complex projective space: simplex with the complete fixed-point graph."""
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = [("p0", tuple(0 for _ in range(n)))]
    for j in range(1, n + 1):
        verts.append(("p%d" % j, tuple(1 if i == j - 1 else 0 for i in range(n))))
    pos = dict(verts)
    edges = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            v, w = "p%d" % i, "p%d" % j
            weight = _primitive(tuple(b - a for a, b in zip(pos[v], pos[w])))
            edges.append((v, w, weight))
    g = _graph(n, 2 * n, verts, edges)
    xi = tuple(range(1, n + 1))
    return CatalogEntry(
        "cp%d" % n, emit_gkm(g), xi,
        {"betti": [1 if k % 2 == 0 else 0 for k in range(2 * n + 1)],
         "levels": [Fraction(k) for k in range(n + 1)],
         "constant_on_levels": True,
         "normalizer": (Fraction(2), Fraction(0)),
         "hl_holds": True,
         "semifree": n == 1})


def sphere_product(n):
    """Product of n two-spheres: a combinatorial hypercube whose edge
    directions are adapted to the default circle so every circle weight is
    +-1 (a semifree action)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # directions v_i = e_i - e_(i-1) - ... - e_1 pair to 1 with xi = (1,2,4,...)
    dirs = []
    for i in range(n):
        d = [-1] * i + [1] + [0] * (n - i - 1)
        dirs.append(tuple(d))
    xi = tuple(2 ** i for i in range(n))
    verts = []
    for mask in range(2 ** n):
        pos = [0] * n
        for i in range(n):
            if mask >> i & 1:
                for j in range(n):
                    pos[j] += dirs[i][j]
        verts.append(("v%s" % format(mask, "0%db" % n), tuple(pos)))
    edges = []
    for mask in range(2 ** n):
        for i in range(n):
            if not mask >> i & 1:
                v = "v%s" % format(mask, "0%db" % n)
                w = "v%s" % format(mask | 1 << i, "0%db" % n)
                edges.append((v, w, dirs[i]))
    g = _graph(n, 2 * n, verts, edges)
    return CatalogEntry(
        "sphere_product%d" % n, emit_gkm(g), xi,
        {"betti": [comb(n, k // 2) if k % 2 == 0 else 0 for k in range(2 * n + 1)],
         "levels": [Fraction(k) for k in range(n + 1)],
         "constant_on_levels": True,
         "normalizer": (Fraction(2), Fraction(0)),
         "hl_holds": True,
         "semifree": True})


def hirzebruch(k):
    """Hirzebruch-surface trapezoid; under the default circle (1, 2) the two
    index-2 fixed points sit at different moment levels, giving the negative
    control for the constancy hypothesis."""
    if k < 1:
        raise ValueError("k must be >= 1")
    verts = [("O", (0, 0)), ("X", (k + 2, 0)), ("Y", (0, 1)), ("Z", (k + 1, 1))]
    edges = [("O", "X", (1, 0)), ("O", "Y", (0, 1)),
             ("Y", "Z", (1, 0)), ("X", "Z", (-1, 1))]
    g = _graph(2, 4, verts, edges)
    return CatalogEntry(
        "hirzebruch%d" % k, emit_gkm(g), (1, 2),
        {"betti": [1, 0, 2, 0, 1],
         "constant_on_levels": False,
         "hl_holds": True,
         "semifree": False})


# ASCII digits with no leading zero, matched against the whole name
_NAME_RE = re.compile(r"su3|so5|cp([1-9][0-9]*)|sphere_product([1-9][0-9]*)"
                      r"|hirzebruch([1-9][0-9]*)")


def names():
    return ["su3", "so5", "cp1", "cp2", "cp3",
            "sphere_product1", "sphere_product2", "sphere_product3", "hirzebruch1"]


def get(name, scale=None):
    """Look up a catalog entry by name, e.g. su3, so5, cp2, sphere_product3,
    hirzebruch1.  scale applies to so5 only."""
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise KeyError("unknown catalog example %r (try one of %s)"
                       % (name, ", ".join(names())))
    if name == "su3":
        if scale is not None:
            raise ValueError("su3 takes no scale")
        return su3_flag()
    if name == "so5":
        return so5_orbit(scale if scale is not None else 1)
    if scale is not None:
        raise ValueError("scale applies to so5 only")
    if m.group(1):
        return cp(int(m.group(1)))
    if m.group(2):
        return sphere_product(int(m.group(2)))
    return hirzebruch(int(m.group(3)))
