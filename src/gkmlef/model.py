"""GKM fixed-point data: graph model, document parser/validator, and the
profile of a chosen circle subgroup (weights, Morse indices, level sets).
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from .exact import format_rational, integer_form, parse_rational


class GkmValidationError(ValueError):
    """Input document violates a structural invariant."""


@dataclass(frozen=True)
class Vertex:
    id: str
    position: tuple  # Fractions, length = torus rank


@dataclass(frozen=True)
class Edge:
    v: str
    w: str
    weight: tuple  # primitive integer vector, tangent weight at v toward w


@dataclass(frozen=True)
class GkmGraph:
    rank: int
    dimension: int  # = 2n
    vertices: tuple  # of Vertex
    edges: tuple  # of Edge

    @property
    def n(self):
        return self.dimension // 2

    # not a field, so dataclasses.replace does not carry it to a new graph
    @cached_property
    def integer_positions(self):
        """({vertex id: position times D}, D), as _integer_positions gives
        them; parse_gkm stores the ones its edge checks computed."""
        positions = {v.id: v.position for v in self.vertices}
        return _integer_positions({x: x for pos in positions.values() for x in pos}, positions)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def run_checks(doc):
    """Run every structural check on a decoded document.

    Returns a list of (check, ok, detail) triples; parse_gkm fails if any
    check fails, cmd_validate reports all of them, with the details of
    those that fail.  Total over any JSON value: a malformed document gives
    failed checks, never an exception.
    """
    return _checks_and_positions(doc)[0]


_EDGE_FIELDS = frozenset(("v", "w", "weight"))
_INT = frozenset((int,))  # a weight entry's exact type, so no bool


def _checks_and_positions(doc):
    """run_checks(doc), the parsed positions {vertex id: tuple of Fractions}
    of the vertices whose positions passed their checks, those positions as
    _integer_positions gives them (None when the structure check fails),
    and the Edges of the edges that reached every edge check, in document
    order: when every check passes, the graph's edges.  Each distinct
    position literal is parsed once per call."""
    checks = []
    positions = {}
    edges = []
    if not isinstance(doc, dict):
        checks.append(("document-structure", False, "expected a JSON object"))
        return checks, positions, None, edges
    rank, dim = doc.get("rank"), doc.get("dimension")
    raw_vertices, raw_edges = doc.get("vertices"), doc.get("edges")
    if not (_is_int(rank) and _is_int(dim) and isinstance(raw_vertices, list)
            and isinstance(raw_edges, list)):
        checks.append(("document-structure", False,
                       "missing or malformed field: rank and dimension must be integers, "
                       "vertices and edges lists"))
        return checks, positions, None, edges
    checks += [("document-structure", True, ""),
               ("rank-positive", rank >= 1, "rank = %d" % rank),
               ("dimension-even", dim % 2 == 0 and dim >= 2, "dimension = %d" % dim)]
    n = dim // 2

    ids = []
    ok_vertices = True
    # position literal -> Fraction, for str and int literals only: no other
    # type parses, and True, 1.0 and 1 are one dict key
    parsed = {}
    literals = {}  # vertex id -> its position's literals, once they parsed
    for i, rv in enumerate(raw_vertices):
        if not isinstance(rv, dict) or "id" not in rv:
            checks.append(("vertex-fields", False, "vertex %d: expected an object with an id" % i))
            continue
        vid = str(rv["id"])
        ids.append(vid)
        raw = rv.get("position")
        try:
            if not isinstance(raw, list):
                raise ValueError("missing position list")
            pos = []
            for x in raw:
                if type(x) is not str and type(x) is not int:
                    q = parse_rational(x)
                elif (q := parsed.get(x)) is None:
                    q = parsed[x] = parse_rational(x)
                pos.append(q)
        except ValueError as exc:
            checks.append(("vertex-positions", False, "vertex %s: %s" % (vid, exc)))
            ok_vertices = False
            continue
        if len(pos) != rank:
            checks.append(("vertex-positions", False, "vertex %s: position length %d != rank %d"
                           % (vid, len(pos), rank)))
            ok_vertices = False
            continue
        positions[vid], literals[vid] = tuple(pos), raw
    if ok_vertices:
        checks.append(("vertex-positions", True, ""))
    checks.append(("vertex-ids-unique", len(set(ids)) == len(ids), ""))
    # a literal of a vertex that failed may widen D: the same up to scale
    integer_positions = _integer_positions(parsed, literals)
    scaled = integer_positions[0]

    adjacency = {vid: [] for vid in ids}
    # vid -> [(the weight or its negative, whichever leads with a positive
    # entry, (edge number, v, w))]: two weights at a vertex are parallel
    # exactly when these keys are equal
    lines = {vid: [] for vid in ids}
    label = "edge %d (%s-%s)"  # formatted only for a check that fails
    for i, re_ in enumerate(raw_edges):
        if not isinstance(re_, dict) or not re_.keys() >= _EDGE_FIELDS:
            checks.append(("edge-fields", False,
                           "edge %d: expected an object with v, w and weight" % i))
            continue
        v, w, weight = str(re_["v"]), str(re_["w"]), re_["weight"]
        if not (isinstance(weight, list) and set(map(type, weight)) <= _INT):
            checks.append(("edge-weight-integer", False,
                           label % (i, v, w) + ": weight must be a list of integers"))
            continue
        weight = tuple(weight)
        if v == w:
            checks.append(("edge-self-loop", False, label % (i, v, w)))
            continue
        if v not in adjacency or w not in adjacency:
            checks.append(("edge-endpoints", False, label % (i, v, w) + ": unknown endpoint"))
            continue
        if len(weight) != rank:
            checks.append(("edge-weight-rank", False, label % (i, v, w)))
            continue
        if not any(weight):
            checks.append(("edge-weight-nonzero", False, label % (i, v, w)))
            continue
        ok = gcd(*weight) == 1
        checks.append(("edge-weight-primitive", ok, "" if ok else label % (i, v, w)))
        p = 0
        while not weight[p]:
            p += 1
        wp = weight[p]
        if v in scaled and w in scaled:
            # diff = lam * weight with lam > 0, in integers: with pivot p,
            # lam = diff_p / weight_p, so diff_p weight_p > 0 and
            # diff_i weight_p = diff_p weight_i for every i
            sv, sw = scaled[v], scaled[w]
            dp = sw[p] - sv[p]
            ok = dp * wp > 0
            if ok:
                for pv, pw, a in zip(sv, sw, weight):
                    if (pw - pv) * wp != dp * a:
                        ok = False
                        break
            checks.append(("edge-parallel-to-positions", ok, "" if ok else label % (i, v, w)
                           + ": position difference must be a positive multiple of the weight"))
        adjacency[v].append(w)
        adjacency[w].append(v)
        line = (weight if wp > 0 else tuple([-a for a in weight])), (i, v, w)
        lines[v].append(line)
        lines[w].append(line)
        edges.append(Edge(v, w, weight))

    for vid in ids:
        degree = len(adjacency[vid])
        checks.append(("vertex-degree", degree == n, "" if degree == n else
                       "vertex %s has %d incident edges, expected n = %d" % (vid, degree, n)))

    for vid in ids:
        # the pairs are walked only to name the first two parallel weights
        detail = ""
        if len({key for key, _ in lines[vid]}) < len(lines[vid]):
            (_, a), (_, b) = next((x, y) for x, y in combinations(lines[vid], 2) if x[0] == y[0])
            detail = "vertex %s: dependent weights on %s and %s" % (vid, label % a, label % b)
        checks.append(("gkm-independence", not detail, detail))

    seen, stack = set(ids[:1]), ids[:1]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    checks.append(("graph-connected", bool(ids) and len(seen) == len(ids),
                   "" if ids else "the document has no vertices"))
    return checks, positions, integer_positions, edges


def _integer_positions(values, positions):
    """({vertex id: position times D}, D) for positions {vertex id: keys of
    values}, values {key: int or Fraction} scaled by integer_form, D the lcm
    of their denominators: integer tuples, the same up to one positive
    scale.  Each value is scaled once, however many coordinates share it."""
    scaled, scale = integer_form(values)
    return {vid: tuple([scaled[key] for key in pos]) for vid, pos in positions.items()}, scale


def parse_gkm(text):
    """Parse and validate a GKM document (JSON text) into a GkmGraph."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GkmValidationError("malformed JSON: %s" % exc)
    checks, positions, integer_positions, edges = _checks_and_positions(doc)
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    if failures:
        msg = "; ".join("%s: %s" % (n, d) if d else n for n, d in failures)
        raise GkmValidationError(msg)
    # the ids are unique, so positions holds every vertex, in document order,
    # and every edge passed its checks, so edges holds them all
    vertices = tuple(Vertex(vid, pos) for vid, pos in positions.items())
    graph = GkmGraph(doc["rank"], doc["dimension"], vertices, tuple(edges))
    graph.__dict__["integer_positions"] = integer_positions  # the cached_property's slot
    return graph


def emit_gkm(graph):
    """Canonical serialization; emit -> parse -> emit is byte-identical."""
    doc = {
        "rank": graph.rank,
        "dimension": graph.dimension,
        "vertices": [
            {"id": v.id, "position": [format_rational(x) for x in v.position]}
            for v in graph.vertices
        ],
        "edges": [
            {"v": e.v, "w": e.w, "weight": list(e.weight)}
            for e in graph.edges
        ],
    }
    return dumps_indented(doc)


_string = json.encoder.encode_basestring_ascii
# the JSON text of each constant: analysis's templates index it, and the
# walk calls its C lookup, not a Python function, per leaf
_KEYWORDS = {True: "true", False: "false", None: "null"}
_LEAVES = {str: _string, int: int.__repr__, bool: _KEYWORDS.__getitem__,
           type(None): _KEYWORDS.__getitem__, float: json.dumps}


def _indented(obj, newline):
    """A dict, list or tuple as json.dumps(obj, indent=2) prints it at the
    depth whose line breaks are `newline` (a newline and that depth's
    indentation); leaves are looked up inline, saving a call each."""
    inner, leaves = newline + "  ", _LEAVES.get
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            leaf = leaves(type(value))
            items.append(_string(key) + ": "
                         + (leaf(value) if leaf is not None else _indented(value, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        return ("[" + inner
                + ("," + inner).join([leaf(x) if (leaf := leaves(type(x))) is not None
                                      else _indented(x, inner) for x in obj])
                + newline + "]")
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def dumps_indented(obj):
    """json.dumps(obj, indent=2) + "\\n", byte for byte, for trees of dict
    (str keys), list, tuple, str, int, float, bool and None, matched by exact
    type; any other type raises TypeError.  The stdlib takes its pure-Python
    encoder whenever indent is set; this one joins strings, with the C string
    escaper for every str.  It writes GKM documents (emit_gkm); reports have
    their own template writer, analysis.report_to_json."""
    leaf = _LEAVES.get(type(obj))
    return (leaf(obj) if leaf is not None else _indented(obj, "\n")) + "\n"


@dataclass(frozen=True)
class CircleProfile:
    """Data of the circle subgroup selected by an integer vector xi.

    The moment map is held in integers: M(v) = D mu(v) (scaled_mu), with
    D > 0 the lcm of the reduced denominators of mu (mu_scale).  Level sets,
    their constants and every test on them compare and hash ints, and the
    report is written from them; mu is the Fraction view.
    """
    graph: GkmGraph
    xi: tuple
    weights: dict  # vertex id -> sorted tuple of nonzero integer circle weights
    index: dict  # vertex id -> Morse index (twice the negative-weight count)
    scaled_mu: dict  # vertex id -> int, D <position, xi>
    mu_scale: int  # D
    warnings: tuple = field(default=())

    @property
    def n(self):
        return self.graph.n

    # computed once per profile; dataclasses.replace builds a new one
    @cached_property
    def mu(self):
        """{vertex id: mu(v) = M(v) / D}, Fractions."""
        d = self.mu_scale
        return {v: Fraction(m, d) for v, m in self.scaled_mu.items()}

    @cached_property
    def _levels(self):
        """{Morse index: (vertex ids sorted by id, sorted distinct D mu values)}."""
        out, scaled = {}, self.scaled_mu
        for v, ix in sorted(self.index.items()):
            out.setdefault(ix, []).append(v)
        return {ix: (tuple(vs), tuple(sorted({scaled[v] for v in vs})))
                for ix, vs in out.items()}

    @cached_property
    def _weight_products(self):
        """{vertex id: (product of the negative weights, product of all)}, ints."""
        return {v: (prod(w for w in ws if w < 0), prod(ws)) for v, ws in self.weights.items()}

    @cached_property
    def euler_scale(self):
        """(E, {vertex id: E / e(v)}): E the lcm of the Euler classes e(v),
        the products of all the circle weights at v, and its cofactors, ints."""
        top = lcm(*(e for _, e in self._weight_products.values()))
        return top, {v: top // e for v, (_, e) in self._weight_products.items()}

    def level(self, k):
        """Vertex ids of Morse index 2k, sorted by id."""
        return self._levels.get(2 * k, ((), ()))[0]

    @property
    def constant_on_levels(self):
        return all(len(values) == 1 for _, values in self._levels.values())

    @cached_property
    def scaled_level_constants(self):
        """(C_0, ..., C_2n): C_2k = D c_2k when the index-2k level is
        nonempty and mu is constant on it, else None."""
        values = [self._levels.get(2 * k, ((), ()))[1] for k in range(self.n + 1)]
        return tuple(vs[0] if len(vs) == 1 else None for vs in values)

    def level_constants(self):
        """[c_0, ..., c_2n] as Fractions, None where C_2k is None."""
        d = self.mu_scale
        return [None if c is None else Fraction(c, d) for c in self.scaled_level_constants]

    @property
    def min_vertex(self):
        (v,) = self.level(0)
        return v

    def negative_weight_product(self, vid):
        """Product of the negative circle weights at a vertex (1 at the minimum)."""
        return self._weight_products[vid][0]

    def full_weight_product(self, vid):
        return self._weight_products[vid][1]


def restrict_to_circle(graph, xi):
    """Derive the circle profile for a generic integer vector xi."""
    xi = tuple(xi)
    for a in xi:
        if not _is_int(a):  # a float is refused, not truncated
            raise GkmValidationError("xi entry %r is not an integer" % (a,))
    if len(xi) != graph.rank:
        raise GkmValidationError("xi length %d != rank %d" % (len(xi), graph.rank))
    outward = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        w = sum(map(mul, e.weight, xi))
        if w == 0:
            raise GkmValidationError(
                "xi %r is not generic: edge %s-%s with weight %r pairs to zero"
                % (xi, e.v, e.w, e.weight))
        outward[e.v].append(w)
        outward[e.w].append(-w)
    weights = {vid: tuple(sorted(ws)) for vid, ws in outward.items()}
    # twice the number of negative weights, which come first in sorted order
    index = {vid: 2 * bisect_left(ws, 0) for vid, ws in weights.items()}
    # mu(v) = <position, xi>, in lowest terms over the integer positions
    scaled, scale = graph.integer_positions
    scaled_mu, mu_scale = _lowest_terms(
        {vid: sum(map(mul, pos, xi)) for vid, pos in scaled.items()}, scale)

    n = graph.n
    counts = Counter(ix // 2 for ix in index.values())  # absent k count 0
    if counts[0] != 1 or counts[n] != 1:
        raise GkmValidationError(
            "expected a unique minimum and maximum, got %d of index 0 and %d of index 2n"
            % (counts[0], counts[n]))
    warnings = []
    for k in range(n + 1):
        if counts[k] != counts[n - k]:
            warnings.append(
                "Poincare symmetry violated: b_%d = %d but b_%d = %d "
                "(inconsistent input data)" % (2 * k, counts[k], 2 * (n - k), counts[n - k]))
            break
    return CircleProfile(graph, xi, weights, index, scaled_mu, mu_scale, tuple(warnings))


def _lowest_terms(values, scale):
    """({key: value / g}, scale / g), g the gcd of scale and every value:
    the same ratios value / scale over the least positive scale."""
    g = gcd(scale, *values.values())
    return {key: x // g for key, x in values.items()}, scale // g


def shift_moment_map(profile, shift):
    """The profile of mu - shift / D, shift an int: its M - shift in lowest
    terms, so that every value read from it is of the shifted moment map."""
    scaled_mu, mu_scale = _lowest_terms(
        {v: m - shift for v, m in profile.scaled_mu.items()}, profile.mu_scale)
    return replace(profile, scaled_mu=scaled_mu, mu_scale=mu_scale)


def betti(profile):
    """Betti numbers b_0 .. b_2n; odd entries vanish."""
    out = [0] * (2 * profile.n + 1)
    for k in range(profile.n + 1):
        out[2 * k] = len(profile.level(k))
    return out


def check_hypothesis(profile):
    """Constancy of the moment map on each index level, and distinctness of
    the level constants when they are all defined, decided on D mu."""
    constant = profile.constant_on_levels
    defined = [x for x in profile.scaled_level_constants if x is not None]
    all_distinct = constant and len(set(defined)) == len(defined)
    return {"constant_on_levels": constant, "all_distinct": all_distinct}


def self_indexing_normalizer(profile):
    """Affine map a*mu + b (a > 0) sending each level constant to its index:
    the line through (c_0, 0) and (c_2n, 2n).

    Returns (a, b), or None unless c_2n > c_0 and every defined level
    constant lies on that line; raises if the constancy hypothesis fails.
    The test is in the ints C = D c: C_2k lies on the line exactly when
    (C_2k - C_0) 2n = 2k (C_2n - C_0), and then a = 2n D / (C_2n - C_0) and
    b = -2n C_0 / (C_2n - C_0).
    """
    if not profile.constant_on_levels:
        raise GkmValidationError("moment map is not constant on index levels")
    c = profile.scaled_level_constants
    top, span = 2 * profile.n, c[-1] - c[0]
    if span <= 0 or any(x is not None and (x - c[0]) * top != 2 * k * span
                        for k, x in enumerate(c)):
        return None
    return Fraction(top * profile.mu_scale, span), Fraction(-top * c[0], span)
