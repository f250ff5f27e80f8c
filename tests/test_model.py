import dataclasses
import json
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmlef import (GkmValidationError, analysis, betti, canonical_classes, catalog,
                    check_hypothesis, emit_gkm, model, parse_gkm, restrict_to_circle,
                    self_indexing_normalizer)
from gkmlef.analysis import _ascending, analyze, json_default, report_to_json
from gkmlef.cohomology import CanonicalBasis
from gkmlef.cli import main
from gkmlef.exact import parse_rational
from gkmlef.model import GkmGraph, Vertex, dumps_indented, run_checks

F = Fraction


def test_parse_su3(su3):
    _, graph, _ = su3
    assert graph.rank == 2
    assert graph.n == 3
    assert len(graph.vertices) == 6
    assert len(graph.edges) == 9


def test_parse_so5(so5):
    _, graph, _ = so5
    assert graph.n == 3
    assert len(graph.vertices) == 4
    assert len(graph.edges) == 6


def test_parse_reads_each_coordinate_once(monkeypatch):
    # one parse per distinct literal of the document: cp3's twelve
    # coordinates are the strings "0" and "1"
    calls = []

    def counting(x):
        calls.append(x)
        return parse_rational(x)

    monkeypatch.setattr(model, "parse_rational", counting)
    document = catalog.get("cp3").document
    graph = parse_gkm(document)
    literals = [x for rv in json.loads(document)["vertices"] for x in rv["position"]]
    assert sorted(calls) == sorted(set(literals)) == ["0", "1"]
    assert [v.position for v in graph.vertices] == [
        tuple(map(F, rv["position"])) for rv in json.loads(document)["vertices"]]


def test_positions_are_scaled_to_integers_once_per_graph(monkeypatch):
    # parse_gkm keeps the integer positions its edge checks computed; a graph
    # built directly scales them on first use, and a replaced graph its own
    calls = []
    scale = model._integer_positions
    monkeypatch.setattr(model, "_integer_positions",
                        lambda *args: calls.append(1) or scale(*args))
    entry = catalog.get("so5", scale=F(3, 7))
    graph = parse_gkm(entry.document)
    profiles = [restrict_to_circle(graph, xi) for xi in (entry.default_xi, (2, 1))]
    assert len(calls) == 1
    built = GkmGraph(graph.rank, graph.dimension, graph.vertices, graph.edges)
    assert [restrict_to_circle(built, entry.default_xi).scaled_mu for _ in range(2)] \
        == [profiles[0].scaled_mu] * 2
    assert len(calls) == 2
    half = tuple(Vertex(v.id, tuple(x / 2 for x in v.position)) for v in graph.vertices)
    moved = dataclasses.replace(graph, vertices=half)
    assert moved.integer_positions == (graph.integer_positions[0], 2 * graph.integer_positions[1])
    assert len(calls) == 3


def test_parse_rejects_nonparallel_edge(su3):
    entry, _, _ = su3
    doc = json.loads(entry.document)
    doc["edges"][0]["weight"] = [1, 1]
    with pytest.raises(GkmValidationError, match="parallel"):
        parse_gkm(json.dumps(doc))


def _parallel_by_fractions(doc):
    """The edge-parallel-to-positions verdicts by the Fraction route, edge by
    edge: lam = diff_p / weight_p at the first nonzero weight entry p, then
    lam > 0 and diff = lam * weight."""
    position = {v["id"]: [F(x) for x in v["position"]] for v in doc["vertices"]}
    out = []
    for e in doc["edges"]:
        diff = [b - a for a, b in zip(position[e["v"]], position[e["w"]])]
        p = next(i for i, a in enumerate(e["weight"]) if a)
        lam = diff[p] / e["weight"][p]
        out.append(lam > 0 and all(d == lam * a for d, a in zip(diff, e["weight"])))
    return out


def _parallel_checks(doc):
    return [ok for name, ok, _ in run_checks(doc) if name == "edge-parallel-to-positions"]


def _so5_mixed_denominators():
    # so5 at scale 5/6, moved by (1/4, -2/7): denominators 12, 28 and 84
    doc = json.loads(catalog.get("so5", scale=F(5, 6)).document)
    for v in doc["vertices"]:
        v["position"] = [str(F(x) + t) for x, t in zip(v["position"], (F(1, 4), F(-2, 7)))]
    return doc


def _negative_multiple(doc):
    doc["edges"][2]["weight"] = [-a for a in doc["edges"][2]["weight"]]


def _not_parallel(doc):
    doc["edges"][0]["weight"] = [1, 2]


def _zero_difference(doc):
    doc["vertices"][1]["position"] = doc["vertices"][0]["position"]


def _moved_off_the_line(doc):
    x, y = doc["vertices"][3]["position"]
    doc["vertices"][3]["position"] = [str(F(x) + F(1, 35)), y]


@pytest.mark.parametrize("doctor", [None, _negative_multiple, _not_parallel,
                                    _zero_difference, _moved_off_the_line])
def test_integer_edge_check_equals_the_fraction_route(doctor):
    doc = _so5_mixed_denominators()
    if doctor is not None:
        doctor(doc)
    expected = _parallel_by_fractions(doc)
    assert _parallel_checks(doc) == expected
    assert all(expected) == (doctor is None)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.lists(st.fractions(-3, 3, max_denominator=7), min_size=r, max_size=r),
    st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any),
    st.fractions(-2, 2, max_denominator=5),
    st.one_of(st.just([0] * r),
              st.lists(st.fractions(-1, 1, max_denominator=4), min_size=r, max_size=r)))))
def test_integer_edge_check_equals_the_fraction_route_on_drawn_edges(drawn):
    # position b = a + lam * weight + noise: any sign of lam, zero included
    a, weight, lam, noise = drawn
    b = [x + lam * w + z for x, w, z in zip(a, weight, noise)]
    doc = {"rank": len(a), "dimension": 2,
           "vertices": [{"id": "a", "position": [str(x) for x in a]},
                        {"id": "b", "position": [str(x) for x in b]}],
           "edges": [{"v": "a", "w": "b", "weight": weight}]}
    assert _parallel_checks(doc) == _parallel_by_fractions(doc)


def test_parse_rejects_duplicate_id(su3):
    entry, _, _ = su3
    doc = json.loads(entry.document)
    doc["vertices"][1]["id"] = doc["vertices"][0]["id"]
    with pytest.raises(GkmValidationError, match="unique"):
        parse_gkm(json.dumps(doc))


def _dependent_weights_doc(first_edge):
    # edges 0 and 1 meet at b with parallel weights
    return {
        "rank": 2, "dimension": 4,
        "vertices": [{"id": "a", "position": ["0", "0"]},
                     {"id": "b", "position": ["1", "0"]},
                     {"id": "c", "position": ["2", "0"]},
                     {"id": "d", "position": ["1", "1"]}],
        "edges": [first_edge,
                  {"v": "b", "w": "c", "weight": [1, 0]},
                  {"v": "c", "w": "d", "weight": [-1, 1]},
                  {"v": "a", "w": "d", "weight": [1, 1]}],
    }


def _failed_checks(doc):
    return [(name, detail) for name, ok, detail in run_checks(doc) if not ok]


def test_parse_rejects_dependent_weights(cp1):
    # two edges at one vertex with parallel weights violate the GKM condition;
    # b is the second endpoint of edge 0 and the first of edge 1
    doc = _dependent_weights_doc({"v": "a", "w": "b", "weight": [1, 0]})
    with pytest.raises(GkmValidationError, match="gkm-independence"):
        parse_gkm(json.dumps(doc))
    assert _failed_checks(doc) == [
        ("gkm-independence", "vertex b: dependent weights on edge 0 (a-b) and edge 1 (b-c)")]


def test_parse_rejects_opposite_weights_as_dependent():
    # b is the first endpoint of both edges, and opposite weights are parallel
    # too; the detail names the first two parallel weights in edge order
    doc = _dependent_weights_doc({"v": "b", "w": "a", "weight": [-1, 0]})
    with pytest.raises(GkmValidationError, match="gkm-independence"):
        parse_gkm(json.dumps(doc))
    assert _failed_checks(doc) == [
        ("gkm-independence", "vertex b: dependent weights on edge 0 (b-a) and edge 1 (b-c)")]


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return mutate


MALFORMED = {
    "vertices-not-list": (_set(["vertices"], 5), "document-structure"),
    "vertex-without-position": (_drop(["vertices", 0, "position"]), "vertex-positions"),
    "edge-without-v": (_drop(["edges", 0, "v"]), "edge-fields"),
    "fractional-weight": (_set(["edges", 0, "weight"], ["1/2"]), "edge-weight-integer"),
    "boolean-weight": (_set(["edges", 0, "weight"], [True]), "edge-weight-integer"),
    "self-loop": (_set(["edges", 0, "w"], "p0"), "edge-self-loop"),
    "zero-denominator-position": (_set(["vertices", 0, "position", 0], "1/0"),
                                  "vertex-positions"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_named_failure(case, capsys, tmp_path):
    mutate, check = MALFORMED[case]
    doc = json.loads(catalog.get("cp1").document)
    mutate(doc)
    assert (check, False) in [(name, ok) for name, ok, _ in run_checks(doc)]
    with pytest.raises(GkmValidationError, match=check):
        parse_gkm(json.dumps(doc))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL %s" % check in out
    assert out.endswith("verdict: invalid\n")


def _second_component(doc):
    # a copy of cp1 on new ids: every check passes but graph-connected
    doc["vertices"] += [{"id": "q0", "position": ["2"]}, {"id": "q1", "position": ["3"]}]
    doc["edges"].append({"v": "q0", "w": "q1", "weight": [1]})


def _on(name, mutate):
    def document():
        doc = json.loads(catalog.get(name).document)
        mutate(doc)
        return doc
    return document


PINNED_DOCUMENTS = {
    **{case: _on("cp1", mutate) for case, (mutate, _) in MALFORMED.items()},
    "unknown-endpoint": _on("cp1", _set(["edges", 0, "w"], "p9")),
    "duplicate-id": _on("cp1", _set(["vertices", 1, "id"], "p0")),
    "weight-of-wrong-rank": _on("cp1", _set(["edges", 0, "weight"], [1, 0])),
    "edge-not-parallel": _on("cp1", _set(["edges", 0, "weight"], [-1])),
    "edge-not-parallel-past-a-zero": _on("cp2", _set(["edges", 1, "weight"], [0, -1])),
    "disconnected": _on("cp1", _second_component),
    "dependent-weights": lambda: _dependent_weights_doc({"v": "a", "w": "b", "weight": [1, 0]}),
}

# run_checks on each document as the earlier, closure-based checks gave it,
# one triple a line: PASS or FAIL, the check, and after ": " its detail
PINNED_CHECKS = {
    "boolean-weight": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        FAIL edge-weight-integer: edge 0 (p0-p1): weight must be a list of integers
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p1 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "dependent-weights": """
        PASS document-structure
        PASS rank-positive: rank = 2
        PASS dimension-even: dimension = 4
        PASS vertex-positions
        PASS vertex-ids-unique
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS vertex-degree
        PASS vertex-degree
        PASS vertex-degree
        PASS vertex-degree
        PASS gkm-independence
        FAIL gkm-independence: vertex b: dependent weights on edge 0 (a-b) and edge 1 (b-c)
        PASS gkm-independence
        PASS gkm-independence
        PASS graph-connected
    """,
    "disconnected": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS vertex-degree
        PASS vertex-degree
        PASS vertex-degree
        PASS vertex-degree
        PASS gkm-independence
        PASS gkm-independence
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "duplicate-id": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        FAIL vertex-ids-unique
        FAIL edge-endpoints: edge 0 (p0-p1): unknown endpoint
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "edge-not-parallel": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        PASS edge-weight-primitive
        FAIL edge-parallel-to-positions: edge 0 (p0-p1): position difference must be a positive multiple of the weight
        PASS vertex-degree
        PASS vertex-degree
        PASS gkm-independence
        PASS gkm-independence
        PASS graph-connected
    """,
    "edge-not-parallel-past-a-zero": """
        PASS document-structure
        PASS rank-positive: rank = 2
        PASS dimension-even: dimension = 4
        PASS vertex-positions
        PASS vertex-ids-unique
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS edge-weight-primitive
        FAIL edge-parallel-to-positions: edge 1 (p0-p2): position difference must be a positive multiple of the weight
        PASS edge-weight-primitive
        PASS edge-parallel-to-positions
        PASS vertex-degree
        PASS vertex-degree
        PASS vertex-degree
        PASS gkm-independence
        PASS gkm-independence
        PASS gkm-independence
        PASS graph-connected
    """,
    "edge-without-v": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        FAIL edge-fields: edge 0: expected an object with v, w and weight
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p1 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "fractional-weight": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        FAIL edge-weight-integer: edge 0 (p0-p1): weight must be a list of integers
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p1 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "self-loop": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        FAIL edge-self-loop: edge 0 (p0-p0)
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p1 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "unknown-endpoint": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        FAIL edge-endpoints: edge 0 (p0-p9): unknown endpoint
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p1 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "vertex-without-position": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        FAIL vertex-positions: vertex p0: missing position list
        PASS vertex-ids-unique
        PASS edge-weight-primitive
        PASS vertex-degree
        PASS vertex-degree
        PASS gkm-independence
        PASS gkm-independence
        PASS graph-connected
    """,
    "vertices-not-list": """
        FAIL document-structure: missing or malformed field: rank and dimension must be integers, vertices and edges lists
    """,
    "weight-of-wrong-rank": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        PASS vertex-positions
        PASS vertex-ids-unique
        FAIL edge-weight-rank: edge 0 (p0-p1)
        FAIL vertex-degree: vertex p0 has 0 incident edges, expected n = 1
        FAIL vertex-degree: vertex p1 has 0 incident edges, expected n = 1
        PASS gkm-independence
        PASS gkm-independence
        FAIL graph-connected
    """,
    "zero-denominator-position": """
        PASS document-structure
        PASS rank-positive: rank = 1
        PASS dimension-even: dimension = 2
        FAIL vertex-positions: vertex p0: not a rational literal: '1/0'
        PASS vertex-ids-unique
        PASS edge-weight-primitive
        PASS vertex-degree
        PASS vertex-degree
        PASS gkm-independence
        PASS gkm-independence
        PASS graph-connected
    """,
}


@pytest.mark.parametrize("case", sorted(PINNED_DOCUMENTS))
def test_run_checks_reports_the_pinned_triples_in_order(case):
    # every (check, ok, detail) triple, the passing ones included, in the
    # order `gkmlef validate` prints them
    expected = []
    for line in PINNED_CHECKS[case].strip().splitlines():
        status, _, rest = line.strip().partition(" ")
        name, _, detail = rest.partition(": ")
        expected.append((name, status == "PASS", detail))
    assert run_checks(PINNED_DOCUMENTS[case]()) == expected


def test_a_bad_literal_shared_by_two_vertices_fails_on_each():
    # a literal that failed to parse is not kept, so the second vertex fails too
    doc = json.loads(catalog.get("cp1").document)
    for rv in doc["vertices"]:
        rv["position"] = ["1/0"]
    assert _failed_checks(doc) == [
        ("vertex-positions", "vertex p0: not a rational literal: '1/0'"),
        ("vertex-positions", "vertex p1: not a rational literal: '1/0'")]


@pytest.mark.parametrize("bad", [False, 0.0])
def test_a_literal_equal_to_a_parsed_int_still_fails(bad):
    # False and 0.0 equal 0 as dict keys; only strings are kept once parsed
    doc = json.loads(catalog.get("cp1").document)
    doc["vertices"][0]["position"] = [0]
    doc["vertices"][1]["position"] = [bad]
    assert ("vertex-positions", "vertex p1: not a rational literal: %r" % str(bad)) \
        in _failed_checks(doc)


def test_shared_and_padded_literals_parse_to_their_values():
    # "0" is shared by three vertices and two coordinates, "3/4" by two
    # vertices; " 3/4 " and the int 0 are the same values under other literals
    positions = [[0, "0"], [" 3/4 ", "0"], ["0", "3/4"], ["3/4", "3/4"]]
    doc = {"rank": 2, "dimension": 4,
           "vertices": [{"id": "p%d" % i, "position": pos} for i, pos in enumerate(positions)],
           "edges": [{"v": "p0", "w": "p1", "weight": [1, 0]},
                     {"v": "p0", "w": "p2", "weight": [0, 1]},
                     {"v": "p1", "w": "p3", "weight": [0, 1]},
                     {"v": "p2", "w": "p3", "weight": [1, 0]}]}
    graph = parse_gkm(json.dumps(doc))
    assert [v.position for v in graph.vertices] == [
        (F(0), F(0)), (F(3, 4), F(0)), (F(0), F(3, 4)), (F(3, 4), F(3, 4))]
    assert graph.integer_positions == (
        {"p0": (0, 0), "p1": (3, 0), "p2": (0, 3), "p3": (3, 3)}, 4)


@pytest.mark.parametrize("literal", ["\u0661", "1/\u0663", "\uff13", "-\u0967/2"])
def test_a_position_with_a_non_ascii_digit_names_its_vertex(literal):
    # int() reads Arabic-Indic, fullwidth and Devanagari digits; a position
    # literal takes ASCII digits only
    doc = json.loads(catalog.get("cp1").document)
    vid = doc["vertices"][1]["id"]
    doc["vertices"][1]["position"][0] = literal
    assert _failed_checks(doc) == [("vertex-positions", "vertex %s: not a rational literal: %r" % (vid, literal))]
    with pytest.raises(GkmValidationError, match="vertex-positions: vertex %s" % vid):
        parse_gkm(json.dumps(doc))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["p0", "p1", "1/2", "1/0", "0", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rank", "dimension", "vertices", "edges",
                                       "id", "position", "v", "w", "weight"]),
                      inner, max_size=5),
    max_leaves=12)


CP1_PATHS = [["rank"], ["dimension"], ["vertices", 0], ["vertices", 0, "id"],
             ["vertices", 1, "position"], ["vertices", 1, "position", 0],
             ["edges", 0], ["edges", 0, "w"], ["edges", 0, "weight"],
             ["edges", 0, "weight", 0]]


@given(json_values, st.sampled_from(CP1_PATHS), json_values)
def test_parse_raises_only_validation_errors(doc, path, value):
    mutated = json.loads(catalog.get("cp1").document)
    _set(path, value)(mutated)
    for d in (doc, mutated):
        assert all(isinstance(name, str) for name, _, _ in run_checks(d))
        try:
            parse_gkm(json.dumps(d))
        except GkmValidationError:
            pass


def test_su3_profile_matches_example(su3):
    _, _, profile = su3
    assert profile.level_constants() == [F(-2), F(-1), F(1), F(2)]
    assert profile.level(0) == ("A",)
    assert profile.level(1) == ("B", "C")
    assert profile.level(2) == ("D", "E")
    assert profile.level(3) == ("F",)
    assert betti(profile) == [1, 0, 2, 0, 2, 0, 1]


def test_so5_profile_indices(so5):
    _, _, profile = so5
    # unit square under xi = (-1, 3)
    assert profile.index == {"S": 0, "P": 2, "R": 4, "Q": 6}
    assert betti(profile) == [1, 0, 1, 0, 1, 0, 1]


def test_nongeneric_xi_names_edge(su3):
    _, graph, _ = su3
    with pytest.raises(GkmValidationError, match="pairs to zero"):
        restrict_to_circle(graph, (1, 1))


@pytest.mark.parametrize("xi, bad", [((-1.7, 1.2), "-1.7"), ((-1, True), "True"),
                                     (("-1", "1"), "'-1'")])
def test_non_integer_xi_names_the_entry(su3, xi, bad):
    _, graph, _ = su3
    with pytest.raises(GkmValidationError, match="xi entry %s is not an integer" % bad):
        restrict_to_circle(graph, xi)
    with pytest.raises(GkmValidationError, match="xi entry %s is not an integer" % bad):
        analyze(graph, xi)


def test_check_hypothesis(su3, so5):
    for _, _, profile in (su3, so5):
        result = check_hypothesis(profile)
        assert result["constant_on_levels"] is True
        assert result["all_distinct"] is True
    entry = catalog.get("hirzebruch1")
    profile = restrict_to_circle(parse_gkm(entry.document), entry.default_xi)
    result = check_hypothesis(profile)
    assert result["constant_on_levels"] is False
    # two index-2 points at different moment values
    assert len(profile.level(1)) == 2
    assert len({profile.mu[v] for v in profile.level(1)}) == 2


@pytest.mark.parametrize("space, args, box, holds", [
    ("grassmannian", (2, 5), 2, 120), ("flag", (4,), 3, 0), ("grassmannian", (2, 4), 3, 312),
], ids=["gr2-5", "flag4", "gr2-4"])
def test_hypothesis_on_homogeneous_spaces(homogeneous, space, args, box, holds):
    # every weight is some e_j - e_i, so the generic integer circles in the
    # box [-box, box]^n are those with distinct coordinates
    document, _ = homogeneous[space](*args)
    graph = parse_gkm(document)
    circles = list(permutations(range(-box, box + 1), graph.rank))
    assert sum(check_hypothesis(restrict_to_circle(graph, xi))["constant_on_levels"]
               for xi in circles) == holds


@pytest.mark.parametrize("xi", [(0, 1, 2, 3), (3, -1, 2, -3)])
def test_hard_lefschetz_holds_on_flag4_without_the_hypothesis(homogeneous, xi):
    document, _ = homogeneous["flag"](4)
    report, code = analyze(parse_gkm(document), xi)
    assert code == 2 and report["hypothesis"]["constant_on_levels"] is False
    assert report["hard_lefschetz"]["holds"] is True


def test_self_indexing_normalizer(su3, so5):
    _, _, p_su3 = su3
    assert self_indexing_normalizer(p_su3) is None  # fails at the third level
    _, _, p_so5 = so5
    assert self_indexing_normalizer(p_so5) == (F(1), F(3))


def test_normalizer_identity_case(cp1):
    # levels (0, 2, 4, 6) are already self-indexing
    entry = catalog.get("cp3")
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, (2, 4, 6))
    assert profile.level_constants() == [F(0), F(2), F(4), F(6)]
    assert self_indexing_normalizer(profile) == (F(1), F(0))


def test_normalizer_needs_the_maximum_above_the_minimum(cp1):
    # hand-built documents parse_gkm rejects: both positions at 0 (equal level
    # constants), and the positions swapped (c_2 < c_0); no a > 0 normalizes
    entry, graph, _ = cp1
    first, second = graph.vertices
    for positions in (((F(0),), (F(0),)), (second.position, first.position)):
        vertices = tuple(Vertex(v.id, p) for v, p in zip(graph.vertices, positions))
        profile = restrict_to_circle(dataclasses.replace(graph, vertices=vertices),
                                     entry.default_xi)
        assert profile.constant_on_levels
        assert self_indexing_normalizer(profile) is None


def test_betti_cp1(cp1):
    _, _, profile = cp1
    assert betti(profile) == [1, 0, 1]


def test_mu_increases_along_positive_edges(su3):
    _, graph, profile = su3
    for e in graph.edges:
        w = sum(a * b for a, b in zip(e.weight, profile.xi))
        diff = profile.mu[e.w] - profile.mu[e.v]
        assert (diff > 0) == (w > 0)


def test_relabeling_equivariance(su3):
    entry, graph, profile = su3
    doc = json.loads(entry.document)
    rename = {v["id"]: "x" + v["id"] for v in doc["vertices"]}
    for v in doc["vertices"]:
        v["id"] = rename[v["id"]]
    for e in doc["edges"]:
        e["v"], e["w"] = rename[e["v"]], rename[e["w"]]
    profile2 = restrict_to_circle(parse_gkm(json.dumps(doc)), entry.default_xi)
    for vid in profile.mu:
        assert profile2.mu[rename[vid]] == profile.mu[vid]
        assert profile2.index[rename[vid]] == profile.index[vid]
        assert profile2.weights[rename[vid]] == profile.weights[vid]


def test_affine_reparametrization_invariance(su3):
    entry, graph, profile = su3
    a, t = F(3, 2), (F(5), F(-1, 3))
    vertices = tuple(Vertex(v.id, tuple(a * p + s for p, s in zip(v.position, t)))
                     for v in graph.vertices)
    graph2 = GkmGraph(graph.rank, graph.dimension, vertices, graph.edges)
    profile2 = restrict_to_circle(graph2, entry.default_xi)
    shift = sum(s * x for s, x in zip(t, entry.default_xi))
    assert profile2.index == profile.index
    assert all(profile2.level(k) == profile.level(k) for k in range(profile.n + 1))
    assert betti(profile2) == betti(profile)
    for k in range(profile.n + 1):
        assert profile2.level_constants()[k] == a * profile.level_constants()[k] + shift


def _without(report, *paths):
    """report with the fields at each "a/b/c" path dropped, a "*" standing
    for every item of a list, and every vertex position: a plain copy, the
    argument is left as it is."""
    report = json.loads(json.dumps(report, default=json_default))
    for path in paths + ("profile/vertices/*/position",):
        *parents, key = path.split("/")
        nodes = [report]
        for p in parents:
            nodes = [x for node in nodes for x in (node if p == "*" else [node[p]])]
        for node in nodes:
            del node[key]
    return report


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_reports_are_translation_invariant(data):
    # translating every position by t shifts mu by <t, xi>: --shift-min
    # reports are equal but for the digest and the positions, whose change
    # min_shift records; unshifted reports also differ in the mu-valued fields
    name = data.draw(st.sampled_from(["su3", "so5", "cp2", "cp3", "sphere_product2",
                                      "hirzebruch1"]), label="name")
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    t = data.draw(st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * graph.rank), label="t")
    moved_doc = emit_gkm(dataclasses.replace(graph, vertices=tuple(
        Vertex(v.id, tuple(p + s for p, s in zip(v.position, t))) for v in graph.vertices)))
    moved = parse_gkm(moved_doc)
    xi = entry.default_xi
    reports = {}
    for shift_min in (True, False):
        reports[shift_min] = [
            analyze(g, xi, name=name, source_bytes=doc.encode(), shift_min=shift_min)
            for g, doc in ((graph, entry.document), (moved, moved_doc))]
        (report, code), (moved_report, moved_code) = reports[shift_min]
        assert code == moved_code
    (report, _), (moved_report, _) = reports[True]
    assert F(moved_report["profile"]["min_shift"]) - F(report["profile"]["min_shift"]) \
        == sum(s * x for s, x in zip(t, xi))
    assert _without(moved_report, "input/digest", "profile/min_shift") \
        == _without(report, "input/digest", "profile/min_shift")
    # the normalizer of the shifted report maps each reported constant to its index
    norm = report["self_indexing_normalizer"]
    if norm is not None:
        a, b = map(F, norm)
        assert all(a * F(c) + b == 2 * k
                   for k, c in enumerate(report["profile"]["level_constants"]))
    mu_valued = ("input/digest", "profile/min_shift", "profile/level_constants",
                 "self_indexing_normalizer", "profile/vertices/*/mu")
    copies = [_without(r, *mu_valued) for r, _ in reports[False]]
    for copy in copies:
        (distinct,) = [e for e in copy["lemmas"] if e["name"] == "distinct-level-constants"]
        distinct["detail"] = distinct["detail"].split("; ", 1)[-1]
    assert copies[0] == copies[1]


def test_roundtrip(su3):
    entry, graph, _ = su3
    assert emit_gkm(parse_gkm(emit_gkm(graph))) == emit_gkm(graph) == entry.document


# -- the indent-2 writer -----------------------------------------------------

_json_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_json_trees)
def test_dumps_indented_is_the_stdlib_at_indent_2(tree):
    assert dumps_indented(tree) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}, "b": [[], {}, ()]}, [[[]]], float("nan"), float("-inf"),
    -0.0, 1e300, 2 ** 64 + 1, -(2 ** 100), "\u00e9\x00\"\\", None, True,
])
def test_dumps_indented_edge_cases(tree):
    assert dumps_indented(tree) == json.dumps(tree, indent=2) + "\n"


class _SelfPrinting:
    def indented(self, newline):
        return "{}"


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": {None: 1}}, [F(1, 2)], {"a": F(3)}, {1, 2},
                                  [_SelfPrinting()]])
def test_dumps_indented_rejects_what_it_does_not_print(tree):
    with pytest.raises(TypeError):
        dumps_indented(tree)


def _renamed(name, ids):
    """The catalog document of name with its vertex ids replaced, in order,
    by ids (JSON values of any type), printed as the stdlib prints it."""
    doc = json.loads(catalog.get(name).document)
    new = {v["id"]: x for v, x in zip(doc["vertices"], ids, strict=True)}
    for v in doc["vertices"]:
        v["id"] = new[v["id"]]
    for e in doc["edges"]:
        e["v"], e["w"] = new[e["v"]], new[e["w"]]
    return json.dumps(doc, indent=2) + "\n"


def _writer_cases():
    """{case id: (document, xi, the document emit_gkm gives back)}."""
    cases = {}
    for name in catalog.names() + ["cp6", "sphere_product5", "hirzebruch2"]:
        entry = catalog.get(name)
        cases[name] = (entry.document, entry.default_xi, entry.document)
    so5 = catalog.get("so5", scale=F(3, 7))  # fractional class values
    cases["so5-scale-3_7"] = (so5.document, so5.default_xi, so5.document)
    cp3 = catalog.get("cp3")
    cases["cp3-xi=-3,-2,-1"] = (cp3.document, (-3, -2, -1), cp3.document)
    escaped = _renamed("cp2", ['a"b', "\u00e9\\", "tab\t"])
    cases["cp2-escaped-ids"] = (escaped, catalog.get("cp2").default_xi, escaped)
    cases["su3-number-ids"] = (_renamed("su3", range(1, 7)), catalog.get("su3").default_xi,
                               _renamed("su3", [str(i) for i in range(1, 7)]))
    return cases


_WRITER_CASES = _writer_cases()


@pytest.mark.parametrize("case", list(_WRITER_CASES))
def test_report_and_document_writers_are_the_stdlib(case):
    # the report's vertex table and classes print themselves; json.dumps
    # reads them as the list and the dict they stand for, built from the
    # Fraction positions and mu and by the _ascending route
    document, xi, emitted = _WRITER_CASES[case]
    graph = parse_gkm(document)
    assert emit_gkm(graph) == emitted == json.dumps(json.loads(emitted), indent=2) + "\n"
    report, _ = analyze(graph, xi, name=case, source_bytes=document.encode())
    assert report_to_json(report) == json.dumps(report, indent=2, default=json_default) + "\n"
    profile = restrict_to_circle(graph, xi)
    basis = canonical_classes(graph, profile)
    vids = sorted(profile.index)
    classes = report["canonical_basis"]["classes"]
    assert list(classes) == list(basis.order) == report["canonical_basis"]["order"]
    assert dict(classes) == {fid: {"degree": profile.index[fid],
                                   "alpha": _ascending(basis.alpha[fid], vids),
                                   "beta": _ascending(basis.beta[fid], vids)}
                             for fid in basis.order}
    assert list(report["profile"]["vertices"]) == [
        {"id": v.id, "position": [str(x) for x in v.position], "mu": str(profile.mu[v.id]),
         "index": profile.index[v.id], "circle_weights": list(profile.weights[v.id])}
        for v in sorted(graph.vertices, key=lambda v: v.id)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(catalog.names()), st.data())
def test_report_json_is_the_stdlib_through_the_reference_views(name, data):
    # translated positions, a random generic circle and --shift-min: the
    # integer writers print what json.dumps prints through the views'
    # Fraction routes
    graph = parse_gkm(catalog.get(name).document)
    t = data.draw(st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * graph.rank), label="t")
    document = emit_gkm(dataclasses.replace(graph, vertices=tuple(
        Vertex(v.id, tuple(p + s for p, s in zip(v.position, t))) for v in graph.vertices)))
    graph = parse_gkm(document)
    xi = data.draw(st.tuples(*[st.integers(-6, 6)] * graph.rank), label="xi")
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    shift_min = data.draw(st.booleans(), label="shift_min")
    report, _ = analyze(graph, xi, name=name, source_bytes=document.encode(),
                        shift_min=shift_min)
    assert report_to_json(report) == json.dumps(report, indent=2, default=json_default) + "\n"


@pytest.mark.parametrize("name", catalog.names())
def test_report_json_is_printed_from_templates_not_the_walk(name, monkeypatch):
    # the skeleton, the row templates and the views print the whole report:
    # the generic writer, which only the timings tail may use, is never called
    def refuse(*args):
        raise AssertionError("the generic writer was called")
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    monkeypatch.setattr(model, "_indented", refuse)
    monkeypatch.setattr(analysis, "_indented", refuse)
    for shift_min in (False, True):
        report, _ = analyze(graph, entry.default_xi, name=name,
                            source_bytes=entry.document.encode(), shift_min=shift_min)
        assert report_to_json(report) == json.dumps(report, indent=2, default=json_default) + "\n"
    report, _ = analyze(graph, entry.default_xi, with_timings=True)
    with pytest.raises(AssertionError, match="generic writer"):
        report_to_json(report)


def test_a_report_with_keys_other_than_analyze_s_is_refused(su3):
    _, graph, _ = su3
    report, _ = analyze(graph, (-1, 1))
    with pytest.raises(ValueError, match="report key 'extra' is missing or unknown"):
        report_to_json({**report, "extra": 1})
    del report["lemmas"]
    with pytest.raises(ValueError, match="report key 'lemmas' is missing or unknown"):
        report_to_json(report)


class _Unread(tuple):
    """A position that refuses to be read coordinate by coordinate."""

    def __iter__(self):
        raise AssertionError("a vertex position was read as Fractions")


@pytest.mark.parametrize("name", ["so5", "cp3", "hirzebruch1"])
def test_the_vertex_table_is_written_from_the_integer_positions(name):
    # the positions of a parsed graph are read only through
    # graph.integer_positions, kept from parse
    entry = catalog.get(name, **({"scale": F(3, 7)} if name == "so5" else {}))
    graph = parse_gkm(entry.document)

    def printed():
        return [report_to_json(analyze(graph, entry.default_xi, shift_min=shift)[0])
                for shift in (False, True)]
    expected = printed()
    object.__setattr__(graph, "vertices", tuple(Vertex(v.id, _Unread(v.position))
                                                for v in graph.vertices))
    assert printed() == expected
    report, _ = analyze(graph, entry.default_xi)
    with pytest.raises(AssertionError, match="read as Fractions"):
        list(report["profile"]["vertices"])


# every catalog entry at its default circle, and the homogeneous spaces of
# tests/conftest.py at theirs, named builder_arg_arg
_CLASSES_CASES = [
    ("su3", 0), ("so5", 0), ("cp1", 0), ("cp2", 0), ("cp3", 0), ("sphere_product1", 0),
    ("sphere_product2", 0), ("sphere_product3", 0), ("hirzebruch1", 2),
    ("grassmannian_2_4", 0), ("grassmannian_2_5", 0), ("grassmannian_3_6", 0),
    ("flag_3", 0), ("flag_4", 2)]


def test_the_classes_cases_cover_the_catalog():
    assert set(catalog.names()) <= {name for name, _ in _CLASSES_CASES}


@pytest.mark.parametrize("name, code", _CLASSES_CASES)
def test_report_json_writes_the_classes_from_the_basis(name, code, homogeneous, monkeypatch):
    # after the sweep, analyze and report_to_json read integer_beta alone:
    # neither _ascending nor a Fraction view is used; json.dumps through the
    # views is the byte reference
    def refuse(*args):
        raise AssertionError("_ascending or a Fraction view used")
    if name in catalog.names():
        document, xi = catalog.get(name).document, catalog.get(name).default_xi
    else:
        builder, *args = name.split("_")
        document, xi = homogeneous[builder](*map(int, args))
    graph = parse_gkm(document)
    monkeypatch.setattr(analysis, "_ascending", refuse)
    monkeypatch.setattr(CanonicalBasis, "alpha", property(refuse))
    monkeypatch.setattr(CanonicalBasis, "beta", property(refuse))
    report, got = analyze(graph, xi, name=name, source_bytes=document.encode())
    text = report_to_json(report)
    monkeypatch.undo()
    assert got == code
    classes = report["canonical_basis"]["classes"]
    fid = report["canonical_basis"]["order"][-1]
    assert classes[fid]["degree"] == 2 * graph.n
    assert fid in classes and "no such vertex" not in classes
    assert text == json.dumps(report, indent=2, default=json_default) + "\n"


def test_profile_caches_follow_dataclasses_replace(su3):
    # levels, weight products and the Euler scale are computed once per
    # profile, and a replaced profile computes its own
    _, _, profile = su3
    assert profile.level(1) == tuple(sorted(v for v, ix in profile.index.items() if ix == 2))
    assert profile.level(1) is profile.level(1)
    (top,) = profile.level(profile.n)
    moved = dataclasses.replace(profile, index={**profile.index, top: 2},
                                weights={**profile.weights, top: (-2, 3, 5)})
    assert top in moved.level(1) and moved.level(profile.n) == ()
    assert moved.scaled_level_constants[1] is None and not moved.constant_on_levels
    assert profile.scaled_level_constants[1] is not None and profile.constant_on_levels
    assert moved.negative_weight_product(top) == -2 and moved.full_weight_product(top) == -30
    scale, cofactor = moved.euler_scale
    assert scale == lcm(*(prod(ws) for ws in moved.weights.values())) != profile.euler_scale[0]
    assert cofactor == {v: scale // prod(ws) for v, ws in moved.weights.items()}
    assert profile.level(profile.n) == (top,)
    assert profile.full_weight_product(top) == prod(profile.weights[top])
    # a replaced moment map gives its own mu and level constants
    assert profile.mu[top] == profile.level_constants()[profile.n]
    doubled = dataclasses.replace(profile,
                                  scaled_mu={v: 2 * m for v, m in profile.scaled_mu.items()})
    assert doubled.mu == {v: 2 * x for v, x in profile.mu.items()}
    assert doubled.scaled_level_constants == tuple(2 * c for c in profile.scaled_level_constants)
