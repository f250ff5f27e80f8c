"""Results that must not depend on the choice of generic circle: the Betti
numbers, the per-degree hard Lefschetz ranks and the top integral of the
symplectic class, with the canonical classes agreeing with the global oracle
at every circle."""
import json
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmlef import (abbv_integrate, analysis, betti, canonical_classes,
                    canonical_classes_global, catalog, cup_power,
                    equivariant_symplectic_class, hard_lefschetz_check,
                    kirwan_reduce, lefschetz, parse_gkm, restrict_to_circle)
from gkmlef.cohomology import localization_pairing_invertible
from gkmlef.exact import format_rational, parse_rational

TOP_INTEGRAL = {"su3": 6, "so5": 2, "cp3": 1, "hirzebruch1": 5}  # of omega^n


def _invariants(graph, xi):
    """(Betti numbers, per-degree HL ranks, top integral) at the circle xi,
    after checking the canonical classes against the global oracle there."""
    profile = restrict_to_circle(graph, xi)
    basis = canonical_classes(graph, profile)
    oracle = canonical_classes_global(graph, profile)
    assert basis.alpha == oracle.alpha and basis.beta == oracle.beta, xi
    ranks = [d.rank for d in hard_lefschetz_check(kirwan_reduce(basis)).degrees]
    omega = equivariant_symplectic_class(profile)
    return (tuple(betti(profile)), tuple(ranks),
            abbv_integrate(cup_power(omega, profile.n), profile))


@pytest.mark.parametrize("name, circles", [
    ("su3", [(-1, 1), (1, 2), (3, -1)]),
    ("so5", [(-1, 3), (3, 1)]),
    ("cp3", [(1, 2, 3), (3, -1, 2)]),
    ("hirzebruch1", [(1, 2), (4, 1), (-3, -1)]),
], ids=["su3", "so5", "cp3", "hirzebruch1"])
def test_invariants_do_not_depend_on_the_circle(name, circles):
    graph = parse_gkm(catalog.get(name).document)
    seen = set()
    for xi in circles:
        betti_numbers, ranks, integral = _invariants(graph, xi)
        assert integral == TOP_INTEGRAL[name], xi
        seen.add((betti_numbers, ranks))
    assert len(seen) == 1, seen


@cache
def _default_ranks(name):
    entry = catalog.get(name)
    return _invariants(parse_gkm(entry.document), entry.default_xi)[1]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(TOP_INTEGRAL)), st.data())
def test_invariants_at_random_generic_circles(name, data):
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    xi = data.draw(st.tuples(*[st.integers(-4, 4)] * graph.rank), label="xi")
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    betti_numbers, ranks, integral = _invariants(graph, xi)
    assert list(betti_numbers) == entry.expected["betti"], xi
    assert ranks == _default_ranks(name), xi
    assert integral == TOP_INTEGRAL[name], xi


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(TOP_INTEGRAL)), st.data())
def test_zero_class_certificate_at_random_generic_circles(zeroclass_by_rank, name, data):
    # Poincare duality: every localization pairing is invertible, so both
    # zero-class sides are certified and equal the exact rank
    graph = parse_gkm(catalog.get(name).document)
    xi = data.draw(st.tuples(*[st.integers(-4, 4)] * graph.rank), label="xi")
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    report, _ = analysis.analyze(graph, xi)
    n = graph.n
    basis = canonical_classes(graph, restrict_to_circle(graph, xi))
    pairings = localization_pairing_invertible(basis)
    assert list(report["localization"]["pairing_invertible"].values()) == list(pairings)
    assert all(pairings), xi
    written = [e for e in report["lemmas"] if e["name"].startswith("zero-class")]
    assert written == [e for k in range(n + 1) for e in zeroclass_by_rank(basis, k)], xi
    ring = kirwan_reduce(basis)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lefschetz, "matrix_rank", lambda mat: calls.append(mat))
        replayed = [e for k in range(n + 1)
                    for e in lefschetz.verify_zeroclass(ring, k, pairings)]
    assert replayed == written and calls == [], xi


# A unimodular change of lattice basis: weights and positions map by SHEAR and
# circles by its inverse transpose, so every pairing, moment value and circle
# value is unchanged.  Sheared weights such as (2, 1) do not lead with +-1, so
# their congruence rows have denominators to clear.
SHEAR = ((2, 1), (1, 1))
SHEAR_INV_T = ((1, -1), (-1, 2))


def _apply(matrix, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


@pytest.mark.parametrize("name", ["su3", "so5", "hirzebruch1"])
def test_change_of_lattice_basis_keeps_the_classes(name):
    entry = catalog.get(name)
    doc = json.loads(entry.document)
    for v in doc["vertices"]:
        position = [parse_rational(x) for x in v["position"]]
        v["position"] = [format_rational(x) for x in _apply(SHEAR, position)]
    for e in doc["edges"]:
        e["weight"] = _apply(SHEAR, e["weight"])
    graph, sheared = parse_gkm(entry.document), parse_gkm(json.dumps(doc))
    xi, sheared_xi = entry.default_xi, _apply(SHEAR_INV_T, entry.default_xi)
    basis = canonical_classes(graph, restrict_to_circle(graph, xi))
    other = canonical_classes(sheared, restrict_to_circle(sheared, sheared_xi))
    assert other.order == basis.order
    assert other.alpha == basis.alpha and other.beta == basis.beta
    assert _invariants(sheared, sheared_xi) == _invariants(graph, xi)
