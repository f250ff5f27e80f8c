import dataclasses
import logging
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmlef import (abbv_integrate, analysis, canonical_classes, catalog, check_hypothesis,
                    cohomology, cup, cup_power, equivariant_symplectic_class,
                    hard_lefschetz_check, kirwan_reduce, lefschetz, parse_gkm,
                    restrict_to_circle, semifree_monotone_analysis,
                    verify_distinct, verify_symp_expansion, verify_vanish,
                    verify_zeroclass)
from gkmlef.cohomology import CircleClass, localization_pairing_invertible
from gkmlef.exact import matrix_rank
from gkmlef.lefschetz import (_scaled_top_products, delta_certificate, delta_certificates,
                              multiplication_matrix, proof_chain)

F = Fraction


def pipeline(name, xi=None):
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, xi or entry.default_xi)
    basis = canonical_classes(graph, profile)
    return profile, basis, kirwan_reduce(basis)


def test_hl_su3(su3_ring):
    report = hard_lefschetz_check(su3_ring)
    assert report.holds
    deg2 = report.degrees[2]
    assert (deg2.source_dim, deg2.target_dim, deg2.rank) == (2, 2, 2)
    assert report.degrees[1].vacuous and report.degrees[3].vacuous


def test_hl_cp3():
    _, _, ring = pipeline("cp3")
    report = hard_lefschetz_check(ring)
    assert report.holds
    for d in report.degrees:
        if not d.vacuous:
            assert (d.source_dim, d.rank) == (1, 1)


def test_hl_degree0_matches_localization(su3, su3_basis, su3_ring):
    _, _, profile = su3
    n = profile.n
    # [omega]^n as a multiple of the top reduced class, integrated
    (top,) = profile.level(n)
    omega_n = su3_ring.lefschetz_power({su3_ring.labels[0]: 1}, n)  # from the unit
    assert set(omega_n) == {top}
    integral_ring = F(omega_n[top], su3_ring.scale ** n * profile.negative_weight_product(top))
    omega_t = equivariant_symplectic_class(profile, shift=profile.mu[profile.min_vertex])
    integral_loc = abbv_integrate(cup_power(omega_t, n), profile)
    assert integral_ring == integral_loc == 6


def test_rank_symmetry(su3, su3_basis, su3_ring):
    # the rank of omega^(n-k) on degree k is the rank of the localization
    # pairing <x, omega^(n-k) y> on the degree-k classes
    _, _, profile = su3
    n, beta = profile.n, su3_basis.beta
    omega_t = equivariant_symplectic_class(profile, shift=profile.mu[profile.min_vertex])
    for k in range(0, n + 1, 2):
        source, _, mat = multiplication_matrix(su3_ring, k, n - k)
        wpow = cup_power(omega_t, n - k)
        pairing = [[abbv_integrate(cup(cup(beta[x], wpow), beta[y]), profile) for y in source]
                   for x in source]
        assert matrix_rank(mat) == matrix_rank(pairing), k


def test_lemma_symp_expansion_cp1(cp1, cp1_basis):
    _, _, profile = cp1
    entry = verify_symp_expansion(profile, kirwan_reduce(cp1_basis))
    assert entry["applicable"] and entry["pass"]


def test_lemma_symp_expansion_su3(su3, su3_ring):
    _, _, profile = su3
    entry = verify_symp_expansion(profile, su3_ring)
    assert entry["applicable"] and entry["pass"]
    assert "-1" in entry["detail"]  # both index-2 coefficients are -c_2 = -1


def test_lemma_vanish(su3, so5):
    _, _, p_su3 = su3
    entry = verify_vanish(p_su3, 1)
    assert entry["pass"]
    _, _, p_so5 = so5
    assert verify_vanish(p_so5, 2)["pass"]


def test_shifted_class_nonzero_off_level(su3):
    _, _, profile = su3
    cls = equivariant_symplectic_class(profile, shift=profile.level_constants()[1])
    for v in profile.level(2):
        assert cls.degree == 2 and cls.at(v) == -2  # -2u


def test_lemma_distinct(su3, so5):
    for _, _, profile in (su3, so5):
        entry = verify_distinct(profile)
        assert entry["applicable"] and entry["pass"]


def test_lemma_distinct_cup_count(su3, monkeypatch):
    # the n + 1 products omitting one shifted class are integer products at
    # each vertex, from prefix and suffix products: no cup, no class built
    _, _, profile = su3
    calls = []
    cup = cohomology.cup
    monkeypatch.setattr(cohomology, "cup", lambda a, b: calls.append(1) or cup(a, b))
    build = cohomology.equivariant_symplectic_class
    monkeypatch.setattr(cohomology, "equivariant_symplectic_class",
                        lambda *args, **kwargs: calls.append(2) or build(*args, **kwargs))
    init = CircleClass.__init__
    monkeypatch.setattr(CircleClass, "__init__",
                        lambda cls, *args: calls.append(3) or init(cls, *args))
    entry = verify_distinct(profile)
    assert entry["pass"] and "top-product integral 6" in entry["detail"]
    assert calls == []


def test_lemma_distinct_flags_synthetic_equality(so5):
    # collapse two level values by an equality-inducing relabel of mu: build a
    # profile-like object via dataclass replacement
    import dataclasses
    _, _, profile = so5
    scaled = dict(profile.scaled_mu)
    scaled["P"] = scaled["S"]  # index-0 and index-2 constants now coincide
    fake = dataclasses.replace(profile, scaled_mu=scaled)
    entry = verify_distinct(fake)
    assert entry["applicable"] and entry["pass"] is False
    assert "cannot arise" in entry["detail"]


def test_lemma_zeroclass(su3_basis, su3_ring, so5):
    entry, _ = verify_zeroclass(su3_ring, 1, localization_pairing_invertible(su3_basis))
    assert entry["name"] == "zero-class(k=1,low)" and entry["pass"]
    assert "dimension 3" in entry["detail"]
    assert verify_zeroclass(su3_ring, 0, localization_pairing_invertible(su3_basis))[0]["pass"]
    _, graph, profile = so5
    basis = canonical_classes(graph, profile)
    _, entry = verify_zeroclass(kirwan_reduce(basis), 2, localization_pairing_invertible(basis))
    assert entry["name"] == "zero-class(k=2,high)" and entry["pass"]


def _assert_multiplication_matrices_are_the_table_route(profile, basis, ring):
    """Each multiplication_matrix(ring, k, m) holds scale^m times the
    expansions at u = 0 of the products beta_s w^m over the degree-k classes
    s, w the symplectic class shifted by the minimum value."""
    w = equivariant_symplectic_class(profile, shift=profile.mu[profile.min_vertex])
    for m in range(ring.n + 1):
        wpow = cup_power(w, m)
        for k in range(0, 2 * (ring.n - m) + 1, 2):
            source, target, mat = multiplication_matrix(ring, k, m)
            products = [cohomology._at_u0(cup(basis.beta[s], wpow), basis) for s in source]
            assert mat == [[ring.scale ** m * p.get(t, 0) for t in target]
                           for p in products], (profile.xi, k, m)


MULTIPLICATION_NAMES = ["su3", "so5", "cp4", "hirzebruch1", "sphere_product3"]


@pytest.mark.parametrize("name", MULTIPLICATION_NAMES + ["sphere_product4"])
def test_multiplication_matrix_by_lefschetz_equals_the_table_route(name):
    _assert_multiplication_matrices_are_the_table_route(*pipeline(name))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MULTIPLICATION_NAMES), st.data())
def test_multiplication_matrix_by_lefschetz_equals_the_table_route_at_random_circles(name, data):
    graph = parse_gkm(catalog.get(name).document)
    xi = data.draw(st.tuples(*[st.integers(-4, 4)] * graph.rank), label="xi")
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    _assert_multiplication_matrices_are_the_table_route(*pipeline(name, xi))


def _counting_ranks(monkeypatch):
    calls = []
    rank = lefschetz.matrix_rank
    monkeypatch.setattr(lefschetz, "matrix_rank", lambda mat: calls.append(mat) or rank(mat))
    return calls


@pytest.mark.parametrize("name", ["su3", "so5", "cp3", "cp4", "hirzebruch1",
                                  "sphere_product3", "sphere_product4"])
def test_zeroclass_low_side_certified_by_support(name, monkeypatch, caplog,
                                                 zeroclass_by_rank):
    # every entry equals the one the rank of the whole matrix gives; support
    # certifies the low side, support and the pairings the high side
    profile, basis, ring = pipeline(name)
    expected = [zeroclass_by_rank(basis, k) for k in range(profile.n + 1)]
    pairings = localization_pairing_invertible(basis)
    ranks = _counting_ranks(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    assert [verify_zeroclass(ring, k, pairings) for k in range(profile.n + 1)] == expected
    assert len(ranks) == 0 and caplog.records == []


@pytest.mark.parametrize("name", ["cp3", "sphere_product3"])
def test_zeroclass_high_side_falls_back_from_a_singular_pairing(name, monkeypatch, caplog,
                                                               zeroclass_by_rank):
    # a singular degree-2j pairing uncertifies the high sides of k >= j only
    profile, basis, ring = pipeline(name)
    n = profile.n
    expected = [zeroclass_by_rank(basis, k) for k in range(n + 1)]
    invertible = localization_pairing_invertible(basis)
    assert all(invertible)
    ranks = _counting_ranks(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    for j in range(n + 1):
        pairings = list(invertible)
        pairings[j] = False
        for k in range(n + 1):
            ranks.clear()
            caplog.clear()
            assert verify_zeroclass(ring, k, pairings) == expected[k]
            assert len(ranks) == (k >= j), (j, k)
            assert [r.getMessage() for r in caplog.records] == (
                ["zero-class(k=%d,high) not certified (the degree-%d localization "
                 "pairing is singular); taking the exact rank" % (k, 2 * j)] if k >= j else [])


def _delta_by_cup(basis, profile, gamma, k):
    """delta_certificate's entry by the cup route: delta = gamma times the
    symplectic classes shifted by c_2k .. c_(2n-2k-2), each restriction
    checked against the vanishing and the product formula."""
    n, name = profile.n, "delta-certificate(k=%d)" % k
    cs = profile.level_constants()
    if any(c is None for c in cs):
        return {"name": name, "applicable": False, "pass": None,
                "detail": "level constants undefined"}
    delta = gamma
    for j in range(k, n - k):
        delta = cup(delta, equivariant_symplectic_class(profile, shift=cs[j]))
    low_ok = all(delta.at(v) == 0 for v in basis.order if profile.index[v] < 2 * (n - k))
    formula_ok = all(delta.at(v) == gamma.at(v) * prod(cs[j] - profile.mu[v]
                                                       for j in range(k, n - k))
                     for v in basis.order if profile.index[v] >= 2 * (n - k))
    return {"name": name, "applicable": True, "pass": low_ok and formula_ok,
            "detail": "vanishes below index %d: %s; restriction product formula: %s; "
                      "delta nonzero: %s" % (2 * (n - k), low_ok, formula_ok,
                                             any(delta.values.values()))}


def test_delta_certificates_build_each_shifted_class_once(monkeypatch):
    # the verdicts are read off each candidate's support: no shifted class
    # is built and nothing is multiplied, and the entries are the cup route's
    profile, basis, _ = pipeline("sphere_product3")
    expected = [dict(_delta_by_cup(basis, profile, basis.alpha[fid], k), candidate=fid)
                for k in range(profile.n + 1) if 2 * k < profile.n
                for fid in basis.order if profile.index[fid] == 2 * k]
    built = []
    init = CircleClass.__init__
    monkeypatch.setattr(CircleClass, "__init__",
                        lambda cls, *args: built.append(args) or init(cls, *args))
    assert delta_certificates(basis, profile) == expected
    assert built == []
    assert len(expected) > 1  # more candidates than one


@pytest.mark.parametrize("name, applicable", [
    ("sphere_product3", 1), ("sphere_product8", 1),
    ("hirzebruch1", 0),  # exit 2: c_2 is undefined, so the expansion lemma is n/a
])
def test_analyze_builds_no_symplectic_class_and_expands_nothing(name, applicable, monkeypatch):
    # the expansion lemma reads ring.omega
    for module in (analysis, cohomology, lefschetz):
        for attr in ("equivariant_symplectic_class", "expand_in_basis"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, lambda *args, attr=attr, **kwargs:
                                    pytest.fail("analyze called " + attr))
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    report, _ = analysis.analyze(graph, entry.default_xi)
    (expansion,) = [e for e in report["lemmas"] if e["name"] == "symplectic-expansion"]
    assert (expansion["applicable"], expansion["pass"]) == \
        ((True, True) if applicable else (False, None))


def test_delta_certificate_zero_candidate(su3, su3_basis):
    _, graph, profile = su3
    zero = CircleClass(graph, 2, {v.id: F(0) for v in graph.vertices})
    entry = delta_certificate(su3_basis, profile, zero, 1)
    assert entry["pass"]
    assert "delta nonzero: False" in entry["detail"]


def test_delta_certificate_su3_combination(su3, su3_basis):
    _, graph, profile = su3
    a, b = su3_basis.alpha["B"], su3_basis.alpha["C"]
    diff = CircleClass(graph, 2, {v.id: a.at(v.id) - b.at(v.id)
                                  for v in graph.vertices})
    entry = delta_certificate(su3_basis, profile, diff, 1)
    assert entry["pass"]
    assert "delta nonzero: True" in entry["detail"]


def test_delta_certificates_all_pass(su3, su3_basis):
    _, _, profile = su3
    entries = delta_certificates(su3_basis, profile)
    assert entries and all(e["pass"] for e in entries)


def test_semifree_sphere_product2():
    entry = catalog.get("sphere_product2")
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, (1, 2))
    result = semifree_monotone_analysis(profile)
    assert result["semifree"] is True
    assert sorted(result["monotone_mu"].values()) == [F(-2), F(0), F(0), F(2)]
    assert result["self_indexing"] is True


def test_semifree_su3_fails(su3):
    _, _, profile = su3
    result = semifree_monotone_analysis(profile)
    assert result["semifree"] is False  # circle weight 2 on the long diagonal
    assert any(2 in ws or -2 in ws for ws in profile.weights.values())


def test_semifree_cp1(cp1):
    _, _, profile = cp1
    result = semifree_monotone_analysis(profile)
    assert result["semifree"] is True
    assert result["self_indexing"] is True
    assert sorted(result["monotone_mu"].values()) == [F(-1), F(1)]


def test_theorem_as_property():
    # every hypothesis-satisfying catalog input satisfies hard Lefschetz
    for name in catalog.names():
        _, basis, ring = pipeline(name)
        if basis.profile.constant_on_levels:
            assert hard_lefschetz_check(ring).holds, name


# -- hard Lefschetz by the paper's proof, against the exact rank --------------

def _proved_and_ranked(graph, xi):
    """(proof_chain's verdict, hard_lefschetz_check given it, the number of
    matrix_rank calls that made, the exact-rank hard_lefschetz_check)."""
    profile = restrict_to_circle(graph, xi)
    basis = canonical_classes(graph, profile)
    ring = kirwan_reduce(basis)
    proved = proof_chain(check_hypothesis(profile), verify_distinct(profile),
                         localization_pairing_invertible(basis))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        rank = lefschetz.matrix_rank
        mp.setattr(lefschetz, "matrix_rank", lambda mat: calls.append(mat) or rank(mat))
        chained = hard_lefschetz_check(ring, proved)
    return proved, chained, len(calls), hard_lefschetz_check(ring)


def _drawn_hypothesis_input(data, homogeneous):
    """A graph and a circle at which the moment map is constant on levels:
    cp(n) at a drawn circle, so5 at a drawn scale, sphere_product(n), or
    Gr(2, 4) or Gr(2, 5) at a drawn circle where the hypothesis holds."""
    family = data.draw(st.sampled_from(["cp", "so5", "sphere_product", "gr2-4", "gr2-5"]),
                       label="family")
    if family in ("gr2-4", "gr2-5"):
        graph = parse_gkm(homogeneous["grassmannian"](2, int(family[-1]))[0])
        xi = tuple(data.draw(st.permutations(range(-3, 4)), label="xi")[:graph.rank])
    elif family == "cp":
        graph = parse_gkm(catalog.get("cp%d" % data.draw(st.integers(1, 5), label="n")).document)
        xi = data.draw(st.tuples(*[st.integers(-5, 5)] * graph.rank), label="xi")
    elif family == "so5":
        scale = F(data.draw(st.integers(1, 9), label="p"), data.draw(st.integers(1, 9), label="q"))
        entry = catalog.get("so5", scale=scale)
        graph, xi = parse_gkm(entry.document), entry.default_xi
    else:
        entry = catalog.get("sphere_product%d" % data.draw(st.integers(1, 5), label="n"))
        graph, xi = parse_gkm(entry.document), entry.default_xi
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    assume(check_hypothesis(restrict_to_circle(graph, xi))["constant_on_levels"])
    return graph, xi


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_proof_chain_equals_the_exact_rank_on_hypothesis_inputs(homogeneous, data):
    # where the hypothesis holds, the rest of the chain holds too, and the
    # ranks it reports without a matrix are the exact ones
    proved, chained, calls, exact = _proved_and_ranked(*_drawn_hypothesis_input(data, homogeneous))
    assert proved and calls == 0
    assert chained == exact and exact.holds


@pytest.mark.parametrize("xi", [(0, 1, 2, 3), (3, -1, 2, -3)])
def test_proof_chain_fails_on_flag4_and_the_ranks_are_taken(homogeneous, xi, caplog):
    # flag4 is the negative control: no hypothesis, so every degree is ranked
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    proved, chained, calls, exact = _proved_and_ranked(
        parse_gkm(homogeneous["flag"](4)[0]), xi)
    assert not proved and calls > 0 and chained == exact
    assert [r.getMessage() for r in caplog.records] == [
        "hard Lefschetz not proved (the moment map is not constant on every level); "
        "taking the exact ranks"]


def _hl_section(ring):
    """The report's hard_lefschetz section, from the exact ranks."""
    hl = hard_lefschetz_check(ring)
    return {"holds": hl.holds,
            "degrees": [{"degree": d.degree, "source_dim": d.source_dim,
                         "target_dim": d.target_dim, "rank": d.rank, "vacuous": d.vacuous,
                         "holds": d.holds} for d in hl.degrees]}


HYPOTHESIS_NAMES = [name for name in catalog.names()
                    if catalog.get(name).expected["constant_on_levels"]]


@pytest.mark.parametrize("name", HYPOTHESIS_NAMES)
def test_analyze_proves_hard_lefschetz_without_a_rank(name, monkeypatch, caplog):
    # every rank in lefschetz is certified: the zero-class sides and HL
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    monkeypatch.setattr(lefschetz, "matrix_rank",
                        lambda mat: pytest.fail("lefschetz took a rank"))
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    report, code = analysis.analyze(graph, entry.default_xi)
    monkeypatch.undo()
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == ["hard Lefschetz proved; no rank taken"]
    assert report["hard_lefschetz"] == _hl_section(pipeline(name)[2])


@pytest.mark.parametrize("name", ["cp3", "sphere_product3"])
def test_analyze_ranks_hard_lefschetz_after_a_singular_pairing(name, monkeypatch, caplog):
    # a pairing doctored singular breaks the chain: HL takes every rank
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    invertible = analysis.localization_pairing_invertible
    monkeypatch.setattr(analysis, "localization_pairing_invertible",
                        lambda basis: (*invertible(basis)[:-1], False))
    ranks = _counting_ranks(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    report, _ = analysis.analyze(graph, entry.default_xi)
    # one rank per HL degree, and one for zero-class(k=n,high), whose pairing
    # is the doctored one
    degrees = [d for d in report["hard_lefschetz"]["degrees"] if not d["vacuous"]]
    assert len(ranks) == len(degrees) + 1
    hl_lines = [r.getMessage() for r in caplog.records if "hard Lefschetz" in r.getMessage()]
    assert hl_lines == ["hard Lefschetz not proved (the degree-%d localization pairing is "
                        "singular); taking the exact ranks" % (2 * graph.n)]
    assert report["hard_lefschetz"] == _hl_section(pipeline(name)[2])


def test_proof_chain_fails_on_equal_level_constants(so5, caplog):
    # the equal constants of test_lemma_distinct_flags_synthetic_equality
    _, _, profile = so5
    basis = canonical_classes(profile.graph, profile)
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    distinct = dict(verify_distinct(profile), **{"pass": False})
    assert not proof_chain(check_hypothesis(profile), distinct,
                           localization_pairing_invertible(basis))
    assert [r.getMessage() for r in caplog.records] == [
        "hard Lefschetz not proved (distinct-level-constants does not pass); "
        "taking the exact ranks"]


def test_proved_hard_lefschetz_ranks_degrees_of_unequal_dimension(monkeypatch, caplog):
    # sphere_product4 with one index-6 vertex moved to index 4, as input that
    # breaks Poincare symmetry would give: dim H^2 = 4 but dim H^6 = 3, so
    # degree 2 is ranked; degrees 0 and 4 keep the proof
    profile, basis, ring = pipeline("sphere_product4")
    moved = next(v for v in basis.order if profile.index[v] == 6)
    doctored_profile = dataclasses.replace(profile, index={**profile.index, moved: 4})
    doctored = dataclasses.replace(
        ring, basis=dataclasses.replace(basis, profile=doctored_profile))
    exact = hard_lefschetz_check(doctored)
    ranks = _counting_ranks(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    proved = hard_lefschetz_check(doctored, True)
    assert len(ranks) == 1
    assert [r.getMessage() for r in caplog.records] == [
        "hard Lefschetz proved, but dim H^k != dim H^(2n-k) for k = 2; "
        "taking the exact rank there"]
    assert [(d.source_dim, d.target_dim) for d in proved.degrees if not d.vacuous] == \
        [(1, 1), (4, 3), (7, 7)]
    assert proved.degrees[2] == exact.degrees[2]
    assert [d.rank for d in proved.degrees if not d.vacuous] == [1, 3, 7]


# -- the integer routes against their Fraction oracles ------------------------

def _drawn_pipeline(data):
    """Profile and canonical basis of a catalog input at its default circle
    or at a drawn generic circle."""
    name = data.draw(st.sampled_from(["su3", "so5", "cp3", "hirzebruch1", "sphere_product3"]),
                     label="name")
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    xi = data.draw(st.one_of(st.just(entry.default_xi),
                             st.tuples(*[st.integers(-4, 4)] * graph.rank)), label="xi")
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    profile = restrict_to_circle(graph, xi)
    return profile, canonical_classes(graph, profile)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hl_ranks_equal_the_fraction_matrix_ranks_at_random_circles(data):
    _, basis = _drawn_pipeline(data)
    ring = kirwan_reduce(basis)
    for d in hard_lefschetz_check(ring).degrees:
        if not d.vacuous:
            source, target, mat = multiplication_matrix(ring, d.degree, ring.n - d.degree)
            assert (d.source_dim, d.target_dim) == (len(source), len(target))
            assert d.rank == (matrix_rank(mat) if source and target else 0), d


def test_hl_rank_of_a_doctored_operator_equals_the_fraction_rank(su3_ring):
    # L(B) = (1/2, 1/3) and L(C) = (3, 2) are proportional: rank 1, not 2;
    # held as ints over the scale 6, the rows are (3, 2) and (18, 12)
    lefschetz = {**su3_ring.lefschetz, "B": {"D": 3, "E": 2}, "C": {"D": 18, "E": 12}}
    doctored = dataclasses.replace(su3_ring, lefschetz=lefschetz, scale=6)
    fractions = [[F(x, 6) for x in row] for row in multiplication_matrix(doctored, 2, 1)[2]]
    assert fractions == [[F(1, 2), F(1, 3)], [F(3), F(2)]]
    assert matrix_rank(fractions) == hard_lefschetz_check(doctored).degrees[2].rank == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_top_product_integrals_equal_the_cup_route_at_random_circles(data):
    # at the level constants where they are defined, or at drawn shifts
    profile, _ = _drawn_pipeline(data)
    n, cs = profile.n, profile.level_constants()
    drawn = st.lists(st.fractions(-5, 5, max_denominator=6), min_size=n + 1, max_size=n + 1)
    consts = data.draw(drawn if None in cs else st.one_of(st.just(cs), drawn), label="consts")
    classes = [equivariant_symplectic_class(profile, shift=c) for c in consts]
    expected = []
    for i in range(n + 1):
        top = cup_power(classes[0], 0)
        for cls in classes[:i] + classes[i + 1:]:
            top = cup(top, cls)
        expected.append(abbv_integrate(top, profile))
    scale = lcm(profile.mu_scale, *(c.denominator for c in consts))
    sums, den = _scaled_top_products(
        profile, [c.numerator * (scale // c.denominator) for c in consts], scale)
    assert [F(x, den) for x in sums] == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_delta_certificates_equal_the_cup_route_at_random_circles(data):
    # every canonical candidate, a drawn integer combination of them, and
    # drawn values (not a class) at the vertices of index >= 2k, per degree
    profile, basis = _drawn_pipeline(data)
    for k in range(profile.n + 1):
        candidates = [f for f in basis.order if profile.index[f] == 2 * k]
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(candidates),
                                    max_size=len(candidates)), label="coefficients")
        mixed = CircleClass(basis.graph, 2 * k, {
            v: sum(c * basis.alpha[f].at(v) for c, f in zip(coeffs, candidates))
            for v in basis.order})
        upper = [v for v in basis.order if profile.index[v] >= 2 * k]
        values = data.draw(st.lists(st.integers(-1, 1), min_size=len(upper),
                                    max_size=len(upper)), label="values")
        drawn = CircleClass(basis.graph, 2 * k, {v: F(x) for v, x in zip(upper, values)})
        for gamma in [basis.alpha[f] for f in candidates] + [mixed, drawn]:
            assert delta_certificate(basis, profile, gamma, k) == \
                _delta_by_cup(basis, profile, gamma, k)
