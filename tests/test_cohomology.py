from fractions import Fraction

import pytest

from gkmlef import (abbv_integrate, canonical_classes, canonical_classes_global,
                    catalog, cup, cup_power, equivariant_symplectic_class,
                    expand_in_basis, is_member, kirwan_reduce, parse_gkm,
                    restrict_to_circle)
from gkmlef.cohomology import (CircleClass, ExpansionError,
                               NonPolynomialError, circle_annihilator,
                               congruence_space, constant_class,
                               localization_pairing_invertible)
from gkmlef.exact import TorusPoly, mat_vec, solve_affine
from gkmlef.model import GkmGraph

F = Fraction


# -- membership -------------------------------------------------------------

def test_constant_tuple_is_member(su3):
    _, graph, _ = su3
    ones = {v.id: TorusPoly.constant(graph.rank, 1) for v in graph.vertices}
    assert is_member(graph, ones)


def test_position_pairing_is_member(su3):
    _, graph, _ = su3
    forms = {v.id: TorusPoly.linear_form(v.position) for v in graph.vertices}
    assert is_member(graph, forms)


def test_indicator_is_not_member(su3):
    _, graph, _ = su3
    polys = {v.id: TorusPoly(graph.rank) for v in graph.vertices}
    polys["A"] = TorusPoly.constant(graph.rank, 1)
    assert not is_member(graph, polys)


# -- cup product ------------------------------------------------------------

def test_cup_unit(su3, su3_basis):
    _, graph, _ = su3
    one = constant_class(graph)
    x = su3_basis.alpha["B"]
    assert cup(one, x) == x


def test_cup_betas_vanish_at_minimum(su3, su3_basis):
    _, _, profile = su3
    for f in ("B", "C", "D"):
        for g in ("C", "E", "F"):
            prod = cup(su3_basis.beta[f], su3_basis.beta[g])
            assert prod.at(profile.min_vertex) == 0


def test_cp1_symplectic_square(cp1):
    _, graph, profile = cp1
    omega = equivariant_symplectic_class(profile)  # mu = (0, 1)
    assert omega.degree == 2
    assert omega.at("p0") == 0
    assert omega.at("p1") == -1  # -u
    square = cup(omega, omega)
    assert square.degree == 4
    assert square.at("p0") == 0
    assert square.at("p1") == 1  # u^2


# -- localization -----------------------------------------------------------

def test_abbv_degree_rule_cp1(cp1):
    _, graph, profile = cp1
    assert abbv_integrate(constant_class(graph), profile) == 0


def test_abbv_cp1_area(cp1):
    _, graph, profile = cp1
    omega = equivariant_symplectic_class(profile)
    assert abbv_integrate(omega, profile) == 1


def test_abbv_su3_volume(su3):
    _, graph, profile = su3
    omega = equivariant_symplectic_class(profile, shift=profile.min_value())
    # value frozen from the six-term localization sum computed by hand
    assert abbv_integrate(cup_power(omega, 3), profile) == 6


def test_abbv_low_degree_always_zero(su3, su3_basis):
    _, graph, profile = su3
    for f in su3_basis.order:
        if profile.index[f] < 2 * profile.n:
            assert abbv_integrate(su3_basis.alpha[f], profile) == 0


def test_abbv_rejects_fake_class(cp1):
    _, graph, profile = cp1
    fake = CircleClass(graph, 0, {"p0": F(1), "p1": F(0)})
    with pytest.raises(NonPolynomialError):
        abbv_integrate(fake, profile)


# -- canonical classes ------------------------------------------------------

def test_minimum_class_is_unit(su3, su3_basis, cp1, cp1_basis):
    for (_, graph, profile), basis in ((su3, su3_basis), (cp1, cp1_basis)):
        alpha0 = basis.alpha[profile.min_vertex]
        assert alpha0 == constant_class(graph)


def test_cp1_north_class(cp1, cp1_basis):
    assert cp1_basis.alpha["p1"].degree == 2
    assert cp1_basis.alpha["p1"].at("p0") == 0
    assert cp1_basis.alpha["p1"].at("p1") == -1  # -u


SU3_ALPHA = {
    # restrictions frozen from the global brute-force solve; rationals * u^(k/2)
    "A": {"A": 1, "B": 1, "C": 1, "D": 1, "E": 1, "F": 1},
    "B": {"A": 0, "B": -1, "C": 0, "D": -1, "E": -2, "F": -2},
    "C": {"A": 0, "B": 0, "C": -1, "D": -2, "E": -1, "F": -2},
    "D": {"A": 0, "B": 0, "C": 0, "D": 2, "E": 0, "F": 2},
    "E": {"A": 0, "B": 0, "C": 0, "D": 0, "E": 2, "F": 2},
    "F": {"A": 0, "B": 0, "C": 0, "D": 0, "E": 0, "F": -2},
}


def test_su3_degree2_classes_frozen(su3, su3_basis):
    _, _, profile = su3
    for f, expected in SU3_ALPHA.items():
        assert su3_basis.alpha[f].degree == profile.index[f]
        for v, c in expected.items():
            assert su3_basis.alpha[f].at(v) == c, (f, v)


def test_oracle_equivalence_all_catalog():
    for name in catalog.names():
        entry = catalog.get(name)
        graph = parse_gkm(entry.document)
        profile = restrict_to_circle(graph, entry.default_xi)
        tri = canonical_classes(graph, profile)
        glo = canonical_classes_global(graph, profile)
        for f in tri.order:
            assert tri.alpha[f] == glo.alpha[f], (name, f)


def test_constructed_classes_are_members(su3, su3_basis):
    # a canonical class keeps only its circle values: rebuild a torus lift
    # from the congruence space and check the GKM congruences on it
    _, graph, profile = su3
    for f in su3_basis.order:
        d = profile.index[f] // 2
        alpha = su3_basis.alpha[f]
        space = congruence_space(graph, d)
        mat = [[b[v.id].evaluate(profile.xi) for b in space] for v in graph.vertices]
        sol = solve_affine(mat, [alpha.at(v.id) for v in graph.vertices])
        assert sol is not None, f
        lift = {v.id: sum((c * b[v.id] for c, b in zip(sol[0], space)),
                          TorusPoly(graph.rank))
                for v in graph.vertices}
        assert is_member(graph, lift), f
        assert all(p.evaluate(profile.xi) == alpha.at(v) for v, p in lift.items()), f


def test_circle_annihilator_cuts_out_the_circle_image(su3, su3_basis):
    # in degree 2d the circle image is spanned by the beta_F of index <= 2d
    _, graph, profile = su3
    for d in range(profile.n + 1):
        rows = circle_annihilator(graph, d, profile.xi)
        below = [f for f in su3_basis.order if profile.index[f] <= 2 * d]
        assert len(rows) == len(graph.vertices) - len(below), d
        for f in below:
            y = [su3_basis.beta[f].at(v.id) for v in graph.vertices]
            assert not any(mat_vec(rows, y)), (d, f)


def test_triangularity(su3, su3_basis):
    _, _, profile = su3
    order = su3_basis.order
    for i, f in enumerate(order):
        assert su3_basis.beta[f].degree == profile.index[f]
        assert su3_basis.beta[f].at(f) == 1
        for g in order[:i]:
            assert su3_basis.beta[f].at(g) == 0


def test_uniqueness_under_vertex_permutation(su3):
    entry, graph, profile = su3
    reordered = GkmGraph(graph.rank, graph.dimension,
                         tuple(reversed(graph.vertices)),
                         tuple(reversed(graph.edges)))
    profile2 = restrict_to_circle(reordered, entry.default_xi)
    basis1 = canonical_classes(graph, profile)
    basis2 = canonical_classes(reordered, profile2)
    for f in basis1.order:
        for v in profile.mu:
            assert basis1.alpha[f].at(v) == basis2.alpha[f].at(v)


# -- symplectic class and expansion ----------------------------------------

def test_symplectic_class_restrictions(su3):
    _, _, profile = su3
    cls = equivariant_symplectic_class(profile, shift=F(-1))
    for v in profile.level(1):
        assert cls.at(v) == 0  # shift by c_2 kills the index-2 level
    cls0 = equivariant_symplectic_class(profile, shift=profile.min_value())
    assert cls0.at(profile.min_vertex) == 0


def test_expand_basis_element(su3_basis):
    coeffs = expand_in_basis(su3_basis.beta["D"], su3_basis)
    for f, c in coeffs.items():
        assert c == (1 if f == "D" else 0)


def test_expand_symplectic_su3(su3, su3_basis):
    _, _, profile = su3
    omega = equivariant_symplectic_class(profile, shift=profile.min_value())
    coeffs = expand_in_basis(omega, su3_basis)
    assert coeffs["A"] == 0  # a0 = 0 at the minimum
    # both index-2 coefficients equal -c_2 after min-normalization (c_2 = 1)
    assert coeffs["B"] == -1
    assert coeffs["C"] == -1


def test_expand_rejects_nonclass(su3, su3_basis):
    _, graph, _ = su3
    bogus = CircleClass(graph, 0, {v.id: F(1 if v.id == "F" else 0)
                                   for v in graph.vertices})
    with pytest.raises(ExpansionError):
        expand_in_basis(bogus, su3_basis)


# -- Kirwan reduction -------------------------------------------------------

def test_ring_unit(su3_ring):
    top = "F"
    assert su3_ring.multiply({"A": F(1)}, {top: F(1)}) == {top: F(1)}


def test_cp1_square_truncates(cp1_basis):
    ring = kirwan_reduce(cp1_basis)
    assert ring.multiply({"p1": F(1)}, {"p1": F(1)}) == {}


def test_su3_structure_constants_frozen(su3_ring):
    # degree-2 x degree-2 products expanded over the two degree-4 classes
    assert su3_ring.table[("B", "B")] == {"E": F(2)}
    assert su3_ring.table[("B", "C")] == {"D": F(2), "E": F(2)}
    assert su3_ring.table[("C", "C")] == {"D": F(2)}
    assert su3_ring.omega == {"B": F(-1), "C": F(-1)}


def test_su3_structure_constants_against_pairings(su3, su3_basis, su3_ring):
    # cross-check the reduced products against localization pairings with the
    # top class: <x*y, beta_top-dual> realized as integrals of triple products
    _, _, profile = su3
    for (f, g), expansion in [(("B", "B"), {"E": 2}), (("C", "C"), {"D": 2})]:
        prod = cup(su3_basis.beta[f], su3_basis.beta[g])
        for b2 in ("B", "C"):
            lhs = abbv_integrate(cup(prod, su3_basis.beta[b2]), profile)
            rhs = sum(F(cv) * abbv_integrate(
                cup(su3_basis.beta[hv], su3_basis.beta[b2]), profile)
                for hv, cv in expansion.items())
            assert lhs == rhs


def test_localization_pairing_invertible(su3_basis, cp1_basis):
    for basis in (su3_basis, cp1_basis):
        n = basis.profile.n
        for k in range(n + 1):
            assert localization_pairing_invertible(basis, 2 * k)
