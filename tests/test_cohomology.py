from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from gkmlef import (abbv_integrate, canonical_classes, canonical_classes_global,
                    catalog, cup, cup_power, equivariant_symplectic_class, exact,
                    expand_in_basis, kirwan_reduce, parse_gkm,
                    restrict_to_circle)
from gkmlef.cohomology import (CircleClass, ExpansionError,
                               NonPolynomialError, circle_annihilator,
                               congruence_space, constant_class,
                               localization_pairing_invertible)
from gkmlef.exact import mat_vec, matrix_rank, monomial_exponents, solve_affine
from gkmlef.model import GkmGraph

F = Fraction


# -- membership -------------------------------------------------------------
# A degree-d torus tuple is one coefficient per (vertex, monomial), in the
# columns of congruence_space: vertex i, monomial j sits at i * M + j.

def _coefficients(graph, d, polys):
    """Sparse column vector of {vertex id: {exponent: coefficient}}."""
    monos = monomial_exponents(graph.rank, d)
    return {i * len(monos) + j: F(polys[v.id][m])
            for i, v in enumerate(graph.vertices)
            for j, m in enumerate(monos) if polys[v.id].get(m)}


def _values_at(graph, d, vec, point):
    """{vertex id: value at t = point} of a sparse column vector."""
    monos = monomial_exponents(graph.rank, d)
    values = {v.id: F(0) for v in graph.vertices}
    for col, c in vec.items():
        mono = monos[col % len(monos)]
        values[graph.vertices[col // len(monos)].id] += c * prod(
            F(x) ** e for x, e in zip(point, mono))
    return values


def _in_span(graph, d, polys):
    ncols = len(graph.vertices) * len(monomial_exponents(graph.rank, d))
    space = [[b.get(c, F(0)) for c in range(ncols)] for b in congruence_space(graph, d)]
    vec = _coefficients(graph, d, polys)
    return matrix_rank(space + [[vec.get(c, F(0)) for c in range(ncols)]]) == len(space)


def test_constant_tuple_is_member(su3):
    _, graph, _ = su3
    assert _in_span(graph, 0, {v.id: {(0, 0): 1} for v in graph.vertices})


def test_position_pairing_is_member(su3):
    _, graph, _ = su3
    assert _in_span(graph, 1, {v.id: {(1, 0): v.position[0], (0, 1): v.position[1]}
                               for v in graph.vertices})


def test_indicator_is_not_member(su3):
    _, graph, _ = su3
    polys = {v.id: {} for v in graph.vertices}
    polys["A"] = {(0, 0): 1}
    assert not _in_span(graph, 0, polys)


SPACES = ["su3", "cp3", "sphere_product2", "hirzebruch1"]


@pytest.mark.parametrize("name", SPACES)
def test_congruence_space_dimension(name):
    # equivariant formality: degree d is free over the polynomial ring in r
    # variables on one generator of degree k per unit of b_2k, k <= d
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    b, r = entry.expected["betti"], graph.rank
    for d in range(graph.n + 1):
        expected = sum(b[2 * k] * comb(r + d - k - 1, d - k) for k in range(d + 1))
        assert len(congruence_space(graph, d)) == expected, d


def _kernel_points(weight, d):
    """The principal lattice of order d on the hyperplane weight . t = 0: the
    points sum a_j k_j with a_j >= 0 and sum a_j = d, over the kernel basis
    k_j = weight[p] e_j - weight[j] e_p (j != p).  A degree-d form vanishes on
    the hyperplane exactly when it vanishes at all of them."""
    r = len(weight)
    p = next(i for i, a in enumerate(weight) if a)
    kernel = [[weight[p] if i == j else -weight[j] if i == p else 0 for i in range(r)]
              for j in range(r) if j != p]
    return [[sum(kernel[j][i] for j in combo) for i in range(r)]
            for combo in combinations_with_replacement(range(r - 1), d)]


@pytest.mark.parametrize("name", SPACES)
def test_congruence_space_edge_check(name):
    graph = parse_gkm(catalog.get(name).document)
    for d in range(graph.n + 1):
        for e in graph.edges:
            points = _kernel_points(e.weight, d)
            assert len(points) == comb(graph.rank + d - 2, d)
            for b in congruence_space(graph, d):
                for point in points:
                    values = _values_at(graph, d, b, point)
                    assert values[e.v] == values[e.w], (d, e, point)


@pytest.mark.parametrize("name", ["su3", "so5", "cp3", "cp4", "sphere_product3", "hirzebruch1"])
def test_modular_elimination_certified_on_catalog(name, monkeypatch, cold_congruence_cache):
    # every elimination behind the canonical classes is certified mod P, and
    # the Fraction fallback, when forced, gives the same spaces and classes
    entry = catalog.get(name)
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, entry.default_xi)
    rational = []
    rref = exact._rref

    def counting(mat, ncols):
        rational.append(ncols)
        return rref(mat, ncols)

    monkeypatch.setattr(exact, "_rref", counting)
    basis = canonical_classes(graph, profile)
    assert rational == []
    degrees = range(graph.n + 1)
    spaces = [[list(b.items()) for b in congruence_space(graph, d)] for d in degrees]
    annihilators = [circle_annihilator(graph, d, profile.xi) for d in degrees]

    congruence_space.cache_clear()
    monkeypatch.setattr(exact, "_annihilates", lambda mat, vecs: False)
    assert [[list(b.items()) for b in congruence_space(graph, d)] for d in degrees] == spaces
    assert [circle_annihilator(graph, d, profile.xi) for d in degrees] == annihilators
    fallback = canonical_classes(graph, profile)
    assert rational
    assert fallback.order == basis.order
    for f in basis.order:
        assert fallback.alpha[f].values == basis.alpha[f].values, f
        assert fallback.beta[f].values == basis.beta[f].values, f


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
    # a canonical class keeps only its circle values: it has a lift in the
    # congruence space whose values at xi are the class
    _, graph, profile = su3
    for f in su3_basis.order:
        d = profile.index[f] // 2
        alpha = su3_basis.alpha[f]
        space = congruence_space(graph, d)
        at_xi = [_values_at(graph, d, b, profile.xi) for b in space]
        mat = [[values[v.id] for values in at_xi] for v in graph.vertices]
        sol = solve_affine(mat, [alpha.at(v.id) for v in graph.vertices])
        assert sol is not None, f
        lift = {}
        for c, b in zip(sol[0], space):
            for col, x in b.items():
                lift[col] = lift.get(col, F(0)) + c * x
        values = _values_at(graph, d, lift, profile.xi)
        assert all(values[v.id] == alpha.at(v.id) for v in graph.vertices), f


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
