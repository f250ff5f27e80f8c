"""Results that must not depend on the choice of generic circle: the Betti
numbers, the per-degree hard Lefschetz ranks and the top integral of the
symplectic class, with the canonical classes agreeing with the global oracle
at every circle."""
import pytest

from gkmlef import (abbv_integrate, betti, canonical_classes,
                    canonical_classes_global, catalog, cup_power,
                    equivariant_symplectic_class, hard_lefschetz_check,
                    kirwan_reduce, parse_gkm, restrict_to_circle)


@pytest.mark.parametrize("name, circles, top_integral", [
    ("su3", [(-1, 1), (1, 2), (3, -1)], 6),
    ("so5", [(-1, 3), (3, 1)], 2),
    ("cp3", [(1, 2, 3), (3, -1, 2)], 1),
    ("hirzebruch1", [(1, 2), (4, 1), (-3, -1)], 5),
], ids=["su3", "so5", "cp3", "hirzebruch1"])
def test_invariants_do_not_depend_on_the_circle(name, circles, top_integral):
    graph = parse_gkm(catalog.get(name).document)
    seen = set()
    for xi in circles:
        profile = restrict_to_circle(graph, xi)
        basis = canonical_classes(graph, profile)
        oracle = canonical_classes_global(graph, profile)
        assert basis.alpha == oracle.alpha and basis.beta == oracle.beta, xi
        ranks = [d.rank for d in hard_lefschetz_check(kirwan_reduce(basis)).degrees]
        omega = equivariant_symplectic_class(profile)
        assert abbv_integrate(cup_power(omega, profile.n), profile) == top_integral, xi
        seen.add((tuple(betti(profile)), tuple(ranks)))
    assert len(seen) == 1, seen
