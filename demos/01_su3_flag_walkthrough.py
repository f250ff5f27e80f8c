"""Walk through the full analysis of the SU(3) coadjoint orbit.

The moment image is a hexagon with three diagonals; six fixed points. Under
the circle selected by xi = (-1, 1) the moment map takes a single value on
each Morse-index level, so the constancy hypothesis holds and the hard
Lefschetz property follows. Every step below is exact rational arithmetic.
"""
from gkmlef import (abbv_integrate, betti, canonical_classes, catalog,
                    check_hypothesis, cup_power, equivariant_symplectic_class,
                    hard_lefschetz_check, kirwan_reduce, parse_gkm,
                    restrict_to_circle)

entry = catalog.get("su3")
graph = parse_gkm(entry.document)
print("vertices:", [v.id for v in graph.vertices])

profile = restrict_to_circle(graph, (-1, 1))
print("\nmoment values and Morse indices:")
for vid in sorted(profile.mu):
    print("  %s: mu = %s, index = %d, circle weights %s"
          % (vid, profile.mu[vid], profile.index[vid], profile.weights[vid]))

print("\nBetti numbers:", betti(profile))
print("hypothesis:", check_hypothesis(profile))

basis = canonical_classes(graph, profile)
print("\ncanonical classes in ascending moment order; alpha_F restricts to")
print("c * u^(index(F)/2) at each fixed point, and c is listed per point:")
for fid in basis.order:
    print("  alpha_%s (index %d):" % (fid, profile.index[fid]),
          {v: str(basis.alpha[fid].at(v)) for v in sorted(profile.mu)})

omega = equivariant_symplectic_class(profile, shift=profile.mu[profile.min_vertex])
print("\nsymplectic volume (localization):",
      abbv_integrate(cup_power(omega, 3), profile))

ring = kirwan_reduce(basis)
report = hard_lefschetz_check(ring)
print("\nhard Lefschetz:", "holds" if report.holds else "fails")
for d in report.degrees:
    if not d.vacuous:
        print("  degree %d: rank %d of %dx%d" % (d.degree, d.rank,
                                                 d.source_dim, d.target_dim))
