"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All quantities are exact rationals; "tolerance" everywhere is exact equality.
"""
import time
from fractions import Fraction

from gkmlef import (abbv_integrate, betti, canonical_classes,
                    canonical_classes_global, catalog,
                    equivariant_symplectic_class, emit_gkm,
                    hard_lefschetz_check, kirwan_reduce, parse_gkm,
                    restrict_to_circle, self_indexing_normalizer,
                    semifree_monotone_analysis)
from gkmlef.cli import main
from gkmlef.cohomology import localization_pairing_invertible
from gkmlef.lefschetz import (verify_distinct, verify_symp_expansion, verify_vanish,
                              verify_zeroclass)

F = Fraction

HYPOTHESIS_CATALOG = ["su3", "so5", "cp1", "cp2", "cp3",
                      "sphere_product1", "sphere_product2", "sphere_product3"]


def _report(name, ok):
    print("ACCEPTANCE %-40s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok


def _pipeline(name, xi=None, scale=None):
    entry = catalog.get(name, scale=scale)
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, xi or entry.default_xi)
    return entry, graph, profile


def test_criterion_1_su3_reproduction(capsys):
    t0 = time.monotonic()
    _, _, profile = _pipeline("su3", xi=(-1, 1))
    ok = (profile.level_constants() == [F(-2), F(-1), F(1), F(2)]
          and betti(profile) == [1, 0, 2, 0, 2, 0, 1]
          and time.monotonic() - t0 < 1.0)
    with capsys.disabled():
        _report("1 su3 levels and Betti", ok)


def test_criterion_2_so5_reproduction(capsys):
    t0 = time.monotonic()
    _, _, p2 = _pipeline("so5", xi=(-1, 3), scale=2)
    norm2 = self_indexing_normalizer(p2)
    # (mu + 6) / 2 hits (0, 2, 4, 6) = the indices: a self-indexing certificate
    ok = (norm2 == (F(1, 2), F(3))
          and [norm2[0] * c + norm2[1] for c in p2.level_constants()]
          == [F(0), F(2), F(4), F(6)])
    _, _, p1 = _pipeline("so5", xi=(-1, 3), scale=1)
    ok = ok and self_indexing_normalizer(p1) == (F(1), F(3))
    ok = ok and time.monotonic() - t0 < 1.0
    with capsys.disabled():
        _report("2 so5 self-indexing normalizer", ok)


def test_criterion_3_theorem_as_test(capsys):
    t0 = time.monotonic()
    ok = True
    for name in HYPOTHESIS_CATALOG:
        _, graph, profile = _pipeline(name)
        assert profile.constant_on_levels, name
        basis = canonical_classes(graph, profile)
        report = hard_lefschetz_check(kirwan_reduce(basis))
        full = all(d.vacuous or (d.rank == d.source_dim == d.target_dim)
                   for d in report.degrees)
        ok = ok and report.holds and full
    ok = ok and time.monotonic() - t0 < 10.0
    with capsys.disabled():
        _report("3 hard Lefschetz on hypothesis catalog", ok)


def test_criterion_4_lemma_suite(capsys):
    ok = True
    for name in HYPOTHESIS_CATALOG:
        _, graph, profile = _pipeline(name)
        basis = canonical_classes(graph, profile)
        ring = kirwan_reduce(basis)
        entries = [verify_symp_expansion(profile, ring), verify_distinct(profile)]
        for k in range(1, profile.n + 1):
            entries.append(verify_vanish(profile, k))
        pairings = localization_pairing_invertible(basis)
        for k in range(profile.n + 1):
            entries.extend(verify_zeroclass(ring, k, pairings))
        ok = ok and all(e["applicable"] and e["pass"] for e in entries)
    with capsys.disabled():
        _report("4 lemma suite on hypothesis catalog", ok)


def test_criterion_5_oracle_equivalence(capsys):
    ok = True
    for name in catalog.names():
        _, graph, profile = _pipeline(name)
        tri = canonical_classes(graph, profile)
        glo = canonical_classes_global(graph, profile)
        for f in tri.order:
            for v in profile.mu:
                ok = ok and tri.alpha[f].at(v) == glo.alpha[f].at(v)
    with capsys.disabled():
        _report("5 triangular vs global canonical classes", ok)


def test_criterion_6_localization_consistency(capsys):
    ok = True
    # any class of degree < 2n integrates to exactly zero
    for name in catalog.names():
        _, graph, profile = _pipeline(name)
        basis = canonical_classes(graph, profile)
        for f in basis.order:
            if profile.index[f] < 2 * profile.n:
                ok = ok and abbv_integrate(basis.alpha[f], profile) == 0
        ok = ok and all(localization_pairing_invertible(basis))
    # symplectic area of the two-point sphere with mu = (0, 1) is exactly 1
    _, graph, profile = _pipeline("cp1")
    area = abbv_integrate(equivariant_symplectic_class(profile), profile)
    ok = ok and area == 1
    with capsys.disabled():
        _report("6 localization consistency", ok)


def test_criterion_7_semifree_monotone(capsys):
    ok = True
    for n in (1, 2, 3):
        _, graph, profile = _pipeline("sphere_product%d" % n)
        result = semifree_monotone_analysis(profile)
        ok = ok and result["semifree"] and result["self_indexing"]
        for vid, mu in result["monotone_mu"].items():
            ok = ok and mu + n == profile.index[vid]
    with capsys.disabled():
        _report("7 semifree products self-indexing", ok)


def test_criterion_8_negative_control(capsys):
    code = main(["analyze", "--example", "hirzebruch1", "--out", "/dev/null"])
    _, graph, profile = _pipeline("hirzebruch1")
    from gkmlef.analysis import analyze
    report, code2 = analyze(graph, (1, 2))
    ok = (code == 2 and code2 == 2
          and report["hypothesis"]["constant_on_levels"] is False
          and report["hypothesis"]["theorem_applicability"] == "not applicable"
          and report["hard_lefschetz"]["holds"] in (True, False))
    with capsys.disabled():
        _report("8 hirzebruch negative control", ok)


def test_criterion_9_determinism(capsys):
    ok = True
    for name in catalog.names():
        entry = catalog.get(name)
        ok = ok and emit_gkm(parse_gkm(entry.document)) == entry.document
    from gkmlef.analysis import analyze, report_to_json
    _, graph, profile = _pipeline("su3")
    r1, _ = analyze(graph, (-1, 1), name="su3")
    r2, _ = analyze(graph, (-1, 1), name="su3")
    ok = ok and report_to_json(r1) == report_to_json(r2)
    with capsys.disabled():
        _report("9 round-trip and report byte stability", ok)
