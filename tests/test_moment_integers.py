"""The integer moment map M = D mu against Fraction references built from
profile.mu, and a pin that analyze neither sorts, hashes, orders nor does
arithmetic on Fraction moment values."""
from collections import Counter
from fractions import Fraction
from math import lcm

from hypothesis import assume, given, settings, strategies as st

from gkmlef import (abbv_integrate, analysis, canonical_classes, catalog, cup,
                    expand_in_basis, kirwan_reduce, parse_gkm, restrict_to_circle)
from gkmlef.cohomology import CircleClass, basis_order
from gkmlef.exact import format_rational
from gkmlef.lefschetz import (delta_certificates, semifree_monotone_analysis,
                              verify_distinct, verify_symp_expansion, verify_vanish)
from gkmlef.model import check_hypothesis, self_indexing_normalizer

F = Fraction


def _drawn_profile(data):
    """A catalog input at its default circle or a drawn generic one: su3,
    cp3, sphere_product3 and hirzebruch1, or so5 at a drawn scale p/q."""
    name = data.draw(st.sampled_from(["su3", "cp3", "sphere_product3", "hirzebruch1", "so5"]),
                     label="name")
    scale = None
    if name == "so5":
        scale = data.draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                          label="scale")
        assume(scale > 0)
    entry = catalog.get(name, scale=scale)
    graph = parse_gkm(entry.document)
    xi = data.draw(st.one_of(st.just(entry.default_xi),
                             st.tuples(*[st.integers(-5, 5)] * graph.rank)), label="xi")
    assume(all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges))
    return graph, restrict_to_circle(graph, xi)


def _levels(profile):
    """{k: (vertex ids sorted by id, sorted distinct Fraction moment values)}."""
    out = {}
    for k in range(profile.n + 1):
        vids = sorted(v for v, ix in profile.index.items() if ix == 2 * k)
        out[k] = (tuple(vids), tuple(sorted({profile.mu[v] for v in vids})))
    return out


def _constants(profile):
    return [vals[0] if len(vals) == 1 else None for _, vals in _levels(profile).values()]


def _shifted(profile, c):
    """The symplectic class shifted by c: (c - mu(v)) u at v, zeros dropped."""
    return CircleClass(profile.graph, 2, {v: c - x for v, x in profile.mu.items() if c != x})


def _entry(name, applicable, passed, detail):
    return {"name": name, "applicable": applicable,
            "pass": passed if applicable else None, "detail": detail}


def _symp_expansion(profile, basis):
    name, cs = "symplectic-expansion", _constants(profile)
    c0, c2 = cs[0], cs[1]
    if profile.n >= 1 and c2 is None and _levels(profile)[1][0]:
        return _entry(name, False, None, "moment map not constant on the index-2 level")
    coeffs = expand_in_basis(_shifted(profile, c0), basis)
    (vmin,) = _levels(profile)[0][0]
    a0, expected = coeffs[vmin], (None if c2 is None else c0 - c2)
    a2 = {v: coeffs[v] for v in _levels(profile)[1][0]}
    return _entry(name, True, a0 == 0 and all(a == expected for a in a2.values()),
                  "a0 = %s; index-2 coefficients %s, expected %s each"
                  % (format_rational(a0), {v: format_rational(a) for v, a in sorted(a2.items())},
                     "n/a" if expected is None else format_rational(expected)))


def _vanish(profile, k):
    name, c = "shifted-class-vanishing(k=%d)" % k, _constants(profile)[k]
    if c is None:
        return _entry(name, False, None,
                      "level %d empty or moment map not constant on it" % (2 * k))
    level = _levels(profile)[k][0]
    bad = [v for v in level if profile.mu[v] != c]
    return _entry(name, True, not bad, "nonzero restrictions at %s" % bad if bad else
                  "vanishes on all %d vertices of index %d" % (len(level), 2 * k))


def _distinct(profile):
    """The distinctness lemma, its integrals by cup and localization."""
    name, cs, n = "distinct-level-constants", _constants(profile), profile.n
    if None in cs:
        return _entry(name, False, None, "some level is empty or non-constant")
    detail = "c = (%s)" % ", ".join(format_rational(c) for c in cs)
    if len(set(cs)) != len(cs):
        return _entry(name, True, False, detail + "; equal constants cannot arise from "
                      "a genuine symplectic manifold")
    integrals = []
    for i in range(n + 1):
        top = CircleClass(profile.graph, 0, {v: F(1) for v in profile.mu})
        for c in cs[:i] + cs[i + 1:]:
            top = cup(top, _shifted(profile, c))
        integrals.append(abbv_integrate(top, profile))
    return _entry(name, True, len(set(integrals)) == 1 and integrals[0] != 0,
                  detail + "; top-product integral %s" % format_rational(integrals[0]))


def _delta(basis, profile, gamma, k):
    """delta = gamma times the classes shifted by c_2k .. c_(2n-2k-2), by cup."""
    n, name, cs = profile.n, "delta-certificate(k=%d)" % k, _constants(profile)
    if None in cs:
        return _entry(name, False, None, "level constants undefined")
    delta = gamma
    for c in cs[k:n - k]:
        delta = cup(delta, _shifted(profile, c))
    low_ok = all(delta.at(v) == 0 for v in profile.mu if profile.index[v] < 2 * (n - k))
    return _entry(name, True, low_ok,
                  "vanishes below index %d: %s; restriction product formula: True; "
                  "delta nonzero: %s" % (2 * (n - k), low_ok, any(delta.values.values())))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_moment_routes_equal_the_fraction_references(data):
    graph, profile = _drawn_profile(data)
    mu, index, n = profile.mu, profile.index, profile.n
    # the integer view: one positive scale D, M = D mu
    d = profile.mu_scale
    assert d > 0 and d == lcm(*(x.denominator for x in mu.values()))
    assert {v: F(m, d) for v, m in profile.scaled_mu.items()} == mu
    assert all(type(m) is int for m in profile.scaled_mu.values())

    assert basis_order(profile) == tuple(sorted(mu, key=lambda v: (mu[v], index[v], v)))
    levels, cs = _levels(profile), _constants(profile)
    for k in range(n + 1):
        assert profile.level(k) == levels[k][0]
        assert sorted({profile.scaled_mu[v] for v in levels[k][0]}) \
            == [x * d for x in levels[k][1]]
    assert profile.level_constants() == cs
    assert profile.scaled_level_constants == tuple(None if c is None else c * d for c in cs)
    constant = all(len(vals) <= 1 for _, vals in levels.values())
    defined = [c for c in cs if c is not None]
    assert check_hypothesis(profile) == {
        "constant_on_levels": constant,
        "all_distinct": constant and len(set(defined)) == len(defined)}
    if constant:
        normalizer = None
        if cs[-1] > cs[0]:
            a = 2 * n / (cs[-1] - cs[0])
            if all(c is None or a * c - a * cs[0] == 2 * k for k, c in enumerate(cs)):
                normalizer = (a, -a * cs[0])
        assert self_indexing_normalizer(profile) == normalizer

    basis = canonical_classes(graph, profile)
    for f in basis.order:
        values = basis.beta[f].values
        s = lcm(*(x.denominator for x in values.values()))
        assert basis.integer_beta[f] == ({v: int(x * s) for v, x in values.items()}, s)
    ring = kirwan_reduce(basis)
    chevalley = {f: {h: x for h, c in basis.beta[f].values.items()
                     if index[h] == index[f] + 2 and (x := (mu[f] - mu[h]) * c)}
                 for f in basis.order}  # the equivariant Chevalley formula
    # held as ints over the lcm of the reduced denominators, so the hard
    # Lefschetz matrices are those of that lcm times L
    assert ring.scale == lcm(*(x.denominator for row in chevalley.values() for x in row.values()))
    for f in basis.order:
        assert all(type(x) is int for x in ring.lefschetz[f].values())
        assert {h: F(x, ring.scale) for h, x in ring.lefschetz[f].items()} == chevalley[f], f

    assert verify_symp_expansion(profile, ring) == _symp_expansion(profile, basis)
    for k in range(1, n + 1):
        assert verify_vanish(profile, k) == _vanish(profile, k)
    assert verify_distinct(profile) == _distinct(profile)
    if constant:
        assert delta_certificates(basis, profile) == [
            dict(_delta(basis, profile, basis.alpha[f], index[f] // 2), candidate=f)
            for k in range(n + 1) if 2 * k < n
            for f in basis.order if index[f] == 2 * k]
    semifree = semifree_monotone_analysis(profile)
    if semifree["semifree"]:
        monotone = {v: F(sum(1 for w in ws if w < 0) * 2 - n) for v, ws in profile.weights.items()}
        assert semifree["monotone_mu"] == monotone
        assert semifree["self_indexing"] == all(monotone[v] + n == index[v] for v in monotone)

    # the report's moment values, shifted by the minimum or not
    for shift in (False, True):
        report, _ = analysis.analyze(graph, profile.xi, shift_min=shift)
        low = min(mu.values()) if shift else 0
        assert {v["id"]: v["mu"] for v in report["profile"]["vertices"]} == \
            {v: format_rational(x - low) for v, x in mu.items()}
        assert report["profile"]["level_constants"] == \
            [None if c is None else format_rational(c - low) for c in cs]
        assert report["profile"]["min_shift"] == format_rational(low)


def test_basis_order_breaks_moment_ties_by_index():
    # sphere_product3 at xi = (-3, -2, -1) has equal moment values at
    # vertices of different index, where id order alone would put them wrong
    graph = parse_gkm(catalog.get("sphere_product3").document)
    profile = restrict_to_circle(graph, (-3, -2, -1))
    mu, index = profile.mu, profile.index
    expected = tuple(sorted(mu, key=lambda v: (mu[v], index[v], v)))
    assert expected != tuple(sorted(mu, key=lambda v: (mu[v], v)))
    assert basis_order(profile) == expected
    assert canonical_classes(graph, profile).order == expected


class _Opaque(Fraction):
    """A moment value that refuses to be hashed, compared or used in arithmetic;
    only its numerator and denominator can be read."""

    def _refuse(self, *args):
        raise AssertionError("a Fraction moment value was hashed, compared or computed with")

    __hash__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = __bool__ = _refuse


_COUNTED = ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def test_analyze_sorts_hashes_and_compares_no_fraction_moment_value(monkeypatch):
    # so5 at scale 3/7, so D = 7: every profile's moment values are opaque, and
    # every Fraction hash and comparison is counted.  None is left: the
    # symplectic-expansion lemma compares its coefficients in ints, and the
    # report prints mu and the level constants from D mu.
    entry = catalog.get("so5", scale=F(3, 7))
    graph = parse_gkm(entry.document)
    reference = {shift: analysis.analyze(graph, entry.default_xi, shift_min=shift)
                 for shift in (False, True)}
    circle = analysis.restrict_to_circle
    profiles = []

    def opaque_profile(graph, xi):
        profile = circle(graph, xi)
        profile.__dict__["mu"] = {v: _Opaque(x) for v, x in profile.mu.items()}
        profiles.append(profile)
        return profile
    monkeypatch.setattr(analysis, "restrict_to_circle", opaque_profile)
    calls = Counter()
    for name in _COUNTED:
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, _name=name, _method=method:
                            calls.update([_name]) or _method(*args))
    got = {shift: analysis.analyze(graph, entry.default_xi, shift_min=shift)
           for shift in (False, True)}
    monkeypatch.undo()
    def printed(reports):
        return {shift: (analysis.report_to_json(r), code) for shift, (r, code) in reports.items()}
    assert printed(got) == printed(reference)
    assert profiles[0].mu_scale == 7
    assert calls == Counter()
