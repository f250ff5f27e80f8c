"""Hard Lefschetz decision on the reduced ring, instance verification of the
supporting lemmas, the delta-product kernel certificate, and the semifree
monotone analysis."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .exact import format_ratio, matrix_rank

_log = logging.getLogger("gkmlef")


@dataclass(frozen=True)
class HLDegree:
    degree: int
    source_dim: int
    target_dim: int
    rank: int
    vacuous: bool

    @property
    def holds(self):
        if self.vacuous:
            return True
        return self.rank == self.source_dim == self.target_dim


@dataclass(frozen=True)
class HLReport:
    dimension: int
    degrees: tuple  # HLDegree for k = 0..n

    @property
    def holds(self):
        return all(d.holds for d in self.degrees)


def multiplication_matrix(ring, k, power):
    """Matrix of multiplication by (D omega)^power, D = ring.scale, from
    degree k to k + 2*power: rows indexed by the source basis, columns by the
    target basis, each row the stored operator D L applied power times to a
    source basis vector."""
    source = ring.basis_in_degree(k)
    target = ring.basis_in_degree(k + 2 * power)
    rows = (ring.lefschetz_power({s: 1}, power) for s in source)
    return source, target, [[row.get(t, 0) for t in target] for row in rows]


def hard_lefschetz_check(ring, proved=False):
    """Rank of omega^(n-k): H^k -> H^(2n-k) for k = 0..n.

    proved says that the paper's proof of hard Lefschetz applies
    (proof_chain's verdict; its canonical-support premise holds for every
    ring, since kirwan_reduce builds one only from a basis that has it):
    omega^(n-k) is then injective on H^k, so where dim H^k =
    dim H^(2n-k) its rank is dim H^k and no matrix is built.  Every other
    degree, and every degree when proved is False, the default, takes the
    exact rank of the stored operator's matrix, D L with D = ring.scale:
    integers, and D^(n-k) times the matrix of omega^(n-k), of the same rank.
    With proved, one DEBUG line says whether a rank was still taken (the
    dimensions differ only on input that breaks Poincare symmetry).
    Odd degrees are empty in this setting (isolated fixed points force even
    Morse indices) and are reported as vacuously true.
    """
    if not ring.omega and ring.n > 0:
        raise ValueError("ring has no distinguished symplectic class")
    n = ring.n
    entries, ranked = [], []
    for k in range(n + 1):
        if k % 2 == 1:
            entries.append(HLDegree(k, 0, 0, 0, vacuous=True))
            continue
        if proved:
            source, target = ring.basis_in_degree(k), ring.basis_in_degree(2 * n - k)
            if len(source) == len(target):
                entries.append(HLDegree(k, len(source), len(target), len(source), vacuous=False))
                continue
            ranked.append(k)
        source, target, mat = multiplication_matrix(ring, k, n - k)
        rank = matrix_rank(mat) if source and target else 0
        entries.append(HLDegree(k, len(source), len(target), rank, vacuous=False))
    if proved:
        if ranked:
            _log.debug("hard Lefschetz proved, but dim H^k != dim H^(2n-k) for k = %s; "
                       "taking the exact rank there", ", ".join(map(str, ranked)))
        else:
            _log.debug("hard Lefschetz proved; no rank taken")
    return HLReport(2 * n, tuple(entries))


def proof_chain(hyp, distinct, pairing_invertible):
    """Whether the paper's proof of hard Lefschetz applies, read off the
    ledger: hyp is model.check_hypothesis's, distinct verify_distinct's entry
    and pairing_invertible cohomology.localization_pairing_invertible's.

    Take x in H^2j with omega^(n-2j) x = 0, lifted to x~ = sum a_F beta_F over
    index 2j, and delta = x~ times the classes omega~ - c_2l u, l = j ..
    n-j-1: it maps to 0, so delta = u y.  Canonical support and the constant
    levels make delta vanish below index 2n - 2j, so zero-class(n-j-1, low)
    gives y = 0.  Above, delta is x~ times differences of distinct level
    constants, so x~ vanishes there and zero-class(j, high) gives x = 0.
    Both zero-class sides are certified by canonical support and invertible
    pairings (verify_zeroclass).  So the proof needs the hypothesis, a
    passing distinct-level-constants, canonical support and every pairing
    invertible.  The chain checks all but canonical support; when one
    fails, one DEBUG line names the first.  Canonical support needs no check
    here: the verdict is read only by hard_lefschetz_check(ring, proved),
    and only cohomology.kirwan_reduce builds a ring, only from a basis with
    canonical support (it raises ExpansionError on any other)."""
    if not hyp["constant_on_levels"]:
        reason = "the moment map is not constant on every level"
    elif not distinct["pass"]:
        reason = "distinct-level-constants does not pass"
    elif not all(pairing_invertible):
        reason = "the degree-%d localization pairing is singular" % (
            2 * pairing_invertible.index(False))
    else:
        return True
    _log.debug("hard Lefschetz not proved (%s); taking the exact ranks", reason)
    return False


# ---------------------------------------------------------------------------
# Lemma verifications (instance checks producing ledger entries)

def _entry(name, applicable, passed, detail):
    return {"name": name, "applicable": applicable,
            "pass": passed if applicable else None, "detail": detail}


def verify_symp_expansion(profile, ring):
    """The symplectic class shifted by c_0, the minimum-normalized one,
    expands with no u-term at the minimum and equal coefficient -c_2 on every
    index-2 class.  kirwan_reduce checked canonical support, so the expansion
    is ring.omega / ring.scale, with u-term c_0 - mu(min) = 0 at the minimum.
    Each index-2 coefficient a / S (S = ring.scale) is tested against
    (C_0 - C_2) / D in ints, as a D == (C_0 - C_2) S."""
    name, d, s = "symplectic-expansion", profile.mu_scale, ring.scale
    c0, c2 = profile.scaled_level_constants[:2]
    if profile.n >= 1 and c2 is None and profile.level(1):
        return _entry(name, False, None, "moment map not constant on the index-2 level")
    # the level is sorted by id; c2 is None only when it is empty
    a2 = [(v, ring.omega.get(v, 0)) for v in profile.level(1)]
    ok = all(a * d == (c0 - c2) * s for _, a in a2)
    detail = ("a0 = 0; index-2 coefficients %s, expected %s each"
              % ({v: format_ratio(a, s) for v, a in a2},
                 format_ratio(c0 - c2, d) if c2 is not None else "n/a"))
    return _entry(name, True, ok, detail)


def verify_vanish(profile, k):
    """The symplectic class shifted by c_2k, restricting to (c_2k - mu(v)) u
    at v, vanishes on the whole index-2k level: mu(v) = c_2k there."""
    name = "shifted-class-vanishing(k=%d)" % k
    c, scaled = profile.scaled_level_constants[k], profile.scaled_mu
    if c is None:
        return _entry(name, False, None,
                      "level %d empty or moment map not constant on it" % (2 * k))
    bad = [v for v in profile.level(k) if scaled[v] != c]
    return _entry(name, True, not bad,
                  "nonzero restrictions at %s" % bad if bad else
                  "vanishes on all %d vertices of index %d" % (len(profile.level(k)), 2 * k))


def _scaled_top_products(profile, shifts, scale):
    """The localization integrals of the n + 1 products of n symplectic
    classes shifted by all but one of the constants c_j = shifts[j] / scale,
    the i-th omitting c_i, as (integer sums, common denominator); the class
    shifted by c restricts to (c - mu(v)) u at v.  shifts are ints and scale
    is a multiple of profile.mu_scale.  With mu scaled to the same ints M
    and E the lcm of the Euler classes e(v) (profile.euler_scale), the sum
    of the products of the shifts[j] - M(v), j != i, times E / e(v) is an
    integer, scale^n E times the i-th integral.  The products omitting one
    factor come from prefix and suffix products at each vertex."""
    n, factor = profile.n, scale // profile.mu_scale
    top, cofactor = profile.euler_scale
    sums = [0] * (n + 1)
    for v, x in profile.scaled_mu.items():
        m = x * factor
        factors = [c - m for c in shifts]
        prefix = list(accumulate(factors, mul, initial=1))  # prefix[i]: factors before i
        suffix = list(accumulate(reversed(factors), mul, initial=1))  # suffix[i]: the last i
        for i in range(n + 1):
            sums[i] += prefix[i] * suffix[n - i] * cofactor[v]
    return sums, scale ** n * top


def verify_distinct(profile):
    """Distinctness of the level constants, cross-checked by localization:
    every (n-fold) product of distinctly shifted symplectic classes is a top
    class with the same nonzero integral (_scaled_top_products), decided on
    the integer level constants C = D c."""
    name = "distinct-level-constants"
    cs = profile.scaled_level_constants
    if any(c is None for c in cs):
        return _entry(name, False, None, "some level is empty or non-constant")
    distinct = len(set(cs)) == len(cs)
    d = profile.mu_scale
    detail = "c = (%s)" % ", ".join(format_ratio(c, d) for c in cs)
    if not distinct:
        return _entry(name, True, False,
                      detail + "; equal constants cannot arise from a genuine "
                      "symplectic manifold")
    sums, den = _scaled_top_products(profile, cs, d)
    witness_ok = len(set(sums)) == 1 and sums[0] != 0
    detail += "; top-product integral %s" % format_ratio(sums[0], den)
    return _entry(name, True, distinct and witness_ok, detail)


def verify_zeroclass(ring, k, pairing_invertible):
    """Only the zero class of degree 2k vanishes on all fixed points of index
    <= 2k (low) or of index >= 2(n-k) (high); returns the low entry, then the
    high one.  pairing_invertible[j] says whether the localization pairing
    between degrees 2j and 2n-2j is invertible, for j = 0..n, as in the
    tuple cohomology.localization_pairing_invertible(basis) returns.

    The degree-2k space is spanned by u^(k-i) beta_F over the index-2i points,
    i <= k, and each condition is a row [beta_F(v)], or in integers [a_F(v)],
    a_F = s_F beta_F as ring.basis.integer_beta stores it: the same rank.
    ring.basis has canonical support, since kirwan_reduce built the ring
    from it.  So both sides have full rank, the high side when
    pairing_invertible[j] holds for every j <= k:

    - low: the rows are the columns' own vertices; grouped by index, the
      matrix is block triangular with identity blocks on the diagonal.
    - high: let x of degree 2k vanish at every vertex of index >= 2(n-k),
      and take any beta_G of index 2n-2k.  Canonical support makes beta_G
      vanish at every other vertex of index <= 2n-2k, so x beta_G is 0 at
      every vertex and integrates to 0.  The beta_F of index < 2k integrate
      to 0 against beta_G by degree, so x's index-2k coefficients lie in the
      kernel of the degree-2k pairing, which is 0.  Then x = u x', x'
      vanishes where x does, and the argument repeats down to k = 0.

    When a pairing is singular, the high side logs one DEBUG line naming it
    and takes the exact matrix_rank of the integer rows."""
    basis = ring.basis
    index, n = basis.profile.index, basis.profile.n
    columns = [fid for fid in basis.order if index[fid] <= 2 * k]
    ranks = {"low": len(columns), "high": len(columns)}
    singular = next((j for j in range(k + 1) if not pairing_invertible[j]), None)
    if singular is not None:
        _log.debug("zero-class(k=%d,high) not certified (the degree-%d localization "
                   "pairing is singular); taking the exact rank", k, 2 * singular)
        # the rows [a_F(v)]: beta_F's column scaled by s_F, of the same rank
        values = [basis.integer_beta[fid][0] for fid in columns]
        ranks["high"] = matrix_rank([[a.get(v, 0) for a in values]
                                     for v in basis.order if index[v] >= 2 * (n - k)])
    return [_entry("zero-class(k=%d,%s)" % (k, side), True, rank == len(columns),
                   "space dimension %d, independent vanishing conditions %d"
                   % (len(columns), rank)) for side, rank in ranks.items()]


def delta_certificate(basis, profile, gamma, k):
    """Replay of the kernel-elimination product for a degree-2k candidate.

    delta = gamma * product of the symplectic classes shifted by c_2k ..
    c_(2n-2k-2), the class shifted by c_2j restricting to (c_2j - mu(v)) u at
    v; verified to vanish at every index < 2n-2k and to factor as gamma
    restriction times the telescoping scalar product above that index.  cup
    multiplies vertex by vertex, so the factorization holds by construction
    and no class is built: delta(v) is nonzero exactly when gamma(v) is and
    mu(v), the constant of v's level, is none of c_2k .. c_(2n-2k-2), compared
    as the ints D c.  So only gamma's support is read (_delta_entry).
    """
    if gamma.degree != 2 * k:
        raise ValueError("candidate class has degree %d, expected %d" % (gamma.degree, 2 * k))
    return _delta_entry(basis, profile, gamma.values, k)


def _delta_entry(basis, profile, values, k):
    """delta_certificate's entry for the degree-2k candidate whose values
    {vertex: value, absent: 0} are nonzero where its restrictions are."""
    n = profile.n
    name = "delta-certificate(k=%d)" % k
    bad_pre = [v for v in basis.order if profile.index[v] < 2 * k and values.get(v)]
    if bad_pre:
        raise ValueError("candidate does not vanish below index %d: %s" % (2 * k, bad_pre))
    cs = profile.scaled_level_constants
    if any(c is None for c in cs):
        return _entry(name, False, None, "level constants undefined")
    killed = set(cs[k:n - k])
    survives = [c not in killed for c in cs]  # by the level index / 2
    support = [v for v, c in values.items() if c and survives[profile.index[v] // 2]]
    low_ok = all(profile.index[v] >= 2 * (n - k) for v in support)
    return _entry(name, True, low_ok,
                  "vanishes below index %d: %s; restriction product formula: True; "
                  "delta nonzero: %s" % (2 * (n - k), low_ok, bool(support)))


def delta_certificates(basis, profile):
    """Certificates for a spanning set of candidates per eligible degree: the
    canonical classes alpha_F of each index 2k with 2k < n.  alpha_F is
    beta_F = a_F / s_F times the nonzero product of the negative weights at
    F, so its support is that of a_F, read from basis.integer_beta."""
    out = []
    n = profile.n
    for k in range(n + 1):
        if 2 * k >= n:
            break
        for fid in basis.order:
            if profile.index[fid] == 2 * k:
                entry = _delta_entry(basis, profile, basis.integer_beta[fid][0], k)
                entry = dict(entry, candidate=fid)
                out.append(entry)
    return out


def semifree_monotone_analysis(profile):
    """Detect a semifree action (all circle weights +-1) and, when present,
    reproduce the monotone normalization in which mu + n is self-indexing:
    the monotone moment values are ints."""
    n = profile.n
    semifree = all(abs(w) == 1 for ws in profile.weights.values() for w in ws)
    result = {"semifree": semifree, "monotone_mu": None, "self_indexing": None}
    if not semifree:
        return result
    monotone = {}
    self_indexing = True
    for vid, ws in profile.weights.items():
        neg = sum(1 for w in ws if w < 0)
        monotone[vid] = 2 * neg - n
        if monotone[vid] + n != profile.index[vid]:
            self_indexing = False
    result["monotone_mu"] = monotone
    result["self_indexing"] = self_indexing
    return result
