"""Equivariant cohomology in the fixed-point model.

Classes are tuples of restrictions indexed by fixed points; the image of the
restriction map is cut out by the GKM edge congruences.  Every class the
pipeline handles is homogeneous: at an isolated fixed point a degree-2k class
restricts to c * u^k under the circle, so a circle class stores its degree and
one rational c per fixed point.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from .exact import (integer_form, matrix_rank, monomial_exponents, monomial_residue, solve,
                    sparse_nullspace)

_log = logging.getLogger("gkmlef")


class ClassConstructionError(ValueError):
    """The requested class does not exist or is not unique."""


class NonPolynomialError(ValueError):
    """A localization sum failed to cancel its Laurent tail."""


class ExpansionError(ValueError):
    """A class could not be expanded in the canonical basis."""


_ZERO = Fraction(0)


@dataclass(frozen=True)
class CircleClass:
    graph: object
    degree: int  # cohomological, even
    values: dict  # vertex id -> Fraction c, the restriction c * u^(degree/2); absent: 0

    def at(self, vid):
        return self.values.get(vid, _ZERO)

    def __eq__(self, other):
        return (isinstance(other, CircleClass) and self.degree == other.degree
                and all(self.at(v.id) == other.at(v.id) for v in self.graph.vertices))

    def __hash__(self):
        return hash((self.degree, frozenset((v, c) for v, c in self.values.items() if c)))


def constant_class(graph, c=1):
    return CircleClass(graph, 0, {v.id: Fraction(c) for v in graph.vertices})


def cup(a, b):
    """Vertex-wise product of circle classes on the same graph, over the
    vertices stored in both."""
    small, large = sorted((a.values, b.values), key=len)
    return CircleClass(a.graph, a.degree + b.degree,
                       {v: c * large[v] for v, c in small.items() if v in large})


def cup_power(a, m):
    out = constant_class(a.graph)
    for _ in range(m):
        out = cup(out, a)
    return out


def abbv_integrate(cls, profile):
    """Localization integral: the u^0 coefficient of the sum over fixed points
    of restriction / full Euler class.

    A degree-2m class sums to s * u^(m-n); below the top degree s must vanish,
    and a nonzero s means the tuple was not a genuine class.
    """
    total = sum((c / profile.full_weight_product(v)
                 for v, c in cls.values.items() if c), Fraction(0))
    power = cls.degree // 2 - profile.n
    if power < 0 and total != 0:
        raise NonPolynomialError(
            "localization sum has a surviving u^%d term; "
            "input tuple is not a genuine class" % power)
    return total if power == 0 else Fraction(0)


# ---------------------------------------------------------------------------
# GKM congruence spaces

def residue_rows(weight, d):
    """Divisibility of a degree-d form by the linear form weight . t, as rows
    over its coefficients (one per monomial of monomial_exponents(rank, d)):
    one sparse row {monomial index: int} per residual monomial, each scaled
    to integers by the lcm of its denominators.  The form is divisible
    exactly when every row annihilates its coefficients.
    """
    by_exp = {}
    for j, m in enumerate(monomial_exponents(len(weight), d)):
        for exp, c in monomial_residue(m, weight).items():
            by_exp.setdefault(exp, []).append((j, c))
    rows = []
    for exp in sorted(by_exp):
        scale = lcm(*(c.denominator for _, c in by_exp[exp]))
        rows.append({j: c.numerator * (scale // c.denominator) for j, c in by_exp[exp] if c})
    return tuple(rows)


# bounded: canonical_classes reaches it only on a logged fallback, so the
# callers are the oracle and the tests
@lru_cache(maxsize=64)
def congruence_space(graph, d):
    """Basis of the homogeneous degree-d (polynomial degree) solutions of all
    edge congruences f_v = f_w mod weight, as sparse vectors {column: Fraction}.

    A solution is one coefficient per vertex and monomial: column i * M + j
    holds the coefficient of the j-th of the M monomials in
    monomial_exponents(rank, d) at the i-th vertex in graph order.
    """
    m = len(monomial_exponents(graph.rank, d))
    col = {v.id: i * m for i, v in enumerate(graph.vertices)}
    rows, residues = [], {}  # residues: weight -> its residue_rows
    for e in graph.edges:
        if e.weight not in residues:
            residues[e.weight] = residue_rows(e.weight, d)
        # one row per residual monomial of f_v - f_w modulo the weight
        for res in residues[e.weight]:
            row = {col[e.v] + j: c for j, c in res.items()}
            row.update({col[e.w] + j: -c for j, c in res.items()})
            rows.append(row)
    return sparse_nullspace(rows, len(col) * m)


def circle_annihilator(graph, d, xi):
    """Sparse rows z {vertex position in graph order: Fraction}, with z . y = 0
    exactly when y is the circle restriction of a degree-d class: the null
    space of the congruence-space basis evaluated at t = xi, each basis vector
    scaled to integers by the lcm of its denominators first."""
    at_xi = [prod(x ** e for x, e in zip(xi, m)) for m in monomial_exponents(graph.rank, d)]
    rows = []
    for b in congruence_space(graph, d):
        values = {}
        for c, x in integer_form(b)[0].items():
            i, j = divmod(c, len(at_xi))
            values[i] = values.get(i, 0) + x * at_xi[j]
        rows.append({i: v for i, v in values.items() if v})
    return sparse_nullspace(rows, len(graph.vertices))


# ---------------------------------------------------------------------------
# Canonical classes

@dataclass(frozen=True)
class CanonicalBasis:
    profile: object
    order: tuple  # vertex ids ascending by (moment value, index, id)
    integer_beta: dict  # F -> (a_F, s_F), beta_F = a_F / s_F: the one stored form

    @property
    def graph(self):
        return self.profile.graph

    @cached_property
    def alpha(self):  # beta_F times the product of the negative weights at F
        return self._classes(self.profile.negative_weight_product)

    @cached_property
    def beta(self):
        return self._classes(lambda f: 1)

    def _classes(self, factor):  # Fraction views {F: CircleClass}, built on first read
        graph, index = self.graph, self.profile.index
        return {f: CircleClass(graph, index[f], {v: Fraction(c * w, s) for v, c in values.items()})
                for f, (values, s) in self.integer_beta.items() for w in (factor(f),)}


def basis_order(profile):
    """Vertex ids ascending by (moment value, index, id), the moment value
    compared as D mu, an int."""
    scaled, index = profile.scaled_mu, profile.index
    return tuple(sorted((v.id for v in profile.graph.vertices),
                        key=lambda vid: (scaled[vid], index[vid], vid)))


class FlowUpError(ValueError):
    """The flow-up classes could not be built or certified."""


def _dot(a, b):
    return sum(map(mul, a, b))


def projection_eta(graph, xi):
    """(eta, {edge weight w: (w . xi, w . eta)}), eta = (1, m, ..., m^(r-1))
    for the least m >= 1 that keeps these projections of the weights at each
    vertex pairwise non-parallel.  For each m, two projections at a vertex
    are parallel exactly when their directions (reduced by the gcd, sign
    fixed) are equal, and a zero projection is parallel to every other: O(E)
    per m.  Those of a and b are parallel when eta is orthogonal to n = (a .
    xi) b - (b . xi) a, a polynomial in m of degree < r, so each pair rules
    out < r values; n = 0 (a, b parallel) raises FlowUpError at its vertex."""
    incident = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        incident[e.v].append(e.weight)
        incident[e.w].append(e.weight)
    at_xi = {e.weight: _dot(e.weight, xi) for e in graph.edges}
    m = 1
    while True:
        eta = tuple(m ** i for i in range(graph.rank))
        projected = {w: (x, _dot(w, eta)) for w, x in at_xi.items()}
        direction = {w: _direction(*p) for w, p in projected.items()}
        for v, weights in incident.items():
            seen = {direction[w] for w in weights}
            if len(seen) < len(weights) or (None in seen and len(weights) > 1):
                for a, b in combinations(weights, 2):
                    ax, bx = at_xi[a], at_xi[b]
                    if not any(ax * y - bx * x for x, y in zip(a, b)):
                        raise FlowUpError("parallel weights %r and %r at %s" % (a, b, v))
                break
        else:
            return eta, projected
        m += 1


def _direction(x, y):
    """(x, y) over the gcd with a positive leading entry; None for (0, 0)."""
    g = gcd(x, y)
    if not g:
        return None
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return x // g, y // g


def _lagrange_weights(lines, points, pad, targets):
    """(own, rows): rows[t][j] is y^pad times the product of the lines other
    than lines[j] at targets[t], and own[j] the same at points[j], the point
    (-b_j, a_j) of lines[j] = (a_j, b_j): a_j^pad times the product of b_i a_j
    - a_i b_j over i != j.  No line vanishes at a target, so each row is one
    product of the line values there, divided by each of them."""
    own = [y ** pad * prod(a * x + b * y for i, (a, b) in enumerate(lines) if i != j)
           for j, (x, y) in enumerate(points)]
    rows = []
    for x, y in targets:
        at = [a * x + b * y for a, b in lines]
        total = prod(at) * y ** pad
        rows.append([total // v for v in at])
    return own, rows


def _interpolate(carried, own, rows):
    """The Lagrange interpolant through the carried values {down slot j:
    (v, e)}, j < len(own), at the targets of rows, sum_j v row[j] / (e
    own[j]): ([int], den), den > 0, reduced by their gcd; None if all are 0."""
    terms = [(j, v, e * own[j]) for j, (v, e) in carried.items() if j < len(own)]
    if not terms:
        return None
    den = lcm(*(abs(s) for _, _, s in terms))
    cs = [0] * len(own)
    for j, v, s in terms:
        cs[j] = v * (den // s)
    at = [sum(map(mul, cs, row)) for row in rows]
    g = gcd(den, *at)
    return [x // g for x in at], den // g


def flow_up_classes(graph, profile):
    """The flow-up classes of Guillemin-Zara on the rank-2 projection
    w -> (w . xi, w . eta) of the torus, as projection_eta(graph, xi) gives it:
    tau_p, one per vertex p, has degree d = index(p) / 2, vanishes before p
    in basis_order and restricts at p to the product of the projected
    weights of p's edges to earlier vertices.  Returns {p: {q: (c, den)}}, p
    and each p's q in basis order: the nonzero circle values of tau_p, the
    binary form tau_p(q) at (x, y) = (1, 0), as c / den in lowest terms.

    tau_p(q) = tau_p(w) mod the line a x + b y of an edge w -> q, q later,
    says that the two forms agree at the point (-b, a), so a class is held
    by its values at points: each edge carries tau_p(w) at its point to q,
    and tau_p(q) is the Lagrange interpolant through the first n = min(k,
    d + 1) of q's k carried values, times (y / y_j)^(d + 1 - n).  Its value
    at the other k - n down points (the checks), at q's up-edge points and
    at (1, 0) is one integer dot product each, with weights built once per
    (q, d).  The unit, the class of the first vertex, is 1 at every vertex
    and is not carried: restrict_to_circle admits one vertex of index 0,
    and the degree check makes it the first.  tau_q(q) is the product of
    q's down lines.  So every projected edge congruence is certified at its
    later end: at the n interpolated points by definition, at the k - n
    others by the check, for every p before q that is nonzero at a down
    point of q (tau_p(q) = 0 included), and for tau_q at its own down
    points, where each product has the factor 0.  Raises FlowUpError unless
    every vertex has index / 2 down edges and every check passes.  On the
    GKM graph of a Hamiltonian T-manifold the GKM theorem holds for the
    subtorus too (its weights at each vertex are pairwise independent), so
    these classes span the circle image in each degree, as over the torus.
    """
    order, projected = basis_order(profile), projection_eta(graph, profile.xi)[1]
    position = {v: i for i, v in enumerate(order)}
    degree = {v: profile.index[v] // 2 for v in order}
    down = {v: [] for v in order}  # [(earlier neighbour, projected outward weight)]
    up = {v: [] for v in order}  # [(later neighbour, its down slot, the edge's point)]
    for e in graph.edges:
        w, q, (a, b) = e.w, e.v, projected[e.weight]
        if position[w] > position[q]:
            w, q, a, b = q, w, -a, -b
        up[w].append((q, len(down[q]), (-b, a)))
        down[q].append((w, (a, b)))
    for q in order:
        if len(down[q]) != degree[q]:
            raise FlowUpError("vertex %s has %d edges to earlier vertices and index %d"
                              % (q, len(down[q]), profile.index[q]))
    inbox = {v: {} for v in order}  # q -> {p: {down slot: tau_p there, (value, den)}}
    circle = {order[0]: dict.fromkeys(order, (1, 1))}
    for q in order[1:]:
        lines = [line for _, line in down[q]]
        points, k = [(-b, a) for a, b in lines], len(lines)
        circle[q] = {q: (prod(a for a, _ in lines), 1)}
        for r, j, (x, y) in up[q]:
            inbox[r].setdefault(q, {})[j] = (prod(a * x + b * y for a, b in lines), 1)
        weights = {}  # d -> (n, own, rows)
        for p, carried in inbox.pop(q).items():
            if (d := degree[p]) not in weights:
                n = min(k, d + 1)
                targets = points[n:] + [t for *_, t in up[q]] + [(1, 0)]
                weights[d] = n, *_lagrange_weights(lines[:n], points[:n], d + 1 - n, targets)
            n, own, rows = weights[d]
            found = _interpolate(carried, own, rows)
            if found is None:  # 0, yet carried past n
                raise _congruence_error(down[q][min(carried)][0], q, p)
            at, den = found
            for j in range(n, k):
                v, e = carried.get(j, (0, 1))
                if at[j - n] * e != v * den:
                    raise _congruence_error(down[q][j][0], q, p)
            for (r, j, _), x in zip(up[q], at[k - n:]):
                if x:
                    inbox[r].setdefault(p, {})[j] = (x, den)
            if c := at[-1]:
                g = gcd(c, den)
                circle[p][q] = c // g, den // g
    return circle


def _congruence_error(w, q, p):
    return FlowUpError("edge %s-%s fails its congruence in the class of %s" % (w, q, p))


def canonical_classes(graph, profile):
    """Canonical class basis, one class per fixed point: alpha_F is the
    flow-up class tau_F read on the circle, c / den at q, and beta_F(q) = c /
    (den L), L the product of the negative weights at F, with no Fraction
    made: s_F is the lcm of the reduced denominators den |L| / gcd(c, L) (c,
    den coprime) and a_F(q) = c s_F / (den L), exact.  tau_F vanishes before
    F; at F it is the product of F's projected down lines at (1, 0), L; at
    any later q of index <= index(F) it is the interpolant times a power of
    y, 0 at (1, 0).  Those are the defining conditions of alpha_F, so no
    substitution is needed; kirwan_reduce, the one place that checks
    canonical support, certifies it again.  The basis order is the flow-up
    classes' order, sorted once.  If they are not certified, a DEBUG line names the
    reason and the oracle canonical_classes_global is returned."""
    try:
        classes = flow_up_classes(graph, profile)
    except FlowUpError as exc:
        _log.debug("flow-up classes not certified (%s); using the global oracle", exc)
        return canonical_classes_global(graph, profile)
    integer_beta = {}
    for fid, values in classes.items():
        w = profile.negative_weight_product(fid)
        scale = lcm(*(den * abs(w) // gcd(c, w) for c, den in values.values()))
        integer_beta[fid] = {q: c * scale // (den * w) for q, (c, den) in values.items()}, scale
    return CanonicalBasis(profile, tuple(classes), integer_beta)


def canonical_classes_global(graph, profile):
    """Oracle construction: one global linear system imposing every defining
    condition of every canonical class at once, one block of V columns per
    class.  The values of alpha_F lie in the circle image of its degree, cut
    out by the congruence-space annihilators, equal the product of the
    negative weights at F, and vanish below F's moment value or at index <=
    F's.  Every row is sparse.  The basis stores alpha_F / that product."""
    vids = [v.id for v in graph.vertices]
    nv = len(vids)
    fids = basis_order(profile)
    scaled, index = profile.scaled_mu, profile.index
    annihilators = {k: circle_annihilator(graph, k // 2, profile.xi) for k in set(index.values())}
    rows, rhs = [], []
    for b, fid in enumerate(fids):
        for row in annihilators[index[fid]]:
            rows.append({b * nv + j: x for j, x in row.items()})
            rhs.append(_ZERO)
        for j, vid in enumerate(vids):
            if scaled[vid] < scaled[fid] or index[vid] <= index[fid]:
                rows.append({b * nv + j: Fraction(1)})
                rhs.append(profile.negative_weight_product(fid) if vid == fid else _ZERO)
    point, null_basis = solve(rows, rhs, nv * len(fids))
    if point is None:
        raise ClassConstructionError("global canonical-class system is inconsistent")

    integer_beta = {}
    for b, fid in enumerate(fids):
        block = range(b * nv, (b + 1) * nv)
        ambiguity = sum(1 for nu in null_basis if any(c in block for c in nu))
        if ambiguity:
            raise ClassConstructionError(
                "canonical class at %s is not unique (ambiguity dimension %d)"
                % (fid, ambiguity))
        w = profile.negative_weight_product(fid)
        integer_beta[fid] = integer_form({vid: x / w for j, vid in enumerate(vids)
                                          if (x := point.get(b * nv + j))})
    return CanonicalBasis(profile, fids, integer_beta)


def equivariant_symplectic_class(profile, shift=0):
    """Degree-2 class restricting to (-mu(F) + shift) * u at each fixed point.

    It is the circle restriction of minus the position pairing plus shift
    times a linear form pairing to 1 with xi, so the GKM congruences hold by
    the edge invariant.  With S = shift * T and T the lcm of D and the
    shift's denominator, the value at v is (S - M(v) T / D) / T, one Fraction
    per vertex.
    """
    shift, d = Fraction(shift), profile.mu_scale
    scale = lcm(d, shift.denominator)
    s, factor = shift.numerator * (scale // shift.denominator), scale // d
    return CircleClass(profile.graph, 2,
                       {v: Fraction(c, scale) for v, m in profile.scaled_mu.items()
                        if (c := s - m * factor)})


def expand_in_basis(cls, basis):
    """Exact expansion c = sum coeff_F * u^(m - d_F) * beta_F for a class of
    degree 2m, by triangular substitution in ascending moment order; returns
    the scalars coeff_F."""
    profile = basis.profile
    if cls.degree % 2 != 0:
        raise ExpansionError("odd-degree class")
    residual = dict(cls.values)
    coeffs = {}
    for fid in basis.order:
        r = coeffs[fid] = residual.get(fid, _ZERO)
        if not r:
            continue
        if profile.index[fid] > cls.degree:
            raise ExpansionError(
                "class of degree %d has a nonzero restriction at %s of index %d; "
                "not in the span" % (cls.degree, fid, profile.index[fid]))
        for vid, x in basis.beta[fid].values.items():
            residual[vid] = residual.get(vid, _ZERO) - r * x
    if any(residual.values()):
        raise ExpansionError("nonzero residual after triangular expansion")
    return coeffs


# ---------------------------------------------------------------------------
# Kirwan reduction to the ordinary ring

@dataclass(frozen=True)
class OrdinaryRing:
    """H*(M) on the reduced canonical basis, labelled by basis.order.

    The Lefschetz operator L is held in ints over one scale S, the lcm of
    the reduced denominators of L: lefschetz[F] = {H: S L(beta_F)_H}.  The
    structure constants, Fractions, are built on the first read of `table`.
    Products truncate above the top degree.
    """
    basis: CanonicalBasis = field(repr=False, compare=False)
    lefschetz: dict  # label -> S times its product with omega, degree + 2 labels only
    scale: int  # S

    @property
    def labels(self):
        return self.basis.order

    @property
    def n(self):
        return self.basis.profile.n

    @property
    def omega(self):  # S times the expansion of the symplectic class: L of the unit
        return self.lefschetz[self.labels[0]]

    def basis_in_degree(self, k):
        return [l for l in self.labels if self.basis.profile.index[l] == k]

    @cached_property
    def table(self):
        """(label, label) -> dict label -> Fraction, each pair once in basis
        order: cup, expand, and keep the coefficients at u = 0."""
        beta, index, table = self.basis.beta, self.basis.profile.index, {}
        for i, f in enumerate(self.labels):
            for g in self.labels[i:]:
                table[(f, g)] = ({} if index[f] + index[g] > 2 * self.n
                                 else _at_u0(cup(beta[f], beta[g]), self.basis))
        return table

    def lefschetz_power(self, x, m):
        """x times (scale omega)^m, by m applications of the stored operator."""
        for _ in range(m):
            out = {}
            for l, c in x.items():
                for h, y in self.lefschetz[l].items():
                    out[h] = out.get(h, 0) + c * y
            x = {h: c for h, c in out.items() if c}
        return x


def _at_u0(cls, basis):
    """Expansion of cls with u set to 0: only the basis classes of the class's
    own degree keep their coefficients."""
    index = basis.profile.index
    return {h: c for h, c in expand_in_basis(cls, basis).items()
            if c != 0 and index[h] == cls.degree}


def kirwan_reduce(basis):
    """Ordinary cohomology ring with its Lefschetz operator L, the Kirwan
    image of multiplication by w = equivariant_symplectic_class(profile,
    min value), read off the canonical basis by the equivariant Chevalley
    formula: L(beta_F) = sum of (mu(F) - mu(H)) beta_F(H) beta_H over the H
    of index(F) + 2.  In the integers M = D mu and a_F = s_F beta_F, as the
    basis stores them, that entry is (M(F) - M(H)) a_F(H) / (D s_F), taken
    over T = lcm(D s_F); dividing the entries and T by their gcd leaves T the
    lcm of the reduced denominators, the ring's scale.

    X = beta_F w - w(F) u beta_F has the Kirwan image of beta_F w, u going to
    0, and X(v) = (mu(F) - mu(v)) beta_F(v).  When beta_F has canonical
    support, 1 at F (a_F(F) = s_F) and 0 at every other vertex of index <=
    index(F), X vanishes at each vertex of index <= index(F), so X minus the
    sum above vanishes at each vertex of index <= its degree, and such a
    class is 0.  Each beta_F is checked as its row is built, in basis order;
    the first vertex that breaks the support raises ExpansionError.  This is
    the one check of canonical support: a ring exists only for a basis that
    has it, which the ledger reads off the ring (lefschetz.verify_zeroclass,
    lefschetz.proof_chain).  omega is L of the unit, beta at the minimum.
    """
    profile = basis.profile
    labels, scaled, index, d = basis.order, profile.scaled_mu, profile.index, profile.mu_scale
    scale = d * lcm(*(s for _, s in basis.integer_beta.values()))
    lefschetz = {}
    for f in labels:
        values, s = basis.integer_beta[f]
        bad = f if values.get(f) != s else next(
            (v for v, c in values.items() if c and v != f and index[v] <= index[f]), None)
        if bad is not None:
            raise ExpansionError("beta_%s does not have canonical support: value %s at %s"
                                 % (f, Fraction(values.get(bad, 0), s), bad))
        m, target, factor = scaled[f], index[f] + 2, scale // (d * s)
        lefschetz[f] = {h: x * factor for h, c in values.items()
                        if index[h] == target and (x := (m - scaled[h]) * c)}
    common = gcd(scale, *(x for row in lefschetz.values() for x in row.values()))
    return OrdinaryRing(basis, {f: {h: x // common for h, x in row.items()}
                                for f, row in lefschetz.items()}, scale // common)


def localization_pairing_integers(basis, k):
    """Localization pairing between degree-k and degree-(2n-k) reduced basis
    classes, in integers; invertibility is Poincare duality at the
    fixed-point level.  Returns (low, high, mat) with mat[F][G] = E s_F s_G
    times the integral of beta_F beta_G: s_F the lcm of the denominators of
    beta_F, E the lcm of the Euler classes e(v).  Each product has the top
    degree, so its integral is the sum of beta_F(v) beta_G(v) / e(v), and
    mat[F][G] the sum of a_F(v) a_G(v) (E / e(v)), a_F = s_F beta_F, the
    cofactors E / e(v) read from profile.euler_scale.  The
    high classes' values are indexed by vertex, then each low class's
    support is walked once; a_F is basis.integer_beta's.  Every scale is
    nonzero, so the rank is the pairing's."""
    profile, top = basis.profile, 2 * basis.profile.n
    cofactor = profile.euler_scale[1]
    values = {l: basis.integer_beta[l][0] for l in basis.order
              if profile.index[l] in (k, top - k)}
    low = [l for l in values if profile.index[l] == k]
    high = [l for l in values if profile.index[l] == top - k]
    at_vertex = {}  # vertex -> [(column, a_G(v))]
    for j, g in enumerate(high):
        for v, c in values[g].items():
            at_vertex.setdefault(v, []).append((j, c))
    mat = []
    for f in low:
        row = [0] * len(high)
        for v, c in values[f].items():
            if v in at_vertex:
                x = c * cofactor[v]
                for j, y in at_vertex[v]:
                    row[j] += x * y
        mat.append(row)
    return low, high, mat


def localization_pairing_invertible(basis):
    """Whether the degree-2k localization pairing is invertible, for k = 0..n.
    Degrees 2k <= n are ranked in integers; degree 2n - 2k is the transpose
    of degree 2k."""
    n = basis.profile.n
    ranked = []
    for k in range(n // 2 + 1):
        low, high, mat = localization_pairing_integers(basis, 2 * k)
        ranked.append(len(low) == len(high) and matrix_rank(mat) == len(low))
    return tuple(ranked[min(k, n - k)] for k in range(n + 1))
