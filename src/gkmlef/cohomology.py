"""Equivariant cohomology in the fixed-point model.

Classes are tuples of restrictions indexed by fixed points; the image of the
restriction map is cut out by the GKM edge congruences.  Every class the
pipeline handles is homogeneous: at an isolated fixed point a degree-2k class
restricts to c * u^k under the circle, so a circle class stores its degree and
one rational c per fixed point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .exact import (matrix_rank, monomial_exponents, monomial_residue,
                    nullspace, solve_affine, sparse_nullspace)


class ClassConstructionError(ValueError):
    """The requested class does not exist or is not unique."""


class NonPolynomialError(ValueError):
    """A localization sum failed to cancel its Laurent tail."""


class ExpansionError(ValueError):
    """A class could not be expanded in the canonical basis."""


@dataclass(frozen=True)
class CircleClass:
    graph: object
    degree: int  # cohomological, even
    values: dict  # vertex id -> Fraction c; the restriction is c * u^(degree/2)

    def at(self, vid):
        return self.values.get(vid, Fraction(0))

    @property
    def is_zero(self):
        return not any(self.values.values())

    def __eq__(self, other):
        return (isinstance(other, CircleClass) and self.degree == other.degree
                and all(self.at(v.id) == other.at(v.id) for v in self.graph.vertices))

    def __hash__(self):
        return hash((self.degree, frozenset((v, c) for v, c in self.values.items() if c)))


def constant_class(graph, c=1):
    return CircleClass(graph, 0, {v.id: Fraction(c) for v in graph.vertices})


def cup(a, b):
    """Vertex-wise product of circle classes on the same graph."""
    return CircleClass(a.graph, a.degree + b.degree,
                       {v: c * b.at(v) for v, c in a.values.items()})


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

@lru_cache(maxsize=None)
def congruence_space(graph, d):
    """Basis of the homogeneous degree-d (polynomial degree) solutions of all
    edge congruences f_v = f_w mod weight, as sparse vectors {column: Fraction}.
    Each edge row is scaled to integers by the lcm of its denominators.

    A solution is one coefficient per vertex and monomial: column i * M + j
    holds the coefficient of the j-th of the M monomials in
    monomial_exponents(rank, d) at the i-th vertex in graph order.
    """
    monos = monomial_exponents(graph.rank, d)
    col = {v.id: i * len(monos) for i, v in enumerate(graph.vertices)}
    ncols = len(col) * len(monos)
    rows = []
    for e in graph.edges:
        # one row per residual monomial of f_v - f_w modulo the weight
        residues = [monomial_residue(m, e.weight) for m in monos]
        for exp in sorted(set().union(*residues)):
            coeffs = [(j, res[exp]) for j, res in enumerate(residues) if res.get(exp)]
            scale = lcm(*(c.denominator for _, c in coeffs))
            row = {}
            for j, c in coeffs:
                row[col[e.v] + j] = c.numerator * (scale // c.denominator)
                row[col[e.w] + j] = -row[col[e.v] + j]
            rows.append(row)
    return tuple(sparse_nullspace(rows, ncols))


def circle_annihilator(graph, d, xi):
    """Rows z, one value per vertex in graph order, with z . y = 0 exactly
    when y is the circle restriction of a degree-d class: the null space of
    the congruence-space basis evaluated at t = xi, each basis vector scaled
    to integers by the lcm of its denominators first."""
    at_xi = [prod(x ** e for x, e in zip(xi, m)) for m in monomial_exponents(graph.rank, d)]
    rows = []
    for b in congruence_space(graph, d):
        scale = lcm(*(x.denominator for x in b.values()))
        values = {}
        for c, x in b.items():
            i, j = divmod(c, len(at_xi))
            values[i] = values.get(i, 0) + x.numerator * (scale // x.denominator) * at_xi[j]
        rows.append({i: v for i, v in values.items() if v})
    return nullspace(rows, len(graph.vertices))


# ---------------------------------------------------------------------------
# Canonical classes

@dataclass(frozen=True)
class CanonicalBasis:
    profile: object
    order: tuple  # vertex ids ascending by (moment value, index, id)
    alpha: dict  # vertex id -> CircleClass of degree = Morse index
    beta: dict  # vertex id -> alpha / (product of negative weights)

    @property
    def graph(self):
        return self.profile.graph


def basis_order(profile):
    return tuple(sorted((v.id for v in profile.graph.vertices),
                        key=lambda vid: (profile.mu[vid], profile.index[vid], vid)))


def _annihilators(graph, profile):
    """circle_annihilator for each Morse index that occurs, keyed by index."""
    return {k: circle_annihilator(graph, k // 2, profile.xi)
            for k in set(profile.index.values())}


def _class_system(profile, fid, annihilators, vids):
    """Rows/rhs on the circle values of alpha_F, one unknown per vertex: the
    values are a circle restriction of F's degree, equal the product of the
    negative weights at F, and vanish below F's moment value or at index <= F's."""
    rows = list(annihilators[profile.index[fid]])
    rhs = [Fraction(0)] * len(rows)
    mu, index = profile.mu, profile.index
    for i, vid in enumerate(vids):
        if mu[vid] < mu[fid] or index[vid] <= index[fid]:
            rows.append([Fraction(int(j == i)) for j in range(len(vids))])
            rhs.append(profile.negative_weight_product(fid) if vid == fid else Fraction(0))
    return rows, rhs


def _alpha_beta(profile, fid, values):
    """alpha_F from its circle values {vertex id: Fraction}, and its
    normalization beta_F = alpha_F / (product of the negative weights at F)."""
    wprod = profile.negative_weight_product(fid)
    graph, degree = profile.graph, profile.index[fid]
    return (CircleClass(graph, degree, values),
            CircleClass(graph, degree, {v: c / wprod for v, c in values.items()}))


def _not_unique(fid, ambiguity):
    return ClassConstructionError(
        "canonical class at %s is not unique (ambiguity dimension %d)"
        % (fid, ambiguity))


def canonical_classes(graph, profile):
    """Canonical class basis, one class per fixed point, built in ascending
    moment order by solving each class for its circle values inside the
    circle image of its degree's congruence space."""
    vids = [v.id for v in graph.vertices]
    order = basis_order(profile)
    annihilators = _annihilators(graph, profile)
    alpha, beta = {}, {}
    for fid in order:
        sol = solve_affine(*_class_system(profile, fid, annihilators, vids))
        if sol is None:
            raise ClassConstructionError(
                "no canonical class at %s: the fixed-point data is not realizable" % fid)
        y, null_basis = sol
        if null_basis:
            raise _not_unique(fid, len(null_basis))
        alpha[fid], beta[fid] = _alpha_beta(profile, fid, dict(zip(vids, y)))
    return CanonicalBasis(profile, order, alpha, beta)


def canonical_classes_global(graph, profile):
    """Oracle construction: one global linear system imposing every defining
    condition of every canonical class simultaneously, one block of V
    columns per class."""
    vids = [v.id for v in graph.vertices]
    nv = len(vids)
    fids = basis_order(profile)
    annihilators = _annihilators(graph, profile)
    rows, rhs = [], []
    for b, fid in enumerate(fids):
        local_rows, local_rhs = _class_system(profile, fid, annihilators, vids)
        for lrow in local_rows:
            row = [Fraction(0)] * (nv * len(fids))
            row[b * nv:(b + 1) * nv] = lrow
            rows.append(row)
        rhs.extend(local_rhs)
    sol = solve_affine(rows, rhs)
    if sol is None:
        raise ClassConstructionError("global canonical-class system is inconsistent")
    y, null_basis = sol

    alpha, beta = {}, {}
    for b, fid in enumerate(fids):
        block = slice(b * nv, (b + 1) * nv)
        ambiguity = sum(1 for nu in null_basis if any(nu[block]))
        if ambiguity:
            raise _not_unique(fid, ambiguity)
        alpha[fid], beta[fid] = _alpha_beta(profile, fid, dict(zip(vids, y[block])))
    return CanonicalBasis(profile, fids, alpha, beta)


def equivariant_symplectic_class(profile, shift=0):
    """Degree-2 class restricting to (-mu(F) + shift) * u at each fixed point.

    It is the circle restriction of minus the position pairing plus shift
    times a linear form pairing to 1 with xi, so the GKM congruences hold by
    the edge invariant.
    """
    shift = Fraction(shift)
    return CircleClass(profile.graph, 2,
                       {v: -mu + shift for v, mu in profile.mu.items()})


def expand_in_basis(cls, basis):
    """Exact expansion c = sum coeff_F * u^(m - d_F) * beta_F for a class of
    degree 2m, by triangular substitution in ascending moment order; returns
    the scalars coeff_F."""
    profile = basis.profile
    if cls.degree % 2 != 0:
        raise ExpansionError("odd-degree class")
    m = cls.degree // 2
    residual = {v.id: cls.at(v.id) for v in cls.graph.vertices}
    coeffs = {}
    for fid in basis.order:
        r = coeffs[fid] = residual[fid]
        if r == 0:
            continue
        if profile.index[fid] > cls.degree:
            raise ExpansionError(
                "class of degree %d has a nonzero restriction at %s of index %d; "
                "not in the span" % (cls.degree, fid, profile.index[fid]))
        b = basis.beta[fid]
        for vid in residual:
            residual[vid] -= r * b.at(vid)
    if any(c != 0 for c in residual.values()):
        raise ExpansionError("nonzero residual after triangular expansion")
    return coeffs


# ---------------------------------------------------------------------------
# Kirwan reduction to the ordinary ring

@dataclass(frozen=True)
class OrdinaryRing:
    """H*(M) on the reduced canonical basis, as structure constants.

    Elements are dicts label -> Fraction over the images of the normalized
    canonical classes; products truncate above the top degree.
    """
    labels: tuple  # vertex ids in basis order
    degree: dict  # label -> cohomological degree (the Morse index)
    table: dict  # (label, label) -> dict label -> Fraction
    omega: dict  # expansion of the symplectic class, degree-2 labels only
    dimension: int  # = 2n

    @property
    def n(self):
        return self.dimension // 2

    def basis_in_degree(self, k):
        return [l for l in self.labels if self.degree[l] == k]

    def multiply(self, x, y):
        out = {}
        for lx, cx in x.items():
            if cx == 0:
                continue
            for ly, cy in y.items():
                if cy == 0:
                    continue
                key = (lx, ly) if (lx, ly) in self.table else (ly, lx)
                for lz, cz in self.table[key].items():
                    out[lz] = out.get(lz, Fraction(0)) + cx * cy * cz
        return {l: c for l, c in out.items() if c != 0}

    def omega_power(self, m):
        out = {self.labels[0]: Fraction(1)}  # unit = class of the minimum
        for _ in range(m):
            out = self.multiply(out, self.omega)
        return out


def _at_u0(cls, basis):
    """Expansion of cls with u set to 0: only the basis classes of the class's
    own degree keep their coefficients."""
    index = basis.profile.index
    return {h: c for h, c in expand_in_basis(cls, basis).items()
            if c != 0 and index[h] == cls.degree}


def kirwan_reduce(basis):
    """Ordinary cohomology ring: structure constants of the reduced basis
    obtained by cupping, expanding, and evaluating coefficients at u = 0."""
    profile = basis.profile
    labels = basis.order
    degree = {l: profile.index[l] for l in labels}
    table = {}
    for i, f in enumerate(labels):
        for g in labels[i:]:
            if degree[f] + degree[g] > 2 * profile.n:
                table[(f, g)] = {}
                continue
            table[(f, g)] = _at_u0(cup(basis.beta[f], basis.beta[g]), basis)
    omega = _at_u0(equivariant_symplectic_class(profile, shift=profile.min_value()),
                   basis)
    return OrdinaryRing(labels, degree, table, omega, 2 * profile.n)


def localization_pairing_matrix(basis, k):
    """Localization pairing between degree-k and degree-(2n-k) reduced basis
    classes; invertibility is Poincare duality at the fixed-point level."""
    profile = basis.profile
    low = [l for l in basis.order if profile.index[l] == k]
    high = [l for l in basis.order if profile.index[l] == 2 * profile.n - k]
    mat = []
    for f in low:
        row = []
        for g in high:
            row.append(abbv_integrate(cup(basis.beta[f], basis.beta[g]), profile))
        mat.append(row)
    return low, high, mat


def localization_pairing_invertible(basis, k):
    low, high, mat = localization_pairing_matrix(basis, k)
    if len(low) != len(high):
        return False
    if not low:
        return True
    return matrix_rank(mat) == len(low)
