"""Exact arithmetic substrate: rationals, sparse polynomials and linear algebra.

Everything here is over Q (``fractions.Fraction``); there is no floating
point in this module or anywhere downstream of it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(s):
    """Parse a rational from its "p" or "p/q" string form."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    s = str(s).strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError("not a rational literal: %r" % (s,))
    return Fraction(s)


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def monomial_exponents(rank, degree):
    """All exponent multi-indices of total degree `degree` in `rank` variables."""
    out = []
    for combo in combinations_with_replacement(range(rank), degree):
        exp = [0] * rank
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    out.sort()
    return out


class TorusPoly:
    """Sparse polynomial over the weight lattice of a rank-r torus.

    terms maps exponent tuples (length r) to nonzero Fractions; equality is
    structural since the zero-free form is canonical.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    if len(exp) != rank:
                        raise ValueError("exponent length != rank")
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def constant(cls, rank, c):
        return cls(rank, {(0,) * rank: Fraction(c)})

    @classmethod
    def linear_form(cls, vec):
        """The linear form sum(vec[i] * t_i)."""
        vec = list(vec)
        rank = len(vec)
        terms = {}
        for i, c in enumerate(vec):
            if c:
                exp = [0] * rank
                exp[i] = 1
                terms[tuple(exp)] = Fraction(c)
        return cls(rank, terms)

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return TorusPoly(self.rank, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) - c
        return TorusPoly(self.rank, terms)

    def __neg__(self):
        return TorusPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TorusPoly(self.rank, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return TorusPoly(self.rank, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = TorusPoly.constant(self.rank, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, TorusPoly) and self.rank == other.rank
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "TorusPoly(0)"
        parts = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join("t%d^%d" % (i, e) if e > 1 else "t%d" % i
                            for i, e in enumerate(exp) if e)
            if mono:
                parts.append("%s*%s" % (format_rational(c), mono))
            else:
                parts.append(format_rational(c))
        return "TorusPoly(%s)" % " + ".join(parts)

    def evaluate(self, xi):
        """Value at t = xi, a Fraction.

        Under the circle t_i -> xi_i * u a homogeneous degree-d polynomial
        becomes evaluate(xi) * u^d, so this is the circle restriction's
        coefficient.
        """
        if len(xi) != self.rank:
            raise ValueError("circle vector rank mismatch")
        out = Fraction(0)
        for exp, c in self.terms.items():
            for e, x in zip(exp, xi):
                if e:
                    c *= Fraction(x) ** e
            out += c
        return out

    def eliminate(self, alpha):
        """Substitute along the hyperplane alpha = 0.

        Picks the first variable with nonzero alpha-coefficient and replaces
        it by the solved linear expression; the result is zero exactly when
        this polynomial is divisible by the linear form alpha.
        """
        alpha = list(alpha)
        pivot = next((i for i, a in enumerate(alpha) if a != 0), None)
        if pivot is None:
            raise ValueError("zero linear form")
        repl_vec = [Fraction(0)] * self.rank
        for j, a in enumerate(alpha):
            if j != pivot and a != 0:
                repl_vec[j] = Fraction(-a, 1) / alpha[pivot]
        repl = TorusPoly.linear_form(repl_vec)
        out = TorusPoly(self.rank)
        for exp, c in self.terms.items():
            term = TorusPoly.constant(self.rank, c)
            rest = list(exp)
            e_piv = rest[pivot]
            rest[pivot] = 0
            if any(rest):
                term = term * TorusPoly(self.rank, {tuple(rest): 1})
            if e_piv:
                term = term * repl ** e_piv
            out = out + term
        return out

    def divisible_by(self, alpha):
        return self.eliminate(alpha).is_zero


# ---------------------------------------------------------------------------
# Exact linear algebra over Q.  Matrices are lists of lists of Fractions.

def _rref(mat, ncols):
    """Reduced row echelon form (in place copy); returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def matrix_rank(mat):
    if not mat:
        return 0
    _, pivots = _rref(mat, len(mat[0]))
    return len(pivots)


def _null_basis(rows, pivots, ncols):
    """Null-space basis read off a reduced row echelon form: one vector per
    free column."""
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def nullspace(mat, ncols):
    """Basis of the right nullspace of `mat` (ncols unknowns)."""
    rows, pivots = _rref(mat, ncols)
    return _null_basis(rows, pivots, ncols)


def solve_affine(mat, rhs):
    """Solve mat * x = rhs exactly, with one elimination of the augmented
    matrix.

    Returns None if inconsistent, otherwise (particular, nullspace_basis);
    the solution set is the particular point plus the span of the basis.
    """
    if not mat:
        if any(b != 0 for b in rhs):
            return None
        return [], []
    ncols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    rows, pivots = _rref(aug, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    particular = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][ncols]
    return particular, _null_basis(rows, pivots, ncols)


def mat_vec(mat, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]
