"""Exact arithmetic substrate: rationals, monomials and linear algebra.

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


def monomial_residue(mono, weight):
    """The monomial t^mono modulo the linear form weight . t, as a dict
    {exponent tuple: Fraction}.

    The first variable with a nonzero weight entry is replaced by its solution
    on the hyperplane weight . t = 0, so a linear combination of monomials is
    divisible by the form exactly when its residues cancel.
    """
    pivot = next(i for i, a in enumerate(weight) if a)
    subst = {j: Fraction(-a, weight[pivot]) for j, a in enumerate(weight)
             if a and j != pivot}
    out = {mono[:pivot] + (0,) + mono[pivot + 1:]: Fraction(1)}
    for _ in range(mono[pivot]):
        step = {}
        for exp, c in out.items():
            for j, s in subst.items():
                e = exp[:j] + (exp[j] + 1,) + exp[j + 1:]
                step[e] = step.get(e, 0) + c * s
        out = step
    return out


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
    """Null-space basis read off a reduced row echelon form: one sparse vector
    {column: Fraction} per free column, holding its 1 and the nonzero pivot
    entries."""
    pivot_set = set(pivots)
    return [{fc: Fraction(1), **{pc: -rows[r][fc] for r, pc in enumerate(pivots)
                                 if rows[r][fc]}}
            for fc in range(ncols) if fc not in pivot_set]


def _dense(vecs, ncols):
    return [[v.get(c, Fraction(0)) for c in range(ncols)] for v in vecs]


def sparse_nullspace(mat, ncols):
    """Basis of the right nullspace of `mat` (ncols unknowns), as sparse
    vectors {column: Fraction}."""
    return _null_basis(*_rref(mat, ncols), ncols)


def nullspace(mat, ncols):
    """Basis of the right nullspace of `mat` (ncols unknowns)."""
    return _dense(sparse_nullspace(mat, ncols), ncols)


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
    return particular, _dense(_null_basis(rows, pivots, ncols), ncols)


def mat_vec(mat, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]
