"""Exact arithmetic substrate: rationals, monomials and linear algebra.

Everything here is over Q (``fractions.Fraction``); there is no floating
point in this module or anywhere downstream of it.  Linear systems are
eliminated fraction-free over the integers, so every answer is exact.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

# ASCII digits only (\d takes any Unicode digit, and int() reads them); no
# zero denominator
_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/(0*[1-9][0-9]*))?$")


def parse_rational(s):
    """Parse a rational from its "p" or "p/q" string form, q > 0."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    s = str(s).strip()
    m = _RATIONAL_RE.match(s)
    if not m:
        raise ValueError("not a rational literal: %r" % (s,))
    num, den = m.groups()
    return Fraction(int(num), int(den) if den else 1)


def format_rational(q):
    """The "p" or "p/q" form of q: an int or a Fraction as it is, anything
    else through Fraction(q)."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_ratio(n, d):
    """format_rational(Fraction(n, d)) for ints n and d > 0, reduced by one gcd."""
    g = gcd(n, d)  # d > 0, so the sign stays on n
    return str(n // g) if g == d else "%d/%d" % (n // g, d // g)


def integer_form(values):
    """({key: int}, D): the dict of ints and Fractions `values` times D, the
    lcm of their denominators (1 for no values)."""
    scale = lcm(*(x.denominator for x in values.values()))
    return {key: x.numerator * (scale // x.denominator) for key, x in values.items()}, scale


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
# Exact linear algebra over Q.  Inside, a matrix is a list of sparse rows
# {column: Fraction or int} of its nonzero entries; the public functions
# convert lists of lists once, and the null-space functions take sparse rows too.
#
# One elimination serves them all: _rref scales each row to integers and
# eliminates fraction-free, so it is exact by construction, and a Fraction is
# made only where an answer is read off (-x / row[pivot column]).


def _sparse(mat):
    """Rows as sparse dicts of their nonzero entries; dict rows pass through."""
    return [row if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x}
            for row in mat]


def _rref(mat, ncols):
    """Reduced row echelon form of sparse rows over the integers: (sparse rows
    of ints, the pivot rows first in pivot order; pivot_cols).  Dividing each
    pivot row by its pivot entry, which is positive, gives the rational RREF.

    Each row is scaled to integers by the lcm of its denominators.  Each
    column pivots on the sparsest row holding it that is not a pivot row yet,
    the lowest index on ties.  The reduced form is unique, so this choice
    changes only the work.  A row with entry f in the pivot column c becomes
    (a/g) row - (f/g) pivot_row, a = pivot_row[c], g = gcd(a, f): a unit
    pivot never rescales it, and a rescaled row is divided by its content.
    """
    rows, holders = [], {}  # holders: column -> indices of the rows holding it
    for i, src in enumerate(mat):
        scale = lcm(*(x.denominator for x in src.values()))
        row = {j: x.numerator * (scale // x.denominator) for j, x in src.items() if x}
        for j in row:
            holders.setdefault(j, set()).add(i)
        rows.append(row)
    pivots, pivot_rows, rest = [], [], set(range(len(rows)))
    for c in range(ncols):
        if not rest:
            break
        candidates = [i for i in holders.get(c, ()) if i in rest]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        rest.remove(p)
        prow = rows[p]
        if prow[c] < 0:
            for j in prow:
                prow[j] = -prow[j]
        a = prow[c]
        support = list(prow.items())
        for i in holders[c] - {p}:
            row = rows[i]
            g = gcd(a, row[c])
            s, f = a // g, row[c] // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, y in support:
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                    holders[j].add(i)
                elif x := x - f * y:
                    row[j] = x
                else:
                    del row[j]
                    holders[j].discard(i)
            if s != 1 and (content := gcd(*row.values())) > 1:
                for j in row:
                    row[j] //= content
        pivots.append(c)
        pivot_rows.append(p)
    return [rows[i] for i in pivot_rows] + [rows[i] for i in sorted(rest)], pivots


def _null_basis(rows, pivots, ncols):
    """Null-space basis read off _rref: one sparse vector {column: Fraction}
    per free column, holding its 1 and the nonzero pivot entries in pivot
    order."""
    pivot_set = set(pivots)
    basis = {fc: {fc: Fraction(1)} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        for c, x in row.items():
            if c in basis:
                basis[c][pc] = Fraction(-x, row[pc])
    return list(basis.values())


def _particular(rows, pivots, b):
    """The solution with every free unknown 0 for the right-hand side in
    column b of an augmented matrix, {pivot column: Fraction}, read off
    _rref; None if inconsistent."""
    if any(b in row for row in rows[len(pivots):]):
        return None
    return {pc: Fraction(row[b], row[pc]) for row, pc in zip(rows, pivots) if b in row}


def matrix_rank(mat):
    """Rank over Q of a list of dense rows.  One or two rows or columns need
    no elimination: the rank is 2 exactly when some 2x2 minor is nonzero,
    and once a row has a nonzero entry a_p, every minor is 0 exactly when
    those with column p are."""
    if not mat:
        return 0
    if len(mat) == 1 or len(mat[0]) == 1:
        return int(any(map(any, mat)))
    if len(mat) == 2 or len(mat[0]) == 2:
        a, b = mat if len(mat) == 2 else zip(*mat)
        p = next((p for p, x in enumerate(a) if x), None)
        if p is None:
            return int(any(b))
        ap, bp = a[p], b[p]
        return 2 if any(x * bp != y * ap for x, y in zip(a, b)) else 1
    return len(_rref(_sparse(mat), len(mat[0]))[1])


def sparse_nullspace(mat, ncols):
    """Basis of the right nullspace of `mat` (ncols unknowns; rows dense or
    sparse), as sparse vectors {column: Fraction}: the basis read off the
    reduced row echelon form."""
    return _null_basis(*_rref(_sparse(mat), ncols), ncols)


def solve(mat, rhs, ncols):
    """Solve mat * x = rhs exactly (ncols unknowns; rows dense or sparse; one
    right-hand side value per row), with one elimination of mat augmented by
    rhs.

    Returns (point, basis) as sparse vectors {column: Fraction}: point is the
    solution with every free unknown 0, or None if the system is
    inconsistent; the solution set is point plus the span of basis.
    """
    aug = [{**row, ncols: b} if b else row for row, b in zip(_sparse(mat), rhs, strict=True)]
    rows, pivots = _rref(aug, ncols)
    return _particular(rows, pivots, ncols), _null_basis(rows, pivots, ncols)


def mat_vec(mat, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]
