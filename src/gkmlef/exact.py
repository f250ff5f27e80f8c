"""Exact arithmetic substrate: rationals, monomials and linear algebra.

Everything here is over Q (``fractions.Fraction``); there is no floating
point in this module or anywhere downstream of it.  Linear systems are
eliminated mod a prime first and the answer is checked exactly over Q.
"""
from __future__ import annotations

import logging
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

_RATIONAL_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")  # no zero denominator


def parse_rational(s):
    """Parse a rational from its "p" or "p/q" string form, q > 0."""
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
# Exact linear algebra over Q.  Inside, a matrix is a list of sparse rows
# {column: Fraction or int} of its nonzero entries; the public functions
# convert lists of lists once, and the null-space functions take sparse rows too.
#
# Every elimination runs first mod the prime P (_rref_mod) and is lifted back
# to Q.  A lifted answer is returned only when it is certified; otherwise the
# same elimination is redone over Fraction (_rref, on dense rows) and a DEBUG
# line on the "gkmlef" logger names the reason.

P = (1 << 61) - 1
_LIFT_BOUND = 1 << 30  # rational reconstruction: |numerator|, denominator < 2^30
_log = logging.getLogger("gkmlef")


class _Uncertified(Exception):
    """A modular result that cannot be certified; args[0] names the reason:
    denominator, reconstruction, check, rank-deficit or inconsistent."""


def _sparse(mat):
    """Rows as sparse dicts of their nonzero entries; dict rows pass through."""
    return [row if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x}
            for row in mat]


def _dense(vecs, ncols):
    return [[v.get(c, Fraction(0)) for c in range(ncols)] for v in vecs]


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


def _rref_mod(mat, ncols):
    """_rref of sparse rows over the integers mod P: (sparse rows of ints in
    [1, P), the pivot rows first in pivot order; pivot_cols).

    Each column pivots on the sparsest row holding it that is not a pivot row
    yet, the lowest index on ties.  The reduced form is unique, so this choice
    changes only the work.  Raises _Uncertified("denominator") if an entry's
    denominator is divisible by P, since such an entry has no image mod P.
    """
    inverse = {1: 1}
    rows, holders = [], {}  # holders: column -> indices of the rows holding it
    for i, src in enumerate(mat):
        row = {}
        for j, x in src.items():
            d = x.denominator
            if d not in inverse:
                if d % P == 0:
                    raise _Uncertified("denominator")
                inverse[d] = pow(d, -1, P)
            a = x.numerator * inverse[d] % P
            if a:
                row[j] = a
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
        inv = pow(prow[c], -1, P)
        for j in prow:
            prow[j] = prow[j] * inv % P
        support = list(prow.items())
        for i in holders[c] - {p}:
            row = rows[i]
            f = row[c]
            for j, y in support:
                a = row.get(j)
                if a is None:
                    row[j] = -f * y % P
                    holders[j].add(i)
                elif a := (a - f * y) % P:
                    row[j] = a
                else:
                    del row[j]
                    holders[j].discard(i)
        pivots.append(c)
        pivot_rows.append(p)
    return [rows[i] for i in pivot_rows] + [rows[i] for i in sorted(rest)], pivots


def _lift(a):
    """A Fraction n/d with |n|, d < 2^30 and n = a * d mod P, or None
    (rational reconstruction by the half-extended Euclidean algorithm)."""
    r0, r1, t0, t1 = P, a, 0, 1
    while r1 >= _LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) >= _LIFT_BOUND:
        return None
    return Fraction(r1, t1)


def _annihilates(mat, vecs):
    """True when mat * v = 0 exactly over Q for every sparse vector v
    {column: Fraction} in vecs (mat: sparse rows).  Each row and each vector
    is scaled to integers first, so the sums run over ints."""
    cols = {}
    for i, row in enumerate(mat):
        scale = lcm(*(x.denominator for x in row.values()))
        for j, x in row.items():
            cols.setdefault(j, []).append((i, x.numerator * (scale // x.denominator)))
    for vec in vecs:
        scale = lcm(*(x.denominator for x in vec.values()))
        total = {}
        for c, x in vec.items():
            x = x.numerator * (scale // x.denominator)
            for i, a in cols.get(c, ()):
                total[i] = total.get(i, 0) + a * x
        if any(total.values()):
            return False
    return True


def _null_basis(rows, pivots, ncols):
    """Null-space basis read off a reduced row echelon form (dense or sparse
    rows): one sparse vector {column: value} per free column, holding its 1
    and the nonzero pivot entries in pivot order."""
    pivot_set = set(pivots)
    basis = {fc: {fc: Fraction(1)} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(_sparse(rows), pivots):
        for c, x in row.items():
            if c in basis:
                basis[c][pc] = -x
    return list(basis.values())


def _particular(rows, pivots, ncols):
    """The solution with every free unknown 0, {pivot column: value}, read off
    a reduced row echelon form of an augmented matrix; None if inconsistent."""
    rows = _sparse(rows)
    if any(ncols in row for row in rows[len(pivots):]):
        return None
    return {pc: row[ncols] for row, pc in zip(rows, pivots) if ncols in row}


def _lifted(vec):
    """{column: value mod P} lifted to {column: Fraction}."""
    out = {}
    for c, a in vec.items():
        q = _lift(a % P)
        if q is None:
            raise _Uncertified("reconstruction")
        out[c] = q
    return out


def _solve_mod(mat, ncols, augmented):
    """Null basis of the first ncols columns of the sparse rows mat and, if
    `augmented` (column ncols is the right-hand side), the particular
    solution; both sparse, from one elimination mod P.

    Every vector is lifted to Q and checked exactly against mat.  When all
    ncols - rank_P null vectors pass, rank over Q equals rank mod P, the
    pivots are those of the rational RREF, and the result is exactly what
    _rref would give.  Anything else raises _Uncertified.
    """
    rows, pivots = _rref_mod(mat, ncols)
    basis = [_lifted(v) for v in _null_basis(rows, pivots, ncols)]
    point, vecs = None, basis
    if augmented:
        point = _particular(rows, pivots, ncols)
        if point is None:
            raise _Uncertified("inconsistent")
        point = _lifted(point)
        vecs = basis + [{**point, ncols: Fraction(-1)}]
    del rows
    if not _annihilates(mat, vecs):
        raise _Uncertified("check")
    return point, basis


def _fallback(exc, mat, ncols):
    _log.debug("modular elimination of a %d x %d system not certified (%s); "
               "eliminating over Fraction", len(mat), ncols, exc.args[0])


def matrix_rank(mat):
    """Rank over Q.  The rank mod P never exceeds it, so a full rank mod P is
    returned as is; a deficit is recomputed over Fraction."""
    if not mat:
        return 0
    ncols = len(mat[0])
    try:
        rank = len(_rref_mod(_sparse(mat), ncols)[1])
        if rank == min(len(mat), ncols):
            return rank
        raise _Uncertified("rank-deficit")
    except _Uncertified as exc:
        _fallback(exc, mat, ncols)
    return len(_rref(mat, ncols)[1])


def sparse_nullspace(mat, ncols):
    """Basis of the right nullspace of `mat` (ncols unknowns; rows dense or
    sparse), as sparse vectors {column: Fraction}: the basis read off the
    reduced row echelon form."""
    rows = _sparse(mat)
    try:
        return _solve_mod(rows, ncols, False)[1]
    except _Uncertified as exc:
        _fallback(exc, rows, ncols)
    return _null_basis(*_rref(_dense(rows, ncols), ncols), ncols)


def nullspace(mat, ncols):
    """Basis of the right nullspace of `mat` (ncols unknowns)."""
    return _dense(sparse_nullspace(mat, ncols), ncols)


def solve_affine(mat, rhs):
    """Solve mat * x = rhs exactly, with one elimination of the augmented
    matrix (and one more over Fraction if the modular one is not certified).

    Returns None if inconsistent, otherwise (particular, nullspace_basis);
    the solution set is the particular point plus the span of the basis.
    """
    if not mat:
        if any(b != 0 for b in rhs):
            return None
        return [], []
    ncols = len(mat[0])
    aug = [{**row, ncols: b} if b else row for row, b in zip(_sparse(mat), rhs)]
    try:
        point, basis = _solve_mod(aug, ncols, True)
    except _Uncertified as exc:
        _fallback(exc, aug, ncols)
        rows, pivots = _rref(_dense(aug, ncols + 1), ncols)
        point = _particular(rows, pivots, ncols)
        if point is None:
            return None
        basis = _null_basis(rows, pivots, ncols)
    return _dense([point], ncols)[0], _dense(basis, ncols)


def mat_vec(mat, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]
