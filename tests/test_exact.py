import logging
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkmlef import exact
from gkmlef.exact import (P, format_rational, mat_vec, matrix_rank,
                          monomial_exponents, monomial_residue, parse_rational,
                          solve_affine, sparse_nullspace)

F = Fraction


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"
    for bad in ("1.5", "pi", "", "1/0x", "1/0", "-3/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def _residue(poly, weight):
    """Residue of a polynomial {exponent: coefficient} modulo weight . t."""
    out = {}
    for mono, c in poly.items():
        for exp, r in monomial_residue(mono, weight).items():
            out[exp] = out.get(exp, 0) + c * r
    return {exp: c for exp, c in out.items() if c}


def test_divisibility():
    # (t1 - t0)(t0 + 2 t1) = -t0^2 - t0 t1 + 2 t1^2
    assert _residue({(2, 0): -1, (1, 1): -1, (0, 2): 2}, (-1, 1)) == {}
    assert _residue({(1, 0): 1, (0, 1): 2}, (-1, 1)) == {(0, 1): 3}
    assert _residue({}, (-1, 1)) == {}
    # pivot t1 of (0, 2, -1): t1 -> t2 / 2, so (2 t1 - t2) t0 vanishes
    assert _residue({(1, 1, 0): 2, (1, 0, 1): -1}, (0, 2, -1)) == {}
    assert monomial_residue((0, 2, 1), (0, 2, -1)) == {(0, 0, 3): F(1, 4)}


def test_solve_affine_unique():
    A = [[F(1), F(0)], [F(0), F(1)]]
    sol = solve_affine(A, [F(1), F(2)])
    assert sol == ([F(1), F(2)], [])


def test_solve_affine_line():
    sol = solve_affine([[F(1), F(1)]], [F(0)])
    particular, null = sol
    assert mat_vec([[F(1), F(1)]], particular) == [F(0)]
    assert len(null) == 1
    x, y = null[0]
    assert x == -y != 0


def test_solve_affine_empty():
    assert solve_affine([[F(1)], [F(1)]], [F(0), F(1)]) is None


def _counting(monkeypatch, name):
    """Record the ncols argument of every call to exact.<name>."""
    calls = []
    elimination = getattr(exact, name)

    def counting(mat, ncols):
        calls.append(ncols)
        return elimination(mat, ncols)

    monkeypatch.setattr(exact, name, counting)
    return calls


def test_solve_affine_eliminates_once(monkeypatch):
    system = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]], [F(1), F(3)]
    modular, rational = _counting(monkeypatch, "_rref_mod"), _counting(monkeypatch, "_rref")
    particular, null = solve_affine(*system)
    assert (modular, rational) == ([3], [])
    assert particular == [F(-2), F(0), F(1)]
    assert null == [[F(-2), F(1), F(0)]]
    # an uncertified modular result costs one more elimination, over Fraction
    monkeypatch.setattr(exact, "_lift", lambda a: None)
    modular.clear()
    assert solve_affine(*system) == (particular, null)
    assert (modular, rational) == ([3], [3])


def test_rank():
    assert matrix_rank([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]) == 3
    assert matrix_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1


def test_monomial_exponents():
    assert monomial_exponents(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomial_exponents(3, 0) == [(0, 0, 0)]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
def test_solve_reconstructs_rhs(rows, rhs):
    rhs = rhs[:len(rows)]
    sol = solve_affine(rows, rhs)
    if sol is None:
        assert matrix_rank(rows) < matrix_rank([r + [b] for r, b in zip(rows, rhs)])
        return
    particular, null = sol
    assert mat_vec(rows, particular) == rhs
    assert len(null) == len(rows[0]) - matrix_rank(rows)
    for vec in null:
        assert all(x == 0 for x in mat_vec(rows, vec))


# -- modular elimination against the Fraction reference ---------------------

def _reference_solve(mat, rhs):
    """solve_affine computed directly from _rref of the augmented matrix."""
    ncols = len(mat[0])
    rows, pivots = exact._rref([row + [b] for row, b in zip(mat, rhs)], ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    particular = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][ncols]
    return particular, [[v.get(c, F(0)) for c in range(ncols)]
                        for v in exact._null_basis(rows, pivots, ncols)]


def _exactly(vecs):
    """Sparse vectors as (column, type, value) lists, so key order and
    entry types are compared too."""
    return [[(c, type(x), x) for c, x in v.items()] for v in vecs]


entries = st.one_of(st.just(F(0)), rationals,
                    st.fractions(max_denominator=2 ** 40).map(lambda q: q * 2 ** 31))


# mostly zeros, some plain ints like the integer-scaled congruence rows: the
# rows differ in sparsity, so the sparsest pivot candidate is often not the first
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(F(0)), st.integers(-3, 3), entries)


@st.composite
def systems(draw):
    wide = draw(st.booleans())
    ncols = draw(st.integers(1, 8 if wide else 5))
    cell = sparse_entries if wide else entries
    mat = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                        min_size=1, max_size=7 if wide else 5))
    if len(mat) > 1 and draw(st.booleans()):  # a dependent row
        a, b = draw(rationals), draw(rationals)
        mat.append([a * x + b * y for x, y in zip(mat[0], mat[1])])
    rhs = draw(st.lists(cell, min_size=len(mat), max_size=len(mat)))
    return mat, rhs


@given(systems())
def test_modular_elimination_matches_fraction_rref(system):
    mat, rhs = system
    ncols = len(mat[0])
    rows, pivots = exact._rref(mat, ncols)
    assert matrix_rank(mat) == len(pivots)
    reference = exact._null_basis(rows, pivots, ncols)
    assert _exactly(sparse_nullspace(mat, ncols)) == _exactly(reference)
    assert solve_affine(mat, rhs) == _reference_solve(mat, rhs)


@pytest.mark.parametrize("call,expected,reason", [
    # an entry with no image mod P
    (lambda: sparse_nullspace([[F(1, P), F(1)]], 2), [{1: F(1), 0: F(-P)}], "denominator"),
    # [[P]] is [[0]] mod P: rank 0 there, 1 over Q
    (lambda: matrix_rank([[F(P)]]), 1, "rank-deficit"),
    (lambda: sparse_nullspace([[F(P)]], 1), [], "check"),
    # null-vector entries of height above 2^30
    (lambda: sparse_nullspace([[F(2 ** 31), F(1)]], 2), [{1: F(1), 0: F(-1, 2 ** 31)}],
     "reconstruction"),
    (lambda: sparse_nullspace([[F(1), F(2 ** 31)]], 2), [{1: F(1), 0: F(-2 ** 31)}],
     "reconstruction"),
    # a small fraction congruent to -5^14/3^20 lifts, and fails the check
    (lambda: sparse_nullspace([[F(3 ** 20), F(5 ** 14)]], 2),
     [{1: F(1), 0: F(-5 ** 14, 3 ** 20)}], "check"),
    (lambda: solve_affine([[F(1)], [F(1)]], [F(0), F(1)]), None, "inconsistent"),
])
def test_uncertified_results_fall_back_exactly(caplog, call, expected, reason):
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    assert call() == expected
    assert [(r.name, r.levelno) for r in caplog.records] == [("gkmlef", logging.DEBUG)]
    assert "(%s)" % reason in caplog.records[0].getMessage()


def test_certified_results_log_nothing(caplog):
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    assert matrix_rank([[F(1, 2), F(3)], [F(0), F(5)]]) == 2
    assert sparse_nullspace([[F(1), F(2), F(3)]], 3) == [{1: F(1), 0: F(-2)}, {2: F(1), 0: F(-3)}]
    assert solve_affine([[F(2), F(0)], [F(0), F(3)]], [F(1), F(1)]) == ([F(1, 2), F(1, 3)], [])
    assert caplog.records == []
