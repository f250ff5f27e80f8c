from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkmlef import exact
from gkmlef.exact import (format_rational, mat_vec, matrix_rank,
                          monomial_exponents, monomial_residue, parse_rational,
                          solve_affine)

F = Fraction


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"
    for bad in ("1.5", "pi", "", "1/0x"):
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


def test_solve_affine_eliminates_once(monkeypatch):
    calls = []
    rref = exact._rref

    def counting(mat, ncols):
        calls.append(ncols)
        return rref(mat, ncols)

    monkeypatch.setattr(exact, "_rref", counting)
    particular, null = solve_affine([[F(1), F(2), F(3)], [F(2), F(4), F(7)]], [F(1), F(3)])
    assert calls == [3]
    assert particular == [F(-2), F(0), F(1)]
    assert null == [[F(-2), F(1), F(0)]]


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
