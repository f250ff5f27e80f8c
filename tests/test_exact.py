import logging
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from gkmlef import exact
from gkmlef.exact import (format_ratio, format_rational, mat_vec, matrix_rank, monomial_exponents,
                          monomial_residue, parse_rational, solve, sparse_nullspace)

F = Fraction


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"
    for bad in ("1.5", "pi", "", "1/0x", "1/0", "-3/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(), st.integers(1, 3))
def test_parse_rational_is_fraction_of_the_literal(q, pad):
    # numerator and denominator as ints, zero-padded denominators included
    literal = "%d/%s" % (q.numerator * pad, str(q.denominator * pad).zfill(4))
    assert parse_rational(" %s " % literal) == Fraction(literal) == q
    assert parse_rational(str(q.numerator)) == F(q.numerator)


def test_format_rational_takes_ints_fractions_and_what_fraction_takes():
    assert [format_rational(x) for x in (7, -3, F(6, -8), "6/8", 0.5, True)] == \
        ["7", "-3", "-3/4", "3/4", "1/2", "1"]


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(-50, 50))
def test_format_ratio_writes_the_fraction_of_its_ints(n, d, k):
    # k * d is a multiple of d, 0 when k is 0
    for num, den in ((n, d), (n, 1), (0, d), (k * d, d), (-abs(n), d)):
        assert format_ratio(num, den) == format_rational(Fraction(num, den)), (num, den)


def test_format_ratio_reduces_and_keeps_the_sign_on_the_numerator():
    assert [format_ratio(n, d) for n, d in ((0, 7), (-6, 8), (6, 3), (-9, 3), (5, 1), (4, 6))] \
        == ["0", "-3/4", "2", "-3", "5", "2/3"]


def test_integer_form_scales_by_the_lcm_of_the_denominators():
    assert exact.integer_form({"a": F(1, 2), "b": F(-2, 3), "c": 4, "d": F(0)}) == \
        ({"a": 3, "b": -4, "c": 24, "d": 0}, 6)
    assert exact.integer_form({"a": F(5)}) == ({"a": 5}, 1)
    assert exact.integer_form({}) == ({}, 1)


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


def _solve(mat, rhs):
    """mat * x = rhs by solve: None if inconsistent, else (particular, null
    basis) as dense lists."""
    ncols = len(mat[0])
    point, basis = solve(mat, rhs, ncols)
    if point is None:
        return None
    return _dense([point], ncols)[0], _dense(basis, ncols)


def _dense(vecs, ncols):
    return [[v.get(c, F(0)) for c in range(ncols)] for v in vecs]


def test_solve_affine_unique():
    A = [[F(1), F(0)], [F(0), F(1)]]
    sol = _solve(A, [F(1), F(2)])
    assert sol == ([F(1), F(2)], [])


def test_solve_affine_line():
    sol = _solve([[F(1), F(1)]], [F(0)])
    particular, null = sol
    assert mat_vec([[F(1), F(1)]], particular) == [F(0)]
    assert len(null) == 1
    x, y = null[0]
    assert x == -y != 0


def test_solve_affine_empty():
    assert _solve([[F(1)], [F(1)]], [F(0), F(1)]) is None


def test_solve_takes_one_right_hand_side_value_per_row():
    for rhs in ([F(1)], [F(1), F(1), F(1)]):
        with pytest.raises(ValueError):
            solve([[F(1)], [F(1)]], rhs, 1)


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
    calls = _counting(monkeypatch, "_rref")
    particular, null = _solve([[F(1), F(2), F(3)], [F(2), F(4), F(7)]], [F(1), F(3)])
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
    sol = _solve(rows, rhs)
    if sol is None:
        assert matrix_rank(rows) < matrix_rank([r + [b] for r, b in zip(rows, rhs)])
        return
    particular, null = sol
    assert mat_vec(rows, particular) == rhs
    assert len(null) == len(rows[0]) - matrix_rank(rows)
    for vec in null:
        assert all(x == 0 for x in mat_vec(rows, vec))


# -- integer elimination against the Fraction reference ----------------------

P = (1 << 61) - 1  # a prime; the hard cases below defeat elimination mod P


def _reference_rref(mat, ncols):
    """Dense reduced row echelon form over Fraction: (rows, pivot_cols)."""
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


def _reference_null_basis(rows, pivots, ncols):
    """One sparse vector per free column: its 1, then the nonzero pivot
    entries in pivot order."""
    basis = {fc: {fc: F(1)} for fc in range(ncols) if fc not in pivots}
    for row, pc in zip(rows, pivots):
        for c in basis:
            if row[c]:
                basis[c][pc] = -row[c]
    return list(basis.values())


def _reference_solve(mat, rhs):
    """solve by _reference_rref of the augmented matrix: (point or None,
    null basis), sparse."""
    ncols = len(mat[0])
    rows, pivots = _reference_rref([list(row) + [b] for row, b in zip(mat, rhs)], ncols)
    basis = _reference_null_basis(rows, pivots, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None, basis
    return {pc: row[ncols] for row, pc in zip(rows, pivots) if row[ncols]}, basis


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
def test_integer_elimination_matches_fraction_rref(system):
    mat, rhs = system
    ncols = len(mat[0])
    rows, pivots = _reference_rref(mat, ncols)
    assert matrix_rank(mat) == len(pivots)
    reference = _reference_null_basis(rows, pivots, ncols)
    assert _exactly(sparse_nullspace(mat, ncols)) == _exactly(reference)
    point, basis = _reference_solve(mat, rhs)
    got, got_basis = solve(mat, rhs, ncols)
    assert _exactly(got_basis) == _exactly(basis)
    assert got is point is None or _exactly([got]) == _exactly([point])


@given(st.integers(1, 6), st.booleans(), st.booleans(), st.data())
def test_rank_of_a_single_row_or_column_needs_no_elimination(m, column, zero, data):
    cells = [0] * m if zero else data.draw(
        st.lists(sparse_entries, min_size=m, max_size=m), label="cells")
    mat = [[x] for x in cells] if column else [cells]
    ncols = len(mat[0])
    expected = len(_reference_rref(mat, ncols)[1])
    with mock.patch.object(exact, "_rref", side_effect=AssertionError("eliminated")):
        assert matrix_rank(mat) == expected == int(any(cells))


@given(st.integers(0, 6), st.booleans(), st.sampled_from(["drawn", "zero", "multiple"]),
       st.data())
def test_rank_of_two_rows_or_columns_needs_no_elimination(m, column, second, data):
    # m entries per row, m = 0 included; the second row drawn, all zeros or
    # a multiple of the first, and the first one all zeros now and then
    cells = st.lists(sparse_entries, min_size=m, max_size=m)
    first = data.draw(st.just([0] * m) | cells, label="first")
    if second == "drawn":
        other = data.draw(cells, label="second")
    else:
        factor = 0 if second == "zero" else data.draw(rationals, label="factor")
        other = [factor * x for x in first]
    mat = [list(row) for row in zip(first, other)] if column else [first, other]
    expected = len(exact._rref(exact._sparse(mat), 2 if column else m)[1])
    with mock.patch.object(exact, "_rref", side_effect=AssertionError("eliminated")):
        assert matrix_rank(mat) == expected


# Systems on which an elimination mod P cannot be certified, labelled by the
# reason it fails there; the integer elimination solves each exactly.
@pytest.mark.parametrize("call,expected,reason", [
    # an entry with no image mod P
    (lambda: sparse_nullspace([[F(1, P), F(1)]], 2), [{1: F(1), 0: F(-P)}], "denominator"),
    # [[P]] is [[0]] mod P: rank 0 there, 1 over Q
    (lambda: matrix_rank([[F(P)]]), 1, "rank-deficit"),
    (lambda: sparse_nullspace([[F(P)]], 1), [], "check"),
    # null-vector entries of height above 2^30, beyond rational reconstruction
    (lambda: sparse_nullspace([[F(2 ** 31), F(1)]], 2), [{1: F(1), 0: F(-1, 2 ** 31)}],
     "reconstruction"),
    (lambda: sparse_nullspace([[F(1), F(2 ** 31)]], 2), [{1: F(1), 0: F(-2 ** 31)}],
     "reconstruction"),
    # -5^14/3^20 is congruent mod P to a small fraction that is no null vector
    (lambda: sparse_nullspace([[F(3 ** 20), F(5 ** 14)]], 2),
     [{1: F(1), 0: F(-5 ** 14, 3 ** 20)}], "check"),
    (lambda: solve([[F(1)], [F(1)]], [F(0), F(1)], 1)[0], None, "inconsistent"),
    # an inconsistent system still returns the null basis of its matrix
    (lambda: solve([[F(1), F(0)], [F(1), F(0)]], [F(0), F(1)], 2), (None, [{1: F(1)}]),
     "inconsistent"),
])
def test_uncertified_results_fall_back_exactly(caplog, call, expected, reason):
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    result = call()
    assert result == expected
    assert repr(result) == repr(expected)  # Fraction entries, in the same key order
    assert caplog.records == []


def test_certified_results_log_nothing(caplog):
    caplog.set_level(logging.DEBUG, logger="gkmlef")
    assert matrix_rank([[F(1, 2), F(3)], [F(0), F(5)]]) == 2
    assert sparse_nullspace([[F(1), F(2), F(3)]], 3) == [{1: F(1), 0: F(-2)}, {2: F(1), 0: F(-3)}]
    assert _solve([[F(2), F(0)], [F(0), F(3)]], [F(1), F(1)]) == ([F(1, 2), F(1, 3)], [])
    assert caplog.records == []
