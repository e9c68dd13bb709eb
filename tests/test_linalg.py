"""Exact linear algebra: rank, kernel, solving, rational formatting."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference as ref
from nlts.linalg import (
    format_rational,
    ident,
    kernel_basis,
    matmul,
    matvec,
    parse_rational,
    rank,
    solve_linear,
    zeros,
)


def test_rank_known_matrices():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank(zeros(3)) == 0
    assert rank([[0, 1, 0], [0, 0, 1]]) == 2
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_kernel_basis_annihilates():
    A = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    ker = kernel_basis(A, 3)
    assert len(ker) == 3 - rank(A)
    for v in ker:
        assert all(x == 0 for x in matvec(A, v))


def test_kernel_of_full_rank_is_empty():
    assert kernel_basis(ident(3), 3) == []


def test_empty_matrix_keeps_its_width():
    assert rank([]) == 0
    assert kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert solve_linear([], (), 2) == (0, 0)
    assert kernel_basis([{}, {}], 2) == [(1, 0), (0, 1)]


def test_kernel_entries_are_integers_and_normalized():
    ker = kernel_basis([[2, 4], [0, 0]], 2)
    assert ker == [(-2, 1)] or ker == [(2, -1)]
    lead = next(x for x in ker[0] if x != 0)
    assert lead > 0 or ker[0][0] != 0  # first nonzero normalized positive
    first = next(x for x in ker[0] if x != 0)
    assert first > 0


def test_solve_linear_consistent():
    A = [[1, 1], [0, 1]]
    b = (3, 1)
    x = solve_linear(A, b, 2)
    assert x is not None
    assert matvec(A, x) == tuple(b)


def test_solve_linear_underdetermined():
    A = [[1, 1, 1]]
    x = solve_linear(A, (6,), 3)
    assert x is not None
    assert sum(x) == 6


def test_solve_linear_inconsistent():
    A = [[1, 1], [1, 1]]
    assert solve_linear(A, (0, 1), 2) is None


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational("0") == 0
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(-5) == "-5"
    assert parse_rational(format_rational(Fraction(-7, 3))) == Fraction(-7, 3)
    for bad in ("a/b", "1/0", "-3/0", True, False):
        with pytest.raises(ValueError):
            parse_rational(bad)


small_int = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrix(draw, max_dim=4):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(small_int) for _ in range(cols)] for _ in range(rows)]


def sparse_thirds(A):
    """A as ``{column: value}`` rows with every entry divided by 3."""
    return [{c: Fraction(x, 3) for c, x in enumerate(row) if x} for row in A]


def sympy_free_zero_solution(A, b):
    """The solution of A x = b with every free parameter 0, or None."""
    try:
        sol, params = sympy.Matrix(A).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:
        return None
    return tuple(Fraction(int(x.p), int(x.q))
                 for x in sol.subs({p: 0 for p in params}))


@given(int_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(A):
    assert rank(A) == rank(sparse_thirds(A)) == sympy.Matrix(A).rank()


@given(int_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(A):
    cols = len(A[0])
    ker = kernel_basis(A, cols)
    assert ker == [ref.coprime(v) for v in sympy.Matrix(A).nullspace()]
    assert kernel_basis(sparse_thirds(A), cols) == ker
    assert rank(A) + len(ker) == cols
    for v in ker:
        assert all(x == 0 for x in matvec(A, v))
    # kernel vectors are linearly independent
    if ker:
        assert rank(ker) == len(ker)


@given(int_matrix(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_recovers_rhs(A, data):
    cols = len(A[0])
    x0 = [data.draw(small_int) for _ in range(cols)]
    b = matvec(A, x0)
    x = solve_linear(A, b, cols)
    assert x is not None
    assert matvec(A, x) == tuple(b)
    # any right-hand side: sympy's solution with the free parameters 0
    for b in (b, [data.draw(small_int) for _ in A]):
        x = solve_linear(A, b, cols)
        assert x == sympy_free_zero_solution(A, b)
        assert solve_linear(sparse_thirds(A), [Fraction(v, 3) for v in b],
                            cols) == x
