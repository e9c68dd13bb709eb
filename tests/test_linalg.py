"""Exact linear algebra: rank, kernel, solving, rational formatting."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference as ref
from nlts import jsonio
from nlts.cli import jsonable
from nlts.linalg import (
    as_matrix,
    dot,
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
from nlts.operators import _Poly


def test_as_matrix():
    assert as_matrix([[1, 2], (3, Fraction(1, 2))], 2, 2, "M") \
        == ((1, 2), (3, Fraction(1, 2)))
    assert as_matrix([], 0, 3, "M") == ()
    for M in ([[1, 2]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ValueError, match="^M must be a 2-by-2 matrix$"):
            as_matrix(M, 2, 2, "M")


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


# ---------------------------------------------------------------------------
# products: the sparse dot, matvec and matmul against the full sum

def full_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


sparse_scalar = st.one_of(
    st.just(0), st.just(0), small_int,
    st.builds(Fraction, small_int, st.integers(min_value=1, max_value=4)))


@st.composite
def sparse_product(draw):
    """A (rows x inner) matrix and an (inner x cols) matrix of mostly zero
    int and Fraction entries, some rows and columns all zero."""
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=5))
                         for _ in range(3))
    A = [[draw(sparse_scalar) for _ in range(inner)] for _ in range(rows)]
    B = [[draw(sparse_scalar) for _ in range(cols)] for _ in range(inner)]
    A[draw(st.integers(0, rows - 1))] = [0] * inner
    zero_col = draw(st.integers(0, cols - 1))
    for row in B:
        row[zero_col] = 0
    return tuple(map(tuple, A)), tuple(map(tuple, B))


@given(sparse_product())
@settings(max_examples=200, deadline=None)
def test_products_equal_full_sums(AB):
    A, B = AB
    columns = list(zip(*B))
    assert matmul(A, B) == tuple(tuple(full_dot(row, col) for col in columns)
                                 for row in A)
    for col in columns:
        assert matvec(A, col) == tuple(full_dot(row, col) for row in A)
        for row in A:
            assert dot(row, col) == full_dot(row, col)


@given(sparse_product())
@settings(max_examples=50, deadline=None)
def test_products_on_polynomial_entries(AB):
    A, B = AB
    x = lambda k: _Poly({(k,): 1})
    poly_A = tuple(tuple(c * x(r) for c in row) for r, row in enumerate(A))
    v = tuple(x(10 + j) + row[0] for j, row in enumerate(B))
    for got, want in zip(matvec(poly_A, v),
                         (full_dot(row, v) for row in poly_A)):
        assert (got or 0) == (want or 0)
    columns = list(zip(*B))
    for got, row in zip(matmul(poly_A, B), poly_A):
        assert [g or 0 for g in got] == [full_dot(row, col) or 0
                                         for col in columns]


def test_zero_products_render_as_zero():
    Z = matmul(zeros(2), ((Fraction(1, 2), 0), (0, Fraction(3))))
    assert Z == ((0, 0), (0, 0))
    assert {type(x) for row in Z for x in row} == {int}
    assert matvec(((Fraction(1, 2), 0),), (0, 5)) == (0,)
    assert dot((Fraction(1, 2), 0), (0, Fraction(5))) == 0
    assert {format_rational(x) for row in Z for x in row} == {"0"}
    assert jsonio.operator_to_obj(Z)["matrix"] == [["0", "0"], ["0", "0"]]
    assert jsonable(Z) == [[0, 0], [0, 0]]
