"""Exact rational linear algebra used throughout the package.

Scalars are Python ints or ``fractions.Fraction``; vectors are tuples of
scalars and matrices are tuples of row tuples.  All functions are pure:
inputs are never mutated and results are returned as fresh tuples.
The products ``dot``, ``matvec`` and ``matmul`` multiply only pairs of
nonzero factors, reading the nonzero entries of each vector or column
once, because the matrices of the identity checks are mostly zero.

``rank``, ``kernel_basis`` and ``solve_linear`` also take sparse rows,
``{column: value}`` dicts.  Each row is read once into a dict of coprime
integers, and all three read their answer off one reduced row echelon
form of such rows (``_rref``): the rank is its number of pivots, the
kernel has one vector per free column, and a solution sets every free
variable to 0.
"""

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction


def parse_rational(s):
    """Parse "p/q" or "p" (also accepts ints) into an exact scalar.

    Raises ValueError on anything else, including booleans and a zero
    denominator.
    """
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return s
    if not isinstance(s, str):
        raise ValueError("expected a rational string like '3/2', got %r" % (s,))
    text = s.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError("zero denominator in %r" % (s,))
        value = Fraction(int(num), int(den))
    else:
        value = Fraction(int(text))
    return int(value) if value.denominator == 1 else value


def format_rational(x):
    """Render an exact scalar as "p" or "p/q"."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


# ---------------------------------------------------------------------------
# vector and matrix helpers

def vzero(n):
    return (0,) * n


def viszero(v):
    return all(x == 0 for x in v)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v):
    return tuple(c * a for a in v)


def _support(v):
    """The (index, value) pairs of the nonzero entries of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def _sparse_dot(row, support):
    """Sum of row[j] * x over the support of a vector, skipping zero
    row[j]; a sum with no terms is the int 0."""
    return sum(row[j] * x for j, x in support if row[j])


def dot(u, v):
    return _sparse_dot(u, _support(v))


def zeros(rows, cols=None):
    if cols is None:
        cols = rows
    return tuple((0,) * cols for _ in range(rows))


def ident(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def as_matrix(M, rows, cols, name):
    """M as a tuple of row tuples; ValueError unless it is rows-by-cols."""
    M = tuple(tuple(row) for row in M)
    if len(M) != rows or any(len(row) != cols for row in M):
        raise ValueError("%s must be a %d-by-%d matrix" % (name, rows, cols))
    return M


def matvec(M, v):
    support = _support(v)
    return tuple(_sparse_dot(row, support) for row in M)


def matmul(A, B):
    supports = [_support(col) for col in zip(*B)]
    return tuple(tuple(_sparse_dot(row, s) for s in supports) for row in A)


def matadd(A, B):
    return tuple(vadd(r, s) for r, s in zip(A, B))


def matsub(A, B):
    return tuple(vsub(r, s) for r, s in zip(A, B))


def matscale(c, A):
    return tuple(vscale(c, row) for row in A)


def mat_iszero(A):
    return all(viszero(row) for row in A)


def integer_scaled(table):
    """(den, den * table) for a ``{key: vector}`` dict or a matrix of
    rationals, den the lcm of their denominators; (1, table) at den == 1.
    A check of degree k in the table divides its values back by den**k."""
    rows = table.values() if isinstance(table, dict) else table
    den = lcm(*{x.denominator for row in rows for x in row})
    if den == 1:
        return 1, table
    rows = tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows)
    return den, dict(zip(table, rows)) if isinstance(table, dict) else rows


def vdiv(v, den):
    """v divided by den, exactly; v itself at den == 1."""
    return v if den == 1 else tuple(Fraction(x, den) for x in v)


# ---------------------------------------------------------------------------
# elimination

def _entries(row):
    """The (column, value) pairs of a dense or ``{column: value}`` row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _clear_row(row):
    """A dense or ``{column: value}`` row of rationals as ``{column: int}``:
    zeros dropped, denominators cleared, divided by the gcd (sign kept)."""
    row = {c: x for c, x in _entries(row) if x}
    _, (ints,) = integer_scaled((tuple(row.values()),))
    return _primitive({c: x.numerator for c, x in zip(row, ints)})


def _primitive(row):
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _eliminate(row, pivot_row, c):
    """``row`` with column c cleared by ``pivot_row``, as a primitive row.

    The multiplier of ``row`` is positive, so its sign is kept."""
    p, a = pivot_row[c], row[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {k: p * x for k, x in row.items()}
    for k, x in pivot_row.items():
        v = out.get(k, 0) - a * x
        if v:
            out[k] = v
        else:
            del out[k]
    return _primitive(out)


def _rref(rows):
    """The reduced row echelon form of a matrix, as ``{pivot column: row}``.

    Each row is a primitive integer ``{column: value}`` dict with a
    positive pivot and zeros in every other pivot column.  Rows are taken
    shortest first; each is reduced by the pivot rows so far, and a
    nonzero remainder becomes the pivot row of its first column and is
    cleared from the earlier pivot rows.  The reduced echelon form of a
    matrix is unique, so the pivots are the leftmost echelon pivots and
    the result does not depend on the order the rows are taken in.
    """
    echelon = {}
    for row in sorted(map(_clear_row, rows), key=len):
        for c in [c for c in row if c in echelon]:
            row = _eliminate(row, echelon[c], c)
        if not row:
            continue
        lead = min(row)
        if row[lead] < 0:
            row = {c: -x for c, x in row.items()}
        for c, other in echelon.items():
            if lead in other:
                echelon[c] = _eliminate(other, row, lead)
        echelon[lead] = row
    return echelon


def rank(rows):
    """Rank of a matrix given as dense or ``{column: value}`` rows."""
    return len(_rref(rows))


def _tidy(vec, ncols):
    """A ``{column: rational}`` vector as a tuple of ncols coprime
    integers, first nonzero entry positive."""
    ints = _clear_row(vec)
    sign = -1 if ints and ints[min(ints)] < 0 else 1
    out = [0] * ncols
    for c, x in ints.items():
        out[c] = sign * x
    return tuple(out)


def kernel_basis(rows, ncols):
    """Deterministic basis of the right null space of a matrix with ncols
    columns, given as dense or ``{column: value}`` rows.

    Returns a list of integer vectors, one per free column in increasing
    column order, each normalized to coprime entries with the first
    nonzero entry positive.  An empty list means the kernel is trivial.
    """
    echelon = _rref(rows)
    return [_tidy({f: 1, **{c: Fraction(-row[f], row[c])
                            for c, row in echelon.items() if f in row}},
                  ncols)
            for f in range(ncols) if f not in echelon]


def solve_linear(rows, rhs, ncols):
    """One solution of A x = b in ncols unknowns, or None if the system is
    inconsistent; the rows of A are dense or ``{column: value}``.

    Free variables are set to 0, so the answer is deterministic.  Entries
    are ints where possible, Fractions otherwise.
    """
    echelon = _rref({**dict(_entries(row)), ncols: b}
                    for row, b in zip(rows, rhs))
    if ncols in echelon:
        return None
    x = [0] * ncols
    for c, row in echelon.items():
        x[c] = Fraction(row.get(ncols, 0), row[c])
    return tuple(int(v) if v.denominator == 1 else v for v in x)
