"""Exact rational linear algebra used throughout the package.

Scalars are Python ints or ``fractions.Fraction``; vectors are tuples of
scalars and matrices are tuples of row tuples.  All functions are pure:
inputs are never mutated and results are returned as fresh tuples.

Elimination is done fraction-free (Bareiss) on integer-cleared rows, so
intermediate entries stay integers of modest size; only the final
back-substitution steps touch ``Fraction``.
"""

from fractions import Fraction
from math import gcd

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


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def zeros(rows, cols=None):
    if cols is None:
        cols = rows
    return tuple((0,) * cols for _ in range(rows))


def ident(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat(rows):
    """Freeze a nested sequence into a tuple-of-tuples matrix."""
    return tuple(tuple(row) for row in rows)


def matvec(M, v):
    return tuple(dot(row, v) for row in M)


def matmul(A, B):
    bt = tuple(zip(*B))
    return tuple(tuple(dot(row, col) for col in bt) for row in A)


def matadd(A, B):
    return tuple(vadd(r, s) for r, s in zip(A, B))


def matsub(A, B):
    return tuple(vsub(r, s) for r, s in zip(A, B))


def matscale(c, A):
    return tuple(vscale(c, row) for row in A)


def mat_iszero(A):
    return all(viszero(row) for row in A)


# ---------------------------------------------------------------------------
# elimination

def _clear_row(row):
    """Scale a row of rationals to coprime integers (sign preserved)."""
    lcm = 1
    for x in row:
        d = Fraction(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(x * lcm) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _bareiss(rows):
    """Fraction-free row echelon form.

    Returns (echelon, pivot_cols) where echelon is a list of integer rows
    in echelon order and pivot_cols lists the pivot column of each row.
    Pivot choice is the first nonzero entry scanning top to bottom, so the
    result is deterministic.
    """
    M = [_clear_row(row) for row in rows]
    M = [row for row in M if any(row)]
    if not M:
        return [], []
    ncols = len(M[0])
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(M)):
            if M[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        p = M[r][c]
        for i in range(r + 1, len(M)):
            mi = M[i]
            fi = mi[c]
            mr = M[r]
            for j in range(ncols):
                mi[j] = (p * mi[j] - fi * mr[j]) // prev
        pivots.append(c)
        prev = p
        r += 1
        if r == len(M):
            break
    return M[:r], pivots


def rank(rows):
    """Rank of a matrix (any sequence of rational rows)."""
    if not rows or not rows[0]:
        return 0
    _, pivots = _bareiss(rows)
    return len(pivots)


def _back_substitute(echelon, pivots, ncols, free_col=None, rhs=None):
    """Solve the echelon system for one vector.

    With ``free_col`` set, computes the kernel vector that has 1 in that
    free column and 0 in the other free columns.  With ``rhs`` set (values
    aligned with the echelon rows), computes a particular solution with
    all free variables 0.
    """
    x = [Fraction(0)] * ncols
    if free_col is not None:
        x[free_col] = Fraction(1)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = echelon[i]
        acc = Fraction(rhs[i]) if rhs is not None else Fraction(0)
        for j in range(c + 1, ncols):
            if row[j] != 0 and x[j] != 0:
                acc -= row[j] * x[j]
        x[c] = acc / row[c]
    return x


def _tidy(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    ints = _clear_row(vec)
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def kernel_basis(rows):
    """Deterministic basis of the right null space.

    Returns a list of integer vectors, one per free column in increasing
    column order, each normalized to coprime entries with the first
    nonzero entry positive.  An empty list means the kernel is trivial.
    """
    if not rows or not rows[0]:
        return []
    ncols = len(rows[0])
    echelon, pivots = _bareiss(rows)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        basis.append(_tidy(_back_substitute(echelon, pivots, ncols, free_col=c)))
    return basis


def solve_linear(rows, rhs):
    """One solution of A x = b, or None if the system is inconsistent.

    Free variables are set to 0, so the answer is deterministic.  Entries
    are ints where possible, Fractions otherwise.
    """
    if not rows:
        return () if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    echelon, pivots = _bareiss(augmented)
    if pivots and pivots[-1] == ncols:
        return None
    rhs_col = [row[ncols] for row in echelon]
    body = [row[:ncols] for row in echelon]
    x = _back_substitute(body, pivots, ncols, rhs=rhs_col)
    return tuple(int(v) if v.denominator == 1 else v for v in x)
