"""Small exact helpers the benchmark uses to build inputs and re-check outputs.

They work on plain structure-constant dicts ``{(i, j, k): vector}`` and
tuple-of-rows matrices, and call nothing in ``nlts``, so a verdict the
benchmark re-checks here does not rest on the code under test.
"""

import itertools
from fractions import Fraction


def matvec(M, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in M)


def matmul(A, B):
    cols = list(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def bracket(table, n, x, y, z):
    """Trilinear extension of a structure-constant table."""
    out = [0] * n
    for (i, j, k), w in table.items():
        c = x[i] * y[j] * z[k]
        if c:
            for t in range(n):
                out[t] += c * w[t]
    return tuple(out)


def nijenhuis_ok(table, n, N):
    """[Nx,Ny,Nz] = N([x,y,z]_N) on all basis triples."""
    e = identity(n)
    Ne = [matvec(N, v) for v in e]
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z, Nx, Ny, Nz = e[i], e[j], e[k], Ne[i], Ne[j], Ne[k]
        two = [a + b + c for a, b, c in zip(bracket(table, n, Nx, Ny, z),
                                            bracket(table, n, x, Ny, Nz),
                                            bracket(table, n, Nx, y, Nz))]
        one = [a + b + c for a, b, c in zip(bracket(table, n, Nx, y, z),
                                            bracket(table, n, x, Ny, z),
                                            bracket(table, n, x, y, Nz))]
        inner = [a - b for a, b in zip(one, matvec(N, bracket(table, n, x, y, z)))]
        rhs = matvec(N, [a - b for a, b in zip(two, matvec(N, inner))])
        if bracket(table, n, Nx, Ny, Nz) != rhs:
            return False
    return True


def dense_basis(rng, n):
    """A seeded integer change of basis of determinant +-1, and its inverse.

    P = D S: D is the product of the all-ones lower and upper unitriangular
    matrices (so every entry of D is nonzero) and S is a seeded signed
    permutation.  Structure constants in the basis P are denser than the
    stock ones, and every seed gives tables of the same density and size:
    the seed changes the inputs, not the amount of work.  No isomorphism
    invariant changes.
    """
    L = [[int(i >= j) for j in range(n)] for i in range(n)]
    U = [[int(i <= j) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    S = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)]
         for i in range(n)]
    P = matmul(matmul(L, U), S)
    return P, inverse(P)


def inverse(P):
    """Exact inverse by Gauss-Jordan; integer entries stay ints."""
    n = len(P)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(P)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c])
        M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        M[c] = [x / piv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return tuple(tuple(int(x) if x.denominator == 1 else x for x in row[n:])
                 for row in M)


def transform_table(table, n, P, Pinv):
    """Structure constants in the basis given by the columns of P."""
    cols = [tuple(P[r][c] for r in range(n)) for c in range(n)]
    out = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        v = matvec(Pinv, bracket(table, n, cols[i], cols[j], cols[k]))
        if any(v):
            out[(i, j, k)] = v
    return out


def conjugate(N, P, Pinv):
    return matmul(matmul(Pinv, N), P)


def rank(rows):
    """Rank over Q by plain Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in rows if any(row)]
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        for i in range(r + 1, len(M)):
            if M[i][c]:
                f = M[i][c] / M[r][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


def is_isomorphism(eta, table1, table2, N1, N2, size):
    """eta carries the first bracket and operator onto the second."""
    e = identity(size)
    images = [matvec(eta, v) for v in e]
    for i, j, k in itertools.product(range(size), repeat=3):
        lhs = matvec(eta, table1.get((i, j, k), (0,) * size))
        if lhs != bracket(table2, size, images[i], images[j], images[k]):
            return False
    return all(matvec(eta, matvec(N1, v)) == matvec(N2, w)
               for v, w in zip(e, images))
