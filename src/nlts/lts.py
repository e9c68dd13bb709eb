"""Lie triple systems, Lie algebras, and their representations.

A Lie triple system of dimension n is stored through its structure
constants: ``table[(i, j, k)]`` is the coordinate vector of the triple
product of basis vectors e_i, e_j, e_k.  Missing keys mean zero.  The
defining axioms are

  * antisymmetry in the first two slots,
  * the cyclic identity  [x,y,z] + [y,z,x] + [z,x,y] = 0,
  * the five-term identity
    [u,v,[x,y,z]] = [[u,v,x],y,z] + [x,[u,v,y],z] + [x,y,[u,v,z]].

A representation on an m-dimensional space V is a bilinear family of
m-by-m matrices theta(x, y) subject to the two standard identities; the
derived family is D(x, y) = theta(y, x) - theta(x, y).
"""

import itertools

from .linalg import (
    matadd,
    mat_iszero,
    matmul,
    matscale,
    matsub,
    matvec,
    vadd,
    viszero,
    vzero,
    zeros,
)


class Report:
    """Outcome of a structural check: a verdict plus explicit witnesses.

    ``violations`` holds one dict per failed identity, each naming the
    identity and the basis indices (and values) where it fails.
    ``warnings`` collects non-fatal notes.  ``data`` carries extra
    structured results specific to the check.
    """

    def __init__(self, ok, violations=None, warnings=None, data=None):
        self.ok = bool(ok)
        self.violations = list(violations or [])
        self.warnings = list(warnings or [])
        self.data = dict(data or {})

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "Report(ok=%r, violations=%d, warnings=%d)" % (
            self.ok, len(self.violations), len(self.warnings))

    def to_dict(self):
        out = {"ok": self.ok, "violations": self.violations}
        if self.warnings:
            out["warnings"] = self.warnings
        if self.data:
            out.update(self.data)
        return out


def _freeze_table(dim, table, arity):
    frozen = {}
    for key, value in table.items():
        key = tuple(int(i) for i in key)
        if len(key) != arity or not all(0 <= i < dim for i in key):
            raise ValueError("bad index tuple %r for dimension %d" % (key, dim))
        vec = tuple(value)
        if len(vec) != dim:
            raise ValueError("coefficient vector at %r has length %d, expected %d"
                             % (key, len(vec), dim))
        if not viszero(vec):
            frozen[key] = vec
    return frozen


class LieTripleSystem:
    """Structure constants of a triple bracket on an n-dimensional space."""

    def __init__(self, dim, table=None):
        self.dim = int(dim)
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.table = _freeze_table(self.dim, table or {}, 3)

    def coeff(self, i, j, k):
        """Bracket of three basis vectors, as a coordinate vector."""
        return self.table.get((i, j, k), vzero(self.dim))

    def bracket(self, x, y, z):
        """Trilinear bracket of three coordinate vectors."""
        n = self.dim
        out = [0] * n
        for i in range(n):
            a = x[i]
            if not a:
                continue
            for j in range(n):
                b = y[j]
                if not b:
                    continue
                ab = a * b
                for k in range(n):
                    c = z[k]
                    if not c:
                        continue
                    w = self.table.get((i, j, k))
                    if w is None:
                        continue
                    s = ab * c
                    for t in range(n):
                        if w[t]:
                            out[t] += s * w[t]
        return tuple(out)

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, LieTripleSystem)
                and self.dim == other.dim and self.table == other.table)

    def __repr__(self):
        return "LieTripleSystem(dim=%d, %d nonzero products)" % (
            self.dim, len(self.table))


class LieAlgebra:
    """Structure constants of a binary bracket on an n-dimensional space."""

    def __init__(self, dim, table=None):
        self.dim = int(dim)
        self.table = _freeze_table(self.dim, table or {}, 2)

    def coeff(self, i, j):
        return self.table.get((i, j), vzero(self.dim))

    def bracket(self, x, y):
        n = self.dim
        out = [0] * n
        for i in range(n):
            a = x[i]
            if not a:
                continue
            for j in range(n):
                b = y[j]
                if not b:
                    continue
                w = self.table.get((i, j))
                if w is None:
                    continue
                s = a * b
                for t in range(n):
                    if w[t]:
                        out[t] += s * w[t]
        return tuple(out)


class Representation:
    """A family of m-by-m matrices theta(e_i, e_j) acting on a space V."""

    def __init__(self, base, vdim, theta):
        self.base = base
        self.vdim = int(vdim)
        n = base.dim
        self.theta = {}
        for i in range(n):
            for j in range(n):
                M = theta.get((i, j)) if isinstance(theta, dict) else theta[i][j]
                M = tuple(tuple(row) for row in (M if M is not None else zeros(vdim)))
                if len(M) != vdim or any(len(r) != vdim for r in M):
                    raise ValueError("theta(%d,%d) is not %d-by-%d" % (i, j, vdim, vdim))
                self.theta[(i, j)] = M

    def theta_vecs(self, x, y):
        """Bilinear extension of theta to coordinate vectors."""
        n = self.base.dim
        out = zeros(self.vdim)
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                out = matadd(out, matscale(x[i] * y[j], self.theta[(i, j)]))
        return out

    def D(self, i, j):
        """D(e_i, e_j) = theta(e_j, e_i) - theta(e_i, e_j)."""
        return matsub(self.theta[(j, i)], self.theta[(i, j)])

    def slot_tensors(self):
        """The action as graded bracket tensors, one per fiber slot.

        A fiber basis vector a in the first slot of a bracket with e_i, e_j
        gives theta(e_i, e_j) a, in the second slot -theta(e_i, e_j) a, and
        in the third slot D(e_i, e_j) a.  Returns the three dicts, keyed
        (a, i, j), (i, a, j) and (i, j, a).
        """
        n, m = self.base.dim, self.vdim
        first, second, third = {}, {}, {}
        for i, j in itertools.product(range(n), repeat=2):
            th, Dm = self.theta[(i, j)], self.D(i, j)
            for a in range(m):
                col = tuple(th[r][a] for r in range(m))
                first[(a, i, j)] = col
                second[(i, a, j)] = tuple(-x for x in col)
                third[(i, j, a)] = tuple(Dm[r][a] for r in range(m))
        return first, second, third


def trivial_rep(system, vdim=1):
    """The zero action on a vdim-dimensional space."""
    n = system.dim
    return Representation(system, vdim,
                          {(i, j): zeros(vdim) for i in range(n) for j in range(n)})


def adjoint_rep(system):
    """The regular action theta(x, y)z = [z, x, y] on the system itself."""
    n = system.dim
    theta = {}
    for i in range(n):
        for j in range(n):
            cols = [system.coeff(c, i, j) for c in range(n)]
            theta[(i, j)] = tuple(tuple(cols[c][r] for c in range(n))
                                  for r in range(n))
    return Representation(system, n, theta)


# ---------------------------------------------------------------------------
# sparse contractions of structure tables

def apply_in_slot(table, M, slot):
    """A sparse table with the matrix M applied in one input slot.

    ``table`` maps index tuples to coordinate vectors (missing keys are
    zero).  The result maps each tuple to the value at it with the basis
    vector in position ``slot`` replaced by its image under M, that is
    sum_a M[a][key[slot]] * table[key with a in position slot].  Only the
    nonzero entries of the table and of M are visited; a value that
    cancels to zero may stay in the result.
    """
    row_support = [[(i, c) for i, c in enumerate(row) if c] for row in M]
    out = {}
    for key, w in table.items():
        head, tail = key[:slot], key[slot + 1:]
        for i, c in row_support[key[slot]]:
            k = head + (i,) + tail
            acc = out.get(k)
            if acc is None:
                out[k] = [c * x if x else x for x in w]
            else:
                for t, x in enumerate(w):
                    if x:
                        acc[t] += c * x
    return {k: tuple(v) for k, v in out.items()}


def add_tables(*tables):
    """Keywise sum of sparse tables (missing keys are zero)."""
    out = {}
    for table in tables:
        for k, w in table.items():
            acc = out.get(k)
            out[k] = w if acc is None else vadd(acc, w)
    return out


# ---------------------------------------------------------------------------
# axiom checks

def check_lts(system):
    """Verify the three defining axioms; witnesses name the failing triple.

    The five-term identity says that each left multiplication
    L = [e_i1, e_i2, .] is a derivation of the bracket.  It is checked for
    every pair (i1, i2) with L nonzero by contracting L with the table:
    L applied to each value against L applied in each input slot.
    """
    n = system.dim
    T = system.table
    violations = []
    for i, j, k in itertools.product(range(n), repeat=3):
        v = vadd(system.coeff(i, j, k), system.coeff(j, i, k))
        if not viszero(v):
            violations.append({
                "axiom": "antisymmetry",
                "at": (i, j, k),
                "value": v,
            })
    for i, j, k in itertools.product(range(n), repeat=3):
        v = vadd(vadd(system.coeff(i, j, k), system.coeff(j, k, i)),
                 system.coeff(k, i, j))
        if not viszero(v):
            violations.append({
                "axiom": "cyclic",
                "at": (i, j, k),
                "value": v,
            })
    zero = vzero(n)
    for i1, i2 in itertools.product(range(n), repeat=2):
        cols = [system.coeff(i1, i2, t) for t in range(n)]
        L = tuple(tuple(col[r] for col in cols) for r in range(n))
        if mat_iszero(L):
            continue
        lhs = {key: matvec(L, w) for key, w in T.items()}
        rhs = add_tables(*(apply_in_slot(T, L, s) for s in range(3)))
        for key in sorted(lhs.keys() | rhs.keys()):
            a, b = lhs.get(key, zero), rhs.get(key, zero)
            if a != b:
                violations.append({
                    "axiom": "five-term",
                    "at": (i1, i2) + key,
                    "lhs": a,
                    "rhs": b,
                })
    return Report(not violations, violations)


def check_lie_algebra(algebra):
    """Antisymmetry and the Jacobi identity, with witnesses."""
    n = algebra.dim
    violations = []
    for i, j in itertools.product(range(n), repeat=2):
        v = vadd(algebra.coeff(i, j), algebra.coeff(j, i))
        if not viszero(v):
            violations.append({"axiom": "antisymmetry", "at": (i, j), "value": v})
    e = [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        v = vadd(vadd(algebra.bracket(e[i], algebra.coeff(j, k)),
                      algebra.bracket(e[j], algebra.coeff(k, i))),
                 algebra.bracket(e[k], algebra.coeff(i, j)))
        if not viszero(v):
            violations.append({"axiom": "jacobi", "at": (i, j, k), "value": v})
    return Report(not violations, violations)


def lts_from_lie_algebra(algebra):
    """The triple system [x, y, z] = [[x, y], z] of a Lie algebra.

    Raises ValueError when the input fails the Lie algebra axioms.
    """
    report = check_lie_algebra(algebra)
    if not report:
        first = report.violations[0]
        raise ValueError("not a Lie algebra: %s fails at %r"
                         % (first["axiom"], first["at"]))
    n = algebra.dim
    e = [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]
    table = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        table[(i, j, k)] = algebra.bracket(algebra.coeff(i, j), e[k])
    return LieTripleSystem(n, table)


def check_representation(rep):
    """Verify the two representation identities on all basis 4-tuples."""
    system = rep.base
    n = system.dim
    m = rep.vdim
    violations = []
    th = rep.theta
    D = {(i, j): rep.D(i, j) for i in range(n) for j in range(n)}
    for i1, i2, i3, i4 in itertools.product(range(n), repeat=4):
        w = system.coeff(i2, i3, i4)
        acc = zeros(m)
        for t in range(n):
            if w[t]:
                acc = matadd(acc, matscale(w[t], th[(i1, t)]))
        lhs = matsub(matmul(th[(i3, i4)], th[(i1, i2)]),
                     matmul(th[(i2, i4)], th[(i1, i3)]))
        lhs = matsub(lhs, acc)
        lhs = matadd(lhs, matmul(D[(i2, i3)], th[(i1, i4)]))
        if not mat_iszero(lhs):
            violations.append({
                "identity": "pair-action",
                "at": (i1, i2, i3, i4),
                "value": lhs,
            })
        w123 = system.coeff(i1, i2, i3)
        w124 = system.coeff(i1, i2, i4)
        acc1 = zeros(m)
        for t in range(n):
            if w123[t]:
                acc1 = matadd(acc1, matscale(w123[t], th[(t, i4)]))
        acc2 = zeros(m)
        for t in range(n):
            if w124[t]:
                acc2 = matadd(acc2, matscale(w124[t], th[(i3, t)]))
        lhs2 = matsub(matmul(th[(i3, i4)], D[(i1, i2)]),
                      matmul(D[(i1, i2)], th[(i3, i4)]))
        lhs2 = matadd(matadd(lhs2, acc1), acc2)
        if not mat_iszero(lhs2):
            violations.append({
                "identity": "derivation-action",
                "at": (i1, i2, i3, i4),
                "value": lhs2,
            })
    return Report(not violations, violations)


# ---------------------------------------------------------------------------
# stock systems

def l2():
    """The 2-dimensional system with [e1,e2,e2] = e1 = -[e2,e1,e2].

    This is the triple system of the nonabelian 2-dimensional Lie
    algebra; all other basis products vanish.  For x = x0*e1 + x1*e2 the
    bracket is [x,y,z] = det(x,y) * z1 * e1, with det(x,y) = x0*y1 - x1*y0.

    Every linear operator N = ((a, b), (c, d)) on it is Nijenhuis: the
    bracket has values in the line of e1, and both sides of the identity
    reduce to det(x,y) * (c*z0 + d*z1) * det(N) * e1.  This is why a grid
    search on this system returns every candidate.
    """
    return LieTripleSystem(2, {(0, 1, 1): (1, 0), (1, 0, 1): (-1, 0)})


def abelian(n):
    """The n-dimensional system with identically zero bracket."""
    return LieTripleSystem(n, {})


def sl2_lie():
    """sl2 with basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(3, {
        (0, 1): (0, 2, 0), (1, 0): (0, -2, 0),
        (0, 2): (0, 0, -2), (2, 0): (0, 0, 2),
        (1, 2): (1, 0, 0), (2, 1): (-1, 0, 0),
    })


def solv3_lie():
    """A solvable 3-dimensional Lie algebra: [e1,e3] = e1, [e2,e3] = e2."""
    return LieAlgebra(3, {
        (0, 2): (1, 0, 0), (2, 0): (-1, 0, 0),
        (1, 2): (0, 1, 0), (2, 1): (0, -1, 0),
    })


def direct_sum(a, b):
    """Componentwise triple bracket on the direct sum of two systems."""
    n, p = a.dim, b.dim
    table = {}
    for (i, j, k), w in a.table.items():
        table[(i, j, k)] = w + vzero(p)
    for (i, j, k), w in b.table.items():
        table[(i + n, j + n, k + n)] = vzero(n) + w
    return LieTripleSystem(n + p, table)
