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
derived family is D(x, y) = theta(y, x) - theta(x, y).  The action is
one graded bracket on T + V, stored as slot tables: a fiber argument a
in the first slot of a bracket with x, y gives theta(x, y) a, in the
second slot -theta(x, y) a, in the third slot D(x, y) a, and two or
more fiber arguments give zero.  The two representation identities are
the five-term identity of this bracket with one fiber argument, and
every other identity of the action is a contraction of its slot tables.
"""

import itertools
from operator import itemgetter

from .linalg import (as_matrix, integer_scaled, mat_iszero, matsub, matvec,
                     vadd, vdiv, viszero, vzero, zeros)


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
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
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


class Representation:
    """A family of m-by-m matrices theta(e_i, e_j) acting on a space V."""

    def __init__(self, base, vdim, theta):
        self.base = base
        self.vdim = int(vdim)
        self.theta = {}
        for i, j in itertools.product(range(base.dim), repeat=2):
            M = theta.get((i, j)) if isinstance(theta, dict) else theta[i][j]
            self.theta[(i, j)] = as_matrix(zeros(vdim) if M is None else M,
                                           vdim, vdim, "theta(%d,%d)" % (i, j))
        if isinstance(theta, dict) and not theta.keys() <= self.theta.keys():
            raise ValueError("theta at %r is outside the base pairs"
                             % (min(theta.keys() - self.theta.keys()),))

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
    return Representation(system, n, slot_matrices(system.table, n, n, 0))


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


def slot_matrices(table, n, m, slot):
    """The matrices of a table with a fiber index in one slot.

    ``table`` maps index tuples, with a fiber index (below m) in position
    ``slot`` and base indices (below n) in the other two, to vectors of
    length m; missing keys are zero.  The result maps each base pair
    (i, j) to the m-by-m matrix whose column a is the value at the tuple
    with a in position slot and i, j in the others, in order.  This reads
    the action back off ``Representation.slot_tensors``.
    """
    zero = vzero(m)
    out = {}
    for key in itertools.product(range(n), repeat=2):
        head, tail = key[:slot], key[slot:]
        cols = [table.get(head + (a,) + tail, zero) for a in range(m)]
        out[key] = tuple(zip(*cols))
    return out


def insert_in_slot(f, args, pos, w, m):
    """f at args with the coefficient vector w substituted into slot pos."""
    acc = None
    for t, c in enumerate(w):
        if not c:
            continue
        v = f[args[:pos] + (t,) + args[pos + 1:]]
        if acc is None:
            acc = [c * x for x in v]
        else:
            for a in range(m):
                acc[a] += c * v[a]
    if acc is None:
        return vzero(m)
    return tuple(acc)


# The five-term defect of a graded bracket,
#
#   F(y1,...,y5) = -[y1,y2,[y3,y4,y5]] + [y3,[y1,y2,y4],y5]
#                  + [[y1,y2,y3],y4,y5] + [y3,y4,[y1,y2,y5]],
#
# as (sign, inner, outer): inner lists the argument positions of the
# inner bracket, outer those of the outer bracket, with None where the
# inner bracket goes.
_FIVE_TERMS = (
    (-1, (2, 3, 4), (0, 1, None)),
    (1, (0, 1, 3), (2, None, 4)),
    (1, (0, 1, 2), (None, 3, 4)),
    (1, (0, 1, 4), (2, 3, None)),
)


def _five_term(tables, m0, m1):
    """The five-term defect F of a graded bracket with at most one fiber
    argument, as a function five_term(args, fiber).

    ``tables`` maps the slot of the fiber argument (None: base bracket)
    to a table over every key, as ``LieTriple2System.tables``; base values
    have length m0 and fiber values length m1.  five_term reads F at the
    basis indices args with the fiber index at position fiber (None: no
    fiber argument).
    """
    # plans[f]: per term of F, its sign, the inner bracket's key and
    # table, the outer bracket's key and table, and the slot of the outer
    # key that the inner bracket fills (the key holds a placeholder there)
    plans = {}
    for fiber in (None, 0, 1, 2, 3, 4):
        plans[fiber] = []
        for sign, inner, outer in _FIVE_TERMS:
            pos = outer.index(None)
            fin = inner.index(fiber) if fiber in inner else None
            fout = None if fiber is None else outer.index(
                None if fiber in inner else fiber)
            okey = itemgetter(*(0 if p is None else p for p in outer))
            plans[fiber].append((sign, itemgetter(*inner), tables[fin],
                                 okey, tables[fout], pos))

    def five_term(args, fiber):
        m = m0 if fiber is None else m1
        acc = [0] * m
        for sign, inner, tin, outer, tout, pos in plans[fiber]:
            v = insert_in_slot(tout, outer(args), pos, tin[inner(args)], m)
            for r in range(m):
                acc[r] += sign * v[r]
        return tuple(acc)

    return five_term


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

def symmetry_defects(f, n, arity, m):
    """The nonzero symmetry sums of a tensor, as (kind, key, value).

    ``f`` maps arity-tuples of indices below n to vectors of length m
    (missing keys are zero).  At each key (..., i, j, k), in product
    order, "antisymmetry" is f(.., i, j, k) + f(.., j, i, k) and "cyclic"
    is f(.., i, j, k) + f(.., j, k, i) + f(.., k, i, j): antisymmetry in
    the last-but-one pair of slots and a zero cyclic sum over the last
    three, the symmetries of a triple bracket and of every cochain of
    degree 3 or more.  A sum is kept when any entry is nonzero (truthy),
    so the entries may also be ``operators._Poly`` variables.
    """
    zero = vzero(m)
    out = []
    for key in itertools.product(range(n), repeat=arity):
        head, (i, j, k) = key[:-3], key[-3:]
        v = f.get(key, zero)
        w = vadd(v, f.get(head + (j, i, k), zero))
        if any(w):
            out.append(("antisymmetry", key, w))
        w = vadd(vadd(v, f.get(head + (j, k, i), zero)),
                 f.get(head + (k, i, j), zero))
        if any(w):
            out.append(("cyclic", key, w))
    return out


def check_lts(system):
    """Verify the three defining axioms; witnesses name the failing triple.

    All antisymmetry witnesses come first, then all cyclic ones (see
    ``symmetry_defects``).  The five-term identity says that each left
    multiplication L = [e_i1, e_i2, .] is a derivation of the bracket.
    It is checked for every pair (i1, i2) with L nonzero by contracting L
    with the table: L applied to each value against L applied in each
    input slot.  The checks run on integers, on the table times den
    (``integer_scaled``), and divide symmetry sums back by den and
    five-term sides, quadratic in the table, by den**2.
    """
    n = system.dim
    den, T = integer_scaled(system.table)
    defects = symmetry_defects(T, n, 3, n)
    violations = [{"axiom": kind, "at": at, "value": vdiv(v, den)}
                  for axiom in ("antisymmetry", "cyclic")
                  for kind, at, v in defects if kind == axiom]
    zero = vzero(n)
    for (i1, i2), L in slot_matrices(T, n, n, 2).items():
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
                    "lhs": vdiv(a, den * den),
                    "rhs": vdiv(b, den * den),
                })
    return Report(not violations, violations)


def check_lie_algebra(algebra):
    """Antisymmetry and the Jacobi identity, with witnesses.

    [e_i, [e_j, e_k]] is the structure constants c with c(j, k)
    substituted into their second slot.
    """
    n = algebra.dim
    c = {key: algebra.coeff(*key) for key in itertools.product(range(n), repeat=2)}
    violations = []
    for i, j in c:
        v = vadd(c[(i, j)], c[(j, i)])
        if not viszero(v):
            violations.append({"axiom": "antisymmetry", "at": (i, j), "value": v})
    for i, j, k in itertools.combinations(range(n), 3):
        v = vadd(vadd(insert_in_slot(c, (i, None), 1, c[(j, k)], n),
                      insert_in_slot(c, (j, None), 1, c[(k, i)], n)),
                 insert_in_slot(c, (k, None), 1, c[(i, j)], n))
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
    c = {key: algebra.coeff(*key) for key in itertools.product(range(n), repeat=2)}
    table = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        table[(i, j, k)] = insert_in_slot(c, (None, k), 0, c[(i, j)], n)
    return LieTripleSystem(n, table)


def check_representation(rep):
    """Verify the two representation identities on all basis 4-tuples.

    Both are the five-term defect F of the action's graded bracket (see
    the module docstring) with one fiber argument a: the pair-action
    identity at (i1, i2, i3, i4) is the matrix whose column a is
    F(a, e_i1, e_i2, e_i3, e_i4), the derivation-action identity the one
    whose column a is F(e_i1, e_i2, a, e_i3, e_i4).
    """
    n, m = rep.base.dim, rep.vdim
    base = dict.fromkeys(itertools.product(range(n), repeat=3), vzero(n))
    base.update(rep.base.table)
    first, second, third = rep.slot_tensors()
    five_term = _five_term({None: base, 0: first, 1: second, 2: third}, n, m)
    violations = []
    for t in itertools.product(range(n), repeat=4):
        for name, pos in (("pair-action", 0), ("derivation-action", 2)):
            cols = [five_term(t[:pos] + (a,) + t[pos:], pos)
                    for a in range(m)]
            if any(any(col) for col in cols):
                violations.append({"identity": name, "at": t,
                                   "value": tuple(zip(*cols))})
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
