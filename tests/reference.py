"""Brute-force reference implementations used as cross-checks in tests.

Everything here is a direct, unoptimized transcription of the defining
identities: dense dict-of-vectors tensors, explicit per-degree coboundary
formulas, subset enumeration for the twisting map, and sympy for
nullspaces.  The library under test never imports this module; the tests
compare library results against these functions or against values frozen
from runs of them.
"""

from fractions import Fraction
import itertools

import sympy


# ---------------------------------------------------------------------------
# tiny exact vector/matrix helpers (tuples of numbers, matrices as row tuples)

def vzero(m):
    return tuple(0 for _ in range(m))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v):
    return tuple(c * a for a in v)


def viszero(v):
    return all(a == 0 for a in v)


def coprime(v):
    """A sympy vector as coprime integers, first nonzero entry positive."""
    den = 1
    for x in v:
        den = sympy.ilcm(den, sympy.fraction(x)[1])
    w = [int(x * den) for x in v]
    g = 0
    for x in w:
        g = sympy.igcd(g, x)
    sign = next((1 if x > 0 else -1 for x in w if x), 1)
    return tuple(sign * x // g for x in w)


def matvec(M, v):
    return tuple(sum(M[r][c] * v[c] for c in range(len(v)))
                 for r in range(len(M)))


def matmul(A, B):
    n = len(B)
    p = len(B[0])
    return tuple(
        tuple(sum(A[r][k] * B[k][c] for k in range(n)) for c in range(p))
        for r in range(len(A)))


def matadd(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def matsub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def matscale(c, A):
    return tuple(tuple(c * a for a in row) for row in A)


def mat_iszero(A):
    return all(a == 0 for row in A for a in row)


def ident(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def zeros(n, m=None):
    m = n if m is None else m
    return tuple(tuple(0 for _ in range(m)) for _ in range(n))


def basis(n, i):
    return tuple(1 if t == i else 0 for t in range(n))


# ---------------------------------------------------------------------------
# triple systems as (n, br) with br[(i,j,k)] -> complete output vector

def mk_bracket(n, entries):
    br = {}
    for tup in itertools.product(range(n), repeat=3):
        vec = [0] * n
        for t, c in entries.get(tup, {}).items():
            vec[t] = c
        br[tup] = tuple(vec)
    return br


def mk_l2():
    # [e1,e2,e2] = e1 and the antisymmetric completion [e2,e1,e2] = -e1
    return 2, mk_bracket(2, {(0, 1, 1): {0: 1}, (1, 0, 1): {0: -1}})


def mk_abelian(n):
    return n, mk_bracket(n, {})


def lie_to_lts(n, lie):
    """lie[(i,j)] -> vector; produce [x,y,z] = [[x,y],z]."""
    br = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        inner = lie[(i, j)]
        acc = [0] * n
        for t in range(n):
            if inner[t]:
                acc = [a + inner[t] * b for a, b in zip(acc, lie[(t, k)])]
        br[(i, j, k)] = tuple(acc)
    return n, br


def mk_sl2_lts():
    # basis h,e,f: [h,e]=2e, [h,f]=-2f, [e,f]=h
    n = 3
    lie = {(i, j): (0, 0, 0) for i, j in itertools.product(range(n), repeat=2)}
    lie[(0, 1)] = (0, 2, 0)
    lie[(1, 0)] = (0, -2, 0)
    lie[(0, 2)] = (0, 0, -2)
    lie[(2, 0)] = (0, 0, 2)
    lie[(1, 2)] = (1, 0, 0)
    lie[(2, 1)] = (-1, 0, 0)
    return lie_to_lts(n, lie)


def mk_solv3_lts():
    # solvable: [e1,e3]=e1, [e2,e3]=e2
    n = 3
    lie = {(i, j): (0, 0, 0) for i, j in itertools.product(range(n), repeat=2)}
    lie[(0, 2)] = (1, 0, 0)
    lie[(2, 0)] = (-1, 0, 0)
    lie[(1, 2)] = (0, 1, 0)
    lie[(2, 1)] = (0, -1, 0)
    return lie_to_lts(n, lie)


def bracket_vecs(n, br, x, y, z):
    acc = [0] * n
    for i, j, k in itertools.product(range(n), repeat=3):
        c = x[i] * y[j] * z[k]
        if c:
            acc = [a + c * b for a, b in zip(acc, br[(i, j, k)])]
    return tuple(acc)


def five_term_defect(n, br):
    """Five-term witnesses (5-tuple, lhs, rhs) in basis 5-tuple order."""
    out = []
    for t in itertools.product(range(n), repeat=5):
        x1, x2, x3, x4, x5 = (basis(n, i) for i in t)
        lhs = bracket_vecs(n, br, x1, x2, bracket_vecs(n, br, x3, x4, x5))
        rhs = vadd(
            vadd(
                bracket_vecs(n, br, bracket_vecs(n, br, x1, x2, x3), x4, x5),
                bracket_vecs(n, br, x3, bracket_vecs(n, br, x1, x2, x4), x5)),
            bracket_vecs(n, br, x3, x4, bracket_vecs(n, br, x1, x2, x5)))
        if lhs != rhs:
            out.append((t, lhs, rhs))
    return out


def symmetry_witnesses(f, n, m, arity):
    """(kind, key, value) of each nonzero symmetry sum of an arity-tensor
    whose missing keys are zero: at each key (..., i, j, k), in basis
    order, "antisymmetry" f(.., i, j, k) + f(.., j, i, k) and then "cyclic"
    f(.., i, j, k) + f(.., j, k, i) + f(.., k, i, j)."""
    def at(key):
        return tuple(f[key]) if key in f else vzero(m)

    out = []
    for key in itertools.product(range(n), repeat=arity):
        head, (i, j, k) = key[:-3], key[-3:]
        w = vadd(at(key), at(head + (j, i, k)))
        if not viszero(w):
            out.append(("antisymmetry", key, w))
        w = vadd(vadd(at(key), at(head + (j, k, i))), at(head + (k, i, j)))
        if not viszero(w):
            out.append(("cyclic", key, w))
    return out


def rand_tensor(rng, n, m, arity, entries, dense):
    """A random arity-tensor with values of length m, its entries drawn
    from ``entries`` and zeros.  Dense: every key is present (some with a
    zero vector); sparse: about a third of the keys are."""
    out = {}
    for key in itertools.product(range(n), repeat=arity):
        if dense or rng.random() < 0.35:
            out[key] = tuple(rng.choice(entries + (0, 0, 0))
                             for _ in range(m))
    return out


def lie_witnesses(n, lie):
    """(axiom, at, value) of a binary bracket lie[(i,j)] -> vector (missing
    keys zero): antisymmetry lie(i,j) + lie(j,i) at every pair, then the
    Jacobi sum [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] at every
    i < j < k, each where nonzero."""
    def at(i, j):
        return tuple(lie[(i, j)]) if (i, j) in lie else vzero(n)

    def br(x, y):
        acc = vzero(n)
        for i, j in itertools.product(range(n), repeat=2):
            if x[i] * y[j]:
                acc = vadd(acc, vscale(x[i] * y[j], at(i, j)))
        return acc

    out = []
    for i, j in itertools.product(range(n), repeat=2):
        w = vadd(at(i, j), at(j, i))
        if not viszero(w):
            out.append(("antisymmetry", (i, j), w))
    e = [basis(n, i) for i in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        w = vadd(vadd(br(e[i], at(j, k)), br(e[j], at(k, i))),
                 br(e[k], at(i, j)))
        if not viszero(w):
            out.append(("jacobi", (i, j, k), w))
    return out


def check_lts_axioms(n, br):
    for i, j, k in itertools.product(range(n), repeat=3):
        if not viszero(vadd(br[(i, j, k)], br[(j, i, k)])):
            return False
        cyc = vadd(vadd(br[(i, j, k)], br[(j, k, i)]), br[(k, i, j)])
        if not viszero(cyc):
            return False
    return not five_term_defect(n, br)


# ---------------------------------------------------------------------------
# operator identities by direct expansion

def nijenhuis_defect(n, br, N):
    out = []
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        Nx, Ny, Nz = matvec(N, x), matvec(N, y), matvec(N, z)
        lhs = bracket_vecs(n, br, Nx, Ny, Nz)
        inner1 = vadd(
            vadd(bracket_vecs(n, br, Nx, Ny, z),
                 bracket_vecs(n, br, x, Ny, Nz)),
            bracket_vecs(n, br, Nx, y, Nz))
        inner2 = vsub(
            vadd(
                vadd(bracket_vecs(n, br, Nx, y, z),
                     bracket_vecs(n, br, x, Ny, z)),
                bracket_vecs(n, br, x, y, Nz)),
            matvec(N, bracket_vecs(n, br, x, y, z)))
        rhs = matvec(N, vsub(inner1, matvec(N, inner2)))
        if lhs != rhs:
            out.append(((i, j, k), lhs, rhs))
    return out


def is_nijenhuis(n, br, N):
    return not nijenhuis_defect(n, br, N)


def induced_bracket(n, br, N):
    out = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        Nx, Ny, Nz = matvec(N, x), matvec(N, y), matvec(N, z)
        inner1 = vadd(
            vadd(bracket_vecs(n, br, Nx, Ny, z),
                 bracket_vecs(n, br, x, Ny, Nz)),
            bracket_vecs(n, br, Nx, y, Nz))
        inner2 = vsub(
            vadd(
                vadd(bracket_vecs(n, br, Nx, y, z),
                     bracket_vecs(n, br, x, Ny, z)),
                bracket_vecs(n, br, x, y, Nz)),
            matvec(N, bracket_vecs(n, br, x, y, z)))
        out[(i, j, k)] = vsub(inner1, matvec(N, inner2))
    return out


def rb_defect(n, br, R, lam):
    """Rota-Baxter witnesses ((i, j, k), lhs, rhs) over basis triples."""
    out = []
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        Rx, Ry, Rz = matvec(R, x), matvec(R, y), matvec(R, z)
        lhs = bracket_vecs(n, br, Rx, Ry, Rz)
        s = vadd(
            vadd(bracket_vecs(n, br, Rx, Ry, z),
                 bracket_vecs(n, br, x, Ry, Rz)),
            bracket_vecs(n, br, Rx, y, Rz))
        s = vadd(s, vscale(lam, vadd(
            vadd(bracket_vecs(n, br, Rx, y, z),
                 bracket_vecs(n, br, x, Ry, z)),
            bracket_vecs(n, br, x, y, Rz))))
        s = vadd(s, vscale(lam * lam, bracket_vecs(n, br, x, y, z)))
        rhs = matvec(R, s)
        if lhs != rhs:
            out.append(((i, j, k), lhs, rhs))
    return out


def is_rb(n, br, R, lam):
    return not rb_defect(n, br, R, lam)


def mrb_defect(n, br, R, lam):
    """Modified Rota-Baxter witnesses ((i, j, k), lhs, rhs) over basis triples."""
    out = []
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        Rx, Ry, Rz = matvec(R, x), matvec(R, y), matvec(R, z)
        lhs = bracket_vecs(n, br, Rx, Ry, Rz)
        s = vadd(
            vadd(bracket_vecs(n, br, Rx, Ry, z),
                 bracket_vecs(n, br, x, Ry, Rz)),
            bracket_vecs(n, br, Rx, y, Rz))
        s = vsub(s, vscale(lam, bracket_vecs(n, br, x, y, z)))
        rhs = matvec(R, s)
        rhs = vadd(rhs, vscale(lam, vadd(
            vadd(bracket_vecs(n, br, Rx, y, z),
                 bracket_vecs(n, br, x, Ry, z)),
            bracket_vecs(n, br, x, y, Rz))))
        if lhs != rhs:
            out.append(((i, j, k), lhs, rhs))
    return out


def is_mrb(n, br, R, lam):
    return not mrb_defect(n, br, R, lam)


# ---------------------------------------------------------------------------
# representations

def adjoint_theta(n, br):
    """theta(e_i,e_j) as a matrix acting by columns: theta(x,y)z = [z,x,y]."""
    theta = {}
    for i, j in itertools.product(range(n), repeat=2):
        cols = [br[(c, i, j)] for c in range(n)]
        theta[(i, j)] = tuple(tuple(cols[c][r] for c in range(n))
                              for r in range(n))
    return theta


def theta_vecs(theta, n, x, y):
    m = len(next(iter(theta.values())))
    acc = zeros(m, m)
    for i, j in itertools.product(range(n), repeat=2):
        c = x[i] * y[j]
        if c:
            acc = matadd(acc, matscale(c, theta[(i, j)]))
    return acc


def D_of(theta, n):
    return {(i, j): matsub(theta[(j, i)], theta[(i, j)])
            for i, j in itertools.product(range(n), repeat=2)}


def rep_identity_defects(n, br, theta, m):
    """Witnesses (identity, 4-tuple, value) of the pair-action and
    derivation-action identities, in basis 4-tuple order, the pair-action
    one first at each tuple."""
    D = D_of(theta, n)
    out = []
    for i1, i2, i3, i4 in itertools.product(range(n), repeat=4):
        t34, t12 = theta[(i3, i4)], theta[(i1, i2)]
        t24, t13 = theta[(i2, i4)], theta[(i1, i3)]
        t14 = theta[(i1, i4)]
        w = br[(i2, i3, i4)]
        thx1w = zeros(m, m)
        for t in range(n):
            if w[t]:
                thx1w = matadd(thx1w, matscale(w[t], theta[(i1, t)]))
        lhs = matsub(matmul(t34, t12), matmul(t24, t13))
        lhs = matsub(lhs, thx1w)
        lhs = matadd(lhs, matmul(D[(i2, i3)], t14))
        if not mat_iszero(lhs):
            out.append(("pair-action", (i1, i2, i3, i4), lhs))
        w123 = br[(i1, i2, i3)]
        w124 = br[(i1, i2, i4)]
        thw4 = zeros(m, m)
        for t in range(n):
            if w123[t]:
                thw4 = matadd(thw4, matscale(w123[t], theta[(t, i4)]))
        th3w = zeros(m, m)
        for t in range(n):
            if w124[t]:
                th3w = matadd(th3w, matscale(w124[t], theta[(i3, t)]))
        lhs2 = matsub(matmul(t34, D[(i1, i2)]), matmul(D[(i1, i2)], t34))
        lhs2 = matadd(matadd(lhs2, thw4), th3w)
        if not mat_iszero(lhs2):
            out.append(("derivation-action", (i1, i2, i3, i4), lhs2))
    return out


def check_rep_identities(n, br, theta, m):
    """The two pair/derivation action identities on all basis 4-tuples."""
    return not rep_identity_defects(n, br, theta, m)


def check_operator_identity(n, br, theta, m, N, Nv):
    """The operator-compatibility condition on a representation, written
    as an endomorphism identity over all basis pairs."""
    for i, j in itertools.product(range(n), repeat=2):
        x, y = basis(n, i), basis(n, j)
        Nx, Ny = matvec(N, x), matvec(N, y)
        tNN = theta_vecs(theta, n, Nx, Ny)
        tNy = theta_vecs(theta, n, Nx, y)
        txN = theta_vecs(theta, n, x, Ny)
        txy = theta[(i, j)]
        lhs = matmul(tNN, Nv)
        inner = matadd(tNN, matadd(matmul(tNy, Nv), matmul(txN, Nv)))
        inner = matsub(inner, matmul(Nv, tNy))
        inner = matsub(inner, matmul(Nv, txN))
        inner = matsub(inner, matmul(Nv, matmul(txy, Nv)))
        inner = matadd(inner, matmul(matmul(Nv, Nv), txy))
        if lhs != matmul(Nv, inner):
            return False
    return True


def theta_deformed(n, theta, m, N, Nv):
    """theta_N(x,y) = theta(Nx,Ny) - Nv(theta(Nx,y)+theta(x,Ny)-Nv theta(x,y))."""
    out = {}
    for i, j in itertools.product(range(n), repeat=2):
        x, y = basis(n, i), basis(n, j)
        Nx, Ny = matvec(N, x), matvec(N, y)
        tNN = theta_vecs(theta, n, Nx, Ny)
        inner = matadd(theta_vecs(theta, n, Nx, y),
                       theta_vecs(theta, n, x, Ny))
        inner = matsub(inner, matmul(Nv, theta[(i, j)]))
        out[(i, j)] = matsub(tNN, matmul(Nv, inner))
    return out


def crossed_module_h_defects(n0, n1, br0, br1, h, theta):
    """Witnesses (condition, at, lhs, rhs) of the three conditions that tie
    h : T1 -> T0 to the brackets br0, br1 and the action theta on T1:

      h [a, b, c]_1 = [h a, h b, h c]_0      "h-homomorphism" at (a, b, c),
      h theta(x, y) a = [h a, x, y]_0        "h-equivariance" at (i, j, a),
      theta(h a, h b) c = [c, a, b]_1        "peiffer" at (a, b, c).
    """
    hcol = [tuple(h[r][a] for r in range(n0)) for a in range(n1)]
    out = []
    for a, b, c in itertools.product(range(n1), repeat=3):
        lhs = matvec(h, br1[(a, b, c)])
        rhs = bracket_vecs(n0, br0, hcol[a], hcol[b], hcol[c])
        if lhs != rhs:
            out.append(("h-homomorphism", (a, b, c), lhs, rhs))
    for i, j in itertools.product(range(n0), repeat=2):
        for a in range(n1):
            lhs = matvec(h, matvec(theta[(i, j)], basis(n1, a)))
            rhs = bracket_vecs(n0, br0, hcol[a], basis(n0, i), basis(n0, j))
            if lhs != rhs:
                out.append(("h-equivariance", (i, j, a), lhs, rhs))
    for a, b in itertools.product(range(n1), repeat=2):
        act = theta_vecs(theta, n0, hcol[a], hcol[b])
        for c in range(n1):
            lhs = matvec(act, basis(n1, c))
            rhs = br1[(c, a, b)]
            if lhs != rhs:
                out.append(("peiffer", (a, b, c), lhs, rhs))
    return out


# ---------------------------------------------------------------------------
# cochains: dict[(i1,...,ik)] -> vector(m)

def czero(n, m, deg):
    return {t: vzero(m) for t in itertools.product(range(n), repeat=deg)}


def ceq(f, g):
    return all(f[t] == g[t] for t in f)


def ciszero(f):
    return all(viszero(v) for v in f.values())


def f_eval(f, args, n, m):
    """Evaluate a cochain where each arg is a basis index or a vector."""
    vecpos = [p for p, a in enumerate(args) if not isinstance(a, int)]
    if not vecpos:
        return f[tuple(args)]
    acc = [0] * m
    for repl in itertools.product(range(n), repeat=len(vecpos)):
        coef = 1
        for p, t in zip(vecpos, repl):
            coef = coef * args[p][t]
        if coef == 0:
            continue
        key = list(args)
        for p, t in zip(vecpos, repl):
            key[p] = t
        acc = [a + coef * b for a, b in zip(acc, f[tuple(key)])]
    return tuple(acc)


def delta1(f, n, m, theta, D, br):
    out = {}
    for t in itertools.product(range(n), repeat=3):
        x1, x2, x3 = t
        v = matvec(theta[(x2, x3)], f[(x1,)])
        v = vsub(v, matvec(theta[(x1, x3)], f[(x2,)]))
        v = vadd(v, matvec(D[(x1, x2)], f[(x3,)]))
        v = vsub(v, f_eval(f, [br[(x1, x2, x3)]], n, m))
        out[t] = v
    return out


def delta3(f, n, m, theta, D, br):
    out = {}
    for t in itertools.product(range(n), repeat=5):
        x1, x2, x3, x4, x5 = t
        v = matvec(theta[(x4, x5)], f[(x1, x2, x3)])
        v = vsub(v, matvec(theta[(x3, x5)], f[(x1, x2, x4)]))
        v = vsub(v, matvec(D[(x1, x2)], f[(x3, x4, x5)]))
        v = vadd(v, matvec(D[(x3, x4)], f[(x1, x2, x5)]))
        v = vadd(v, f_eval(f, [br[(x1, x2, x3)], x4, x5], n, m))
        v = vadd(v, f_eval(f, [x3, br[(x1, x2, x4)], x5], n, m))
        v = vadd(v, f_eval(f, [x3, x4, br[(x1, x2, x5)]], n, m))
        v = vsub(v, f_eval(f, [x1, x2, br[(x3, x4, x5)]], n, m))
        out[t] = v
    return out


def delta5(f, n, m, theta, D, br):
    out = {}
    for t in itertools.product(range(n), repeat=7):
        x1, x2, x3, x4, x5, x6, x7 = t
        v = matvec(theta[(x6, x7)], f[(x1, x2, x3, x4, x5)])
        v = vsub(v, matvec(theta[(x5, x7)], f[(x1, x2, x3, x4, x6)]))
        v = vadd(v, matvec(D[(x1, x2)], f[(x3, x4, x5, x6, x7)]))
        v = vsub(v, matvec(D[(x3, x4)], f[(x1, x2, x5, x6, x7)]))
        v = vadd(v, matvec(D[(x5, x6)], f[(x1, x2, x3, x4, x7)]))
        v = vsub(v, f_eval(f, [br[(x1, x2, x3)], x4, x5, x6, x7], n, m))
        v = vsub(v, f_eval(f, [x3, br[(x1, x2, x4)], x5, x6, x7], n, m))
        v = vsub(v, f_eval(f, [x3, x4, br[(x1, x2, x5)], x6, x7], n, m))
        v = vsub(v, f_eval(f, [x3, x4, x5, br[(x1, x2, x6)], x7], n, m))
        v = vsub(v, f_eval(f, [x3, x4, x5, x6, br[(x1, x2, x7)]], n, m))
        v = vadd(v, f_eval(f, [x1, x2, br[(x3, x4, x5)], x6, x7], n, m))
        v = vadd(v, f_eval(f, [x1, x2, x5, br[(x3, x4, x6)], x7], n, m))
        v = vadd(v, f_eval(f, [x1, x2, x5, x6, br[(x3, x4, x7)]], n, m))
        v = vsub(v, f_eval(f, [x1, x2, x3, x4, br[(x5, x6, x7)]], n, m))
        out[t] = v
    return out


DELTAS = {1: delta1, 3: delta3, 5: delta5}


def phi_subsets(f, deg, n, m, N, Nv):
    """Twisting map by subset enumeration: sum over subsets S of the arg
    slots of (-1)^{|S|} Nv^{|S|} f(N applied everywhere off S)."""
    Nvp = [ident(m)]
    for _ in range(deg):
        Nvp.append(matmul(Nv, Nvp[-1]))
    out = {}
    for tup in itertools.product(range(n), repeat=deg):
        acc = vzero(m)
        for r in range(deg + 1):
            for S in itertools.combinations(range(deg), r):
                bare = set(S)
                args = []
                for p, i in enumerate(tup):
                    args.append(i if p in bare else matvec(N, basis(n, i)))
                val = f_eval(f, args, n, m)
                term = matvec(Nvp[r], val)
                acc = vadd(acc, term) if r % 2 == 0 else vsub(acc, term)
        out[tup] = acc
    return out


# ---------------------------------------------------------------------------
# constrained cochain spaces

def slot3_constraint_basis(n):
    """Sympy-nullspace basis for 3-tensors antisymmetric in the first two
    slots with vanishing cyclic sum, as dicts (i,j,k) -> int."""
    tuples = list(itertools.product(range(n), repeat=3))
    idx = {t: c for c, t in enumerate(tuples)}
    rows = []
    for i, j, k in tuples:
        row = [0] * len(tuples)
        row[idx[(i, j, k)]] += 1
        row[idx[(j, i, k)]] += 1
        rows.append(row)
        row = [0] * len(tuples)
        row[idx[(i, j, k)]] += 1
        row[idx[(j, k, i)]] += 1
        row[idx[(k, i, j)]] += 1
        rows.append(row)
    ns = sympy.Matrix(rows).nullspace()
    out = []
    for v in ns:
        den = 1
        for a in v:
            den = sympy.ilcm(den, sympy.fraction(a)[1])
        w = [int(a * den) for a in v]
        out.append({t: w[idx[t]] for t in tuples})
    return out


def w_dim(n):
    """Dimension of the constrained space of scalar 3-tensors."""
    return n * (n - 1) * (n + 1) // 3


def cochain_basis(n, m, deg):
    if deg == 1:
        out = []
        for a in range(m):
            for i in range(n):
                f = czero(n, m, 1)
                f[(i,)] = tuple(1 if b == a else 0 for b in range(m))
                out.append(f)
        return out
    w3 = slot3_constraint_basis(n)
    out = []
    for prefix in itertools.product(range(n), repeat=deg - 3):
        for a in range(m):
            for w in w3:
                f = czero(n, m, deg)
                for (i, j, k), c in w.items():
                    if c:
                        f[prefix + (i, j, k)] = tuple(
                            c if b == a else 0 for b in range(m))
                out.append(f)
    return out


def flat(f, n, m, deg):
    out = []
    for t in itertools.product(range(n), repeat=deg):
        out.extend(f[t])
    return out


def rand_cochain(rng, n, m, deg, lo=-4, hi=4):
    bs = cochain_basis(n, m, deg)
    f = czero(n, m, deg)
    for b in bs:
        c = rng.randint(lo, hi)
        if c:
            for t in f:
                f[t] = vadd(f[t], vscale(c, b[t]))
    return f


# ---------------------------------------------------------------------------
# full differential contexts

class Ctx:
    def __init__(self, n, br, theta, m, N, Nv):
        self.n, self.br, self.theta = n, br, theta
        self.m, self.N, self.Nv = m, N, Nv
        self.D = D_of(theta, n)
        self.brN = induced_bracket(n, br, N)
        self.thetaN = theta_deformed(n, theta, m, N, Nv)
        self.DN = D_of(self.thetaN, n)

    def delta(self, f, deg):
        return DELTAS[deg](f, self.n, self.m, self.theta, self.D, self.br)

    def phi(self, f, deg):
        return phi_subsets(f, deg, self.n, self.m, self.N, self.Nv)

    def partial(self, g, deg):
        return partial_tilde(g, deg, self)

    def d(self, f, g, deg):
        if deg == 1:
            return self.delta(f, 1), {t: vscale(-1, v)
                                      for t, v in self.phi(f, 1).items()}
        sgn = 1 if deg == 3 else -1
        df = self.delta(f, deg)
        ph = self.phi(f, deg)
        pg = self.partial(g, deg - 2)
        return df, {t: vadd(pg[t], vscale(sgn, ph[t])) for t in ph}


def P_triple(ctx, u, v, w):
    """The three graded bracket levels of an operator on vector arguments:
    P2 = deformed bracket, P1 = one-operator sum minus N of the plain
    bracket, P0 = plain bracket."""
    n, br, N = ctx.n, ctx.br, ctx.N
    Nu, Nv_, Nw = matvec(N, u), matvec(N, v), matvec(N, w)
    a2 = vadd(vadd(bracket_vecs(n, br, Nu, Nv_, w),
                   bracket_vecs(n, br, u, Nv_, Nw)),
              bracket_vecs(n, br, Nu, v, Nw))
    a1 = vadd(vadd(bracket_vecs(n, br, Nu, v, w),
                   bracket_vecs(n, br, u, Nv_, w)),
              bracket_vecs(n, br, u, v, Nw))
    a0 = bracket_vecs(n, br, u, v, w)
    P1 = vsub(a1, matvec(N, a0))
    P2 = vadd(vsub(a2, matvec(N, a1)), matvec(matmul(N, N), a0))
    return P2, P1, a0


def tele(ctx, g, args, pos, triple):
    """sum_k (-1)^k Nv^k g(args with slot pos <- P_{2-k}(triple))."""
    n, m = ctx.n, ctx.m
    u, v, w = (basis(n, t) for t in triple)
    Ps = P_triple(ctx, u, v, w)
    acc = vzero(m)
    Nvp = ident(m)
    sign = 1
    for P in Ps:
        a = list(args)
        a[pos] = P
        val = matvec(Nvp, f_eval(g, a, n, m))
        acc = vadd(acc, val) if sign > 0 else vsub(acc, val)
        sign = -sign
        Nvp = matmul(ctx.Nv, Nvp)
    return acc


def partial_tilde(g, deg, ctx):
    """Operator-side differential: the deformed-coefficient formula with
    each bracket insertion telescoped through P2, P1, P0 with Nv weights."""
    n = ctx.n
    thN, DN = ctx.thetaN, ctx.DN
    out = {}
    if deg == 1:
        for t in itertools.product(range(n), repeat=3):
            x1, x2, x3 = t
            v = matvec(thN[(x2, x3)], g[(x1,)])
            v = vsub(v, matvec(thN[(x1, x3)], g[(x2,)]))
            v = vadd(v, matvec(DN[(x1, x2)], g[(x3,)]))
            v = vsub(v, tele(ctx, g, [0], 0, (x1, x2, x3)))
            out[t] = v
        return out
    if deg == 3:
        for t in itertools.product(range(n), repeat=5):
            x1, x2, x3, x4, x5 = t
            v = matvec(thN[(x4, x5)], g[(x1, x2, x3)])
            v = vsub(v, matvec(thN[(x3, x5)], g[(x1, x2, x4)]))
            v = vsub(v, matvec(DN[(x1, x2)], g[(x3, x4, x5)]))
            v = vadd(v, matvec(DN[(x3, x4)], g[(x1, x2, x5)]))
            v = vadd(v, tele(ctx, g, [0, x4, x5], 0, (x1, x2, x3)))
            v = vadd(v, tele(ctx, g, [x3, 0, x5], 1, (x1, x2, x4)))
            v = vadd(v, tele(ctx, g, [x3, x4, 0], 2, (x1, x2, x5)))
            v = vsub(v, tele(ctx, g, [x1, x2, 0], 2, (x3, x4, x5)))
            out[t] = v
        return out
    if deg == 5:
        for t in itertools.product(range(n), repeat=7):
            x1, x2, x3, x4, x5, x6, x7 = t
            v = matvec(thN[(x6, x7)], g[(x1, x2, x3, x4, x5)])
            v = vsub(v, matvec(thN[(x5, x7)], g[(x1, x2, x3, x4, x6)]))
            v = vadd(v, matvec(DN[(x1, x2)], g[(x3, x4, x5, x6, x7)]))
            v = vsub(v, matvec(DN[(x3, x4)], g[(x1, x2, x5, x6, x7)]))
            v = vadd(v, matvec(DN[(x5, x6)], g[(x1, x2, x3, x4, x7)]))
            v = vsub(v, tele(ctx, g, [0, x4, x5, x6, x7], 0, (x1, x2, x3)))
            v = vsub(v, tele(ctx, g, [x3, 0, x5, x6, x7], 1, (x1, x2, x4)))
            v = vsub(v, tele(ctx, g, [x3, x4, 0, x6, x7], 2, (x1, x2, x5)))
            v = vsub(v, tele(ctx, g, [x3, x4, x5, 0, x7], 3, (x1, x2, x6)))
            v = vsub(v, tele(ctx, g, [x3, x4, x5, x6, 0], 4, (x1, x2, x7)))
            v = vadd(v, tele(ctx, g, [x1, x2, 0, x6, x7], 2, (x3, x4, x5)))
            v = vadd(v, tele(ctx, g, [x1, x2, x5, 0, x7], 3, (x3, x4, x6)))
            v = vadd(v, tele(ctx, g, [x1, x2, x5, x6, 0], 4, (x3, x4, x7)))
            v = vsub(v, tele(ctx, g, [x1, x2, x3, x4, 0], 4, (x5, x6, x7)))
            out[t] = v
        return out
    raise ValueError(deg)


# ---------------------------------------------------------------------------
# Lie triple 2-systems, through one graded bracket on T0 + T1

def graded_bracket(n0, tensors, X, Y, Z):
    """[X, Y, Z] for vectors X, Y, Z on T0 + T1 (base coordinates first).

    ``tensors`` maps the slot of the T1 argument (None: no T1 argument)
    to the bracket tensor keyed by base and fiber indices; terms with two
    or more T1 arguments are zero.  The value lands in T0 on base
    arguments and in T1 with one fiber argument.
    """
    acc = [0] * len(X)
    support = [[(p, c) for p, c in enumerate(V) if c] for V in (X, Y, Z)]
    for (p, x), (q, y), (r, z) in itertools.product(*support):
        c = x * y * z
        fibers = [s for s, idx in enumerate((p, q, r)) if idx >= n0]
        if len(fibers) > 1:
            continue
        slot = fibers[0] if fibers else None
        key = tuple(idx - n0 if idx >= n0 else idx for idx in (p, q, r))
        offset = 0 if slot is None else n0
        for a, x in enumerate(tensors[slot][key]):
            acc[offset + a] += c * x
    return tuple(acc)


def twosys_defect(n0, n1, h, l3_000, l3_100, l3_010, l3_001, l5):
    """Witnesses (condition, at, lhs, rhs) of L1-L10 of a Lie triple
    2-system, rhs None for conditions stated as one vanishing sum.

    Every condition is read off the graded bracket on T0 + T1: L1 and L4
    are antisymmetry and cyclic sums, L2 and L3 compare h with the
    bracket, and L5-L10 compare l5 with the five-term defect
    -[y1,y2,[y3,y4,y5]] + [y3,[y1,y2,y4],y5] + [[y1,y2,y3],y4,y5]
    + [y3,y4,[y1,y2,y5]] on base arguments (through h) and with one
    fiber argument a (l5 with h(a) in its place).
    """
    tensors = {None: l3_000, 0: l3_100, 1: l3_010, 2: l3_001}
    size = n0 + n1
    E = [basis(size, i) for i in range(n0)]
    F = [basis(size, n0 + a) for a in range(n1)]
    hcol = [tuple(h[r][a] for r in range(n0)) for a in range(n1)]
    HF = [hcol[a] + vzero(n1) for a in range(n1)]

    def br(X, Y, Z):
        return graded_bracket(n0, tensors, X, Y, Z)

    def five(Y1, Y2, Y3, Y4, Y5):
        v = vscale(-1, br(Y1, Y2, br(Y3, Y4, Y5)))
        v = vadd(v, br(Y3, br(Y1, Y2, Y4), Y5))
        v = vadd(v, br(br(Y1, Y2, Y3), Y4, Y5))
        return vadd(v, br(Y3, Y4, br(Y1, Y2, Y5)))

    base, fiber = (lambda v: v[:n0]), (lambda v: v[n0:])
    out = []

    def sums(cond, at, part, *terms):
        w = part(terms[0])
        for t in terms[1:]:
            w = vadd(w, part(t))
        if not viszero(w):
            out.append((cond, at, w, None))

    def compare(cond, at, lhs, rhs):
        if lhs != rhs:
            out.append((cond, at, lhs, rhs))

    pairs = list(itertools.product(range(n0), repeat=2))
    for i, j, k in itertools.product(range(n0), repeat=3):
        sums("L1-base-antisymmetry", (i, j, k), base,
             br(E[i], E[j], E[k]), br(E[j], E[i], E[k]))
    for i, j in pairs:
        for a in range(n1):
            sums("L1-third-slot-antisymmetry", (i, j, a), fiber,
                 br(E[i], E[j], F[a]), br(E[j], E[i], F[a]))
            sums("L1-mixed-antisymmetry", (a, i, j), fiber,
                 br(F[a], E[i], E[j]), br(E[i], F[a], E[j]))
    for a in range(n1):
        for j, k in pairs:
            compare("L2", (a, j, k), matvec(h, fiber(br(F[a], E[j], E[k]))),
                    base(br(HF[a], E[j], E[k])))
    for a, b in itertools.product(range(n1), repeat=2):
        for x in range(n0):
            compare("L3-first", (a, b, x), fiber(br(HF[a], F[b], E[x])),
                    fiber(br(F[a], HF[b], E[x])))
            compare("L3-second", (a, b, x), fiber(br(HF[a], E[x], F[b])),
                    fiber(br(F[a], E[x], HF[b])))
            compare("L3-third", (a, b, x), fiber(br(E[x], HF[a], F[b])),
                    fiber(br(E[x], F[a], HF[b])))
    for i, j, k in itertools.product(range(n0), repeat=3):
        sums("L4-base-cyclic", (i, j, k), base, br(E[i], E[j], E[k]),
             br(E[j], E[k], E[i]), br(E[k], E[i], E[j]))
    for i, j in pairs:
        for a in range(n1):
            sums("L4-mixed-cyclic", (i, j, a), fiber, br(E[i], E[j], F[a]),
                 br(E[j], F[a], E[i]), br(F[a], E[i], E[j]))
    for t in itertools.product(range(n0), repeat=5):
        compare("L5", t, matvec(h, l5[t]), base(five(*(E[i] for i in t))))
    for a in range(n1):
        for t in itertools.product(range(n0), repeat=4):
            for s in range(5):
                at = t[:s] + (a,) + t[s:]
                args = [E[i] for i in t]
                lhs = f_eval(l5, t[:s] + (hcol[a],) + t[s:], n0, n1)
                rhs = fiber(five(*(args[:s] + [F[a]] + args[s:])))
                compare("L%d" % (6 + s), at, lhs, rhs)
    return out


# ---------------------------------------------------------------------------
# Nijenhuis structures (N0, N1, N2) on Lie triple 2-systems

def first_slot_theta(n0, n1, l3_100):
    """theta(e_i, e_j) on T1 read from the first-slot tensor: its column a
    is l3_100[(a, i, j)]."""
    return {(i, j): tuple(tuple(l3_100[(a, i, j)][r] for a in range(n1))
                          for r in range(n1))
            for i, j in itertools.product(range(n0), repeat=2)}


def _total(n0, n1, base=None, fiber=None):
    """The vector of T0 + T1 with the given parts (None: zero)."""
    return (vzero(n0) if base is None else tuple(base)) + \
        (vzero(n1) if fiber is None else tuple(fiber))


def nijenhuis_2system_defect(n0, n1, h, l3_000, l3_100, l3_010, l3_001, l5,
                             N0, N1, N2):
    """Witnesses (condition, at, lhs, rhs) of conditions (a)-(f) of a
    Nijenhuis structure (N0, N1, N2) on a Lie triple 2-system, rhs None
    for conditions stated as one vanishing value.

    (a) N0 h = h N1; (b), (c) antisymmetry and cyclic sum of N2.  (d) and
    (e) read the Nijenhuis torsion T(X, Y, Z) = [NX, NY, NZ] - N [X, Y, Z]_N
    of the total operator N = N0 + N1 on the graded bracket: on base
    arguments T = -h N2, and with the fiber argument a in the third slot
    -T = N2(., ., h(a)).  (f) is the second component of the degree-5
    pair differential d(l5, N2) = partial N2 - phi l5 of the complex of
    (base system, first-slot action, N0, N1).
    """
    tensors = {None: l3_000, 0: l3_100, 1: l3_010, 2: l3_001}
    size = n0 + n1
    E = [basis(size, i) for i in range(n0)]
    F = [basis(size, n0 + a) for a in range(n1)]
    hcol = [tuple(h[r][a] for r in range(n0)) for a in range(n1)]

    def br(X, Y, Z):
        return graded_bracket(n0, tensors, X, Y, Z)

    def op(X):
        return _total(n0, n1, matvec(N0, X[:n0]), matvec(N1, X[n0:]))

    def torsion(X, Y, Z):
        NX, NY, NZ = op(X), op(Y), op(Z)
        a2 = vadd(vadd(br(NX, NY, Z), br(X, NY, NZ)), br(NX, Y, NZ))
        a1 = vadd(vadd(br(NX, Y, Z), br(X, NY, Z)), br(X, Y, NZ))
        deformed = vadd(vsub(a2, op(a1)), op(op(br(X, Y, Z))))
        return vsub(br(NX, NY, NZ), op(deformed))

    out = []
    comm = matsub(matmul(N0, h), matmul(h, N1))
    if not mat_iszero(comm):
        out.append(("operator-h-commutation", None, comm, None))
    for i, j, k in itertools.product(range(n0), repeat=3):
        w = vadd(N2[(i, j, k)], N2[(j, i, k)])
        if not viszero(w):
            out.append(("N2-antisymmetry", (i, j, k), w, None))
        w = vadd(vadd(N2[(i, j, k)], N2[(j, k, i)]), N2[(k, i, j)])
        if not viszero(w):
            out.append(("N2-cyclic", (i, j, k), w, None))
    for t in itertools.product(range(n0), repeat=3):
        lhs = torsion(*(E[i] for i in t))[:n0]
        rhs = vscale(-1, matvec(h, N2[t]))
        if lhs != rhs:
            out.append(("base-defect", t, lhs, rhs))
    for i, j in itertools.product(range(n0), repeat=2):
        for a in range(n1):
            lhs = vscale(-1, torsion(E[i], E[j], F[a])[n0:])
            rhs = f_eval(N2, (i, j, hcol[a]), n0, n1)
            if lhs != rhs:
                out.append(("fiber-defect", (i, j, a), lhs, rhs))
    ctx = Ctx(n0, l3_000, first_slot_theta(n0, n1, l3_100), n1, N0, N1)
    pg = partial_tilde(N2, 3, ctx)
    ph = phi_subsets(l5, 5, n0, n1, N0, N1)
    for t in sorted(ph):
        w = vsub(pg[t], ph[t])
        if not viszero(w):
            out.append(("five-argument", t, w, None))
    return out


def expanded_five_condition_holds(n0, n1, l3_000, l3_100, l3_010, l3_001,
                                  l5, N0, N1, N2):
    """The expanded classical form of the five-argument condition: for
    all basis x1..x5, with p2 the deformed base bracket,

      l5(Nx1,...,Nx5) + [N2(x1,x2,x3), Nx4, Nx5] + [Nx3, N2(x1,x2,x4), Nx5]
      + [Nx3, Nx4, N2(x1,x2,x5)] + N2(p2(x1,x2,x3), x4, x5)
      + N2(x3, p2(x1,x2,x4), x5) + N2(x3, x4, p2(x1,x2,x5))
      - [Nx1, Nx2, N2(x3,x4,x5)] - N2(x1, x2, p2(x3,x4,x5)) - N1 l5(x) = 0.

    Of the 2^5 terms of phi(l5) it keeps only l5(Nx1,...,Nx5) and -N1 l5(x)
    where phi has -N1^5 l5(x), so it is not the second component of d.
    """
    tensors = {None: l3_000, 0: l3_100, 1: l3_010, 2: l3_001}
    p2 = induced_bracket(n0, l3_000, N0)
    cols = [_total(n0, n1, matvec(N0, basis(n0, i))) for i in range(n0)]

    def br(X, Y, Z):
        return graded_bracket(n0, tensors, X, Y, Z)[n0:]

    def n2(t):
        return _total(n0, n1, None, N2[t])

    def n2v(*args):
        return f_eval(N2, args, n0, n1)

    for t in itertools.product(range(n0), repeat=5):
        x1, x2, x3, x4, x5 = t
        Nx = [cols[i] for i in t]
        w = f_eval(l5, [X[:n0] for X in Nx], n0, n1)
        w = vadd(w, br(n2((x1, x2, x3)), Nx[3], Nx[4]))
        w = vadd(w, br(Nx[2], n2((x1, x2, x4)), Nx[4]))
        w = vadd(w, br(Nx[2], Nx[3], n2((x1, x2, x5))))
        w = vadd(w, n2v(p2[(x1, x2, x3)], x4, x5))
        w = vadd(w, n2v(x3, p2[(x1, x2, x4)], x5))
        w = vadd(w, n2v(x3, x4, p2[(x1, x2, x5)]))
        w = vsub(w, br(Nx[0], Nx[1], n2((x3, x4, x5))))
        w = vsub(w, n2v(x1, x2, p2[(x3, x4, x5)]))
        w = vsub(w, matvec(N1, l5[t]))
        if not viszero(w):
            return False
    return True


# ---------------------------------------------------------------------------
# abelian extensions: the fiber action read off a total bracket

def induced_rep_defects(n, m, total):
    """theta and the witnesses (identity, at, lhs, rhs) of reading the fiber
    action off a total bracket on T + V (base coordinates first, fiber
    basis vector a at n + a), rhs None for a value that must vanish.

    ``total`` maps index triples to vectors of length n + m (missing keys
    are zero).  theta(e_i, e_j) f_a is the fiber part of [f_a, e_i, e_j],
    whose base part must vanish ("fiber-ideal").  [e_i, f_a, e_j] must be
    -theta(e_i, e_j) f_a ("middle-slot-action"), [e_i, e_j, f_a] must be
    D(e_i, e_j) f_a ("third-slot-action"), and every bracket of basis
    vectors with two or more fiber entries vanishes ("two-fiber-entries").
    """
    size = n + m
    br = {t: tuple(total.get(t, vzero(size)))
          for t in itertools.product(range(size), repeat=3)}
    E = [basis(size, i) for i in range(n)]
    F = [basis(size, n + a) for a in range(m)]

    def bracket(X, Y, Z):
        return bracket_vecs(size, br, X, Y, Z)

    out = []
    pairs = list(itertools.product(range(n), repeat=2))
    cols = {}
    for i, j in pairs:
        for a in range(m):
            w = bracket(F[a], E[i], E[j])
            if not viszero(w[:n]):
                out.append(("fiber-ideal", (n + a, i, j), w[:n], None))
            cols[(i, j, a)] = w[n:]
    theta = {(i, j): tuple(tuple(cols[(i, j, a)][r] for a in range(m))
                           for r in range(m)) for i, j in pairs}
    D = D_of(theta, n)
    for i, j in pairs:
        for a in range(m):
            fa = basis(m, a)
            for name, at, got, want in (
                    ("middle-slot-action", (i, n + a, j),
                     bracket(E[i], F[a], E[j]),
                     vscale(-1, matvec(theta[(i, j)], fa))),
                    ("third-slot-action", (i, j, n + a),
                     bracket(E[i], E[j], F[a]), matvec(D[(i, j)], fa))):
                want = vzero(n) + want
                if got != want:
                    out.append((name, at, got, want))
    for t in itertools.product(range(size), repeat=3):
        if sum(1 for s in t if s >= n) >= 2:
            w = bracket(*(basis(size, s) for s in t))
            if not viszero(w):
                out.append(("two-fiber-entries", t, w, None))
    return theta, out


# ---------------------------------------------------------------------------
# random inputs for the witness comparisons

# the bases of the witness comparisons, as (n, br)
WITNESS_BASES = {
    "l2": mk_l2(), "sl2": mk_sl2_lts(), "solv3": mk_solv3_lts(),
    "l2+abelian1": (3, mk_bracket(3, {(0, 1, 1): {0: 1}, (1, 0, 1): {0: -1}})),
}

ENTRIES = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2))
INT_ENTRIES = (-2, -1, 1, 2)

# the entry sets of the seeded witness comparisons, by name
ENTRY_SETS = {"int": INT_ENTRIES, "frac": ENTRIES}


def rand_matrix(rng, rows, cols, values=(-1, 0, 0, 1, Fraction(1, 2))):
    return tuple(tuple(rng.choice(values) for _ in range(cols))
                 for _ in range(rows))


def rand_change_of_basis(rng, m):
    """A random invertible m-by-m matrix P with Fraction entries and its
    inverse, as (P, P^-1)."""
    while True:
        P = rand_matrix(rng, m, m)
        M = sympy.Matrix(P)
        if M.det() != 0:
            inv = M.inv()
            return P, tuple(tuple(Fraction(int(inv[r, c].p), int(inv[r, c].q))
                                  for c in range(m)) for r in range(m))


def conjugate_theta(theta, P, Pinv):
    """The action in the fiber basis given by the columns of P."""
    return {k: matmul(Pinv, matmul(M, P)) for k, M in theta.items()}


def transport_bracket(n, br, P, Pinv):
    """The bracket in the basis given by the columns of P."""
    cols = [tuple(P[r][a] for r in range(n)) for a in range(n)]
    return {t: matvec(Pinv, bracket_vecs(n, br, *(cols[a] for a in t)))
            for t in itertools.product(range(n), repeat=3)}


def perturb(rng, x):
    """A copy of a vector or matrix x with one random entry shifted by a
    random nonzero amount."""
    if not isinstance(x, tuple):
        return x + rng.choice(ENTRIES)
    k = rng.randrange(len(x))
    return x[:k] + (perturb(rng, x[k]),) + x[k + 1:]


# ---------------------------------------------------------------------------
# ready-made contexts

SOLV3_N = ((0, 0, 0), (0, 0, 0), (0, 1, 0))


def ctx_l2():
    n, br = mk_l2()
    theta = adjoint_theta(n, br)
    N = ((0, 1), (0, 1))
    return Ctx(n, br, theta, n, N, N)


def ctx_dim1():
    n, br = mk_abelian(1)
    theta = {(0, 0): ((0,),)}
    return Ctx(n, br, theta, 1, ((2,),), ((3,),))


def ctx_l2_trivrep():
    n, br = mk_l2()
    theta = {(i, j): ((0,),) for i in range(n) for j in range(n)}
    return Ctx(n, br, theta, 1, ((0, 1), (0, 1)), ((5,),))


def ctx_l2_adj_lam(lam=5):
    n, br = mk_l2()
    theta = adjoint_theta(n, br)
    return Ctx(n, br, theta, n, ((0, 1), (0, 1)), matscale(lam, ident(n)))


def ctx_solv3_adj():
    n, br = mk_solv3_lts()
    return Ctx(n, br, adjoint_theta(n, br), n, SOLV3_N, SOLV3_N)
