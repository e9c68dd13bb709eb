"""Nijenhuis, Rota-Baxter, and modified Rota-Baxter operators.

All operators are square matrices acting on a Lie triple system by
column convention: (N v)_r = sum_c N[r][c] v[c].  A Nijenhuis operator
satisfies, for all x, y, z,

  [Nx,Ny,Nz] = N( [Nx,Ny,z]+[x,Ny,Nz]+[Nx,y,Nz]
                  - N([Nx,y,z]+[x,Ny,z]+[x,y,Nz] - N[x,y,z]) ),

and the right-hand side (without the outer N) defines the deformed
bracket [x,y,z]_N, which is again a Lie triple system bracket and makes
N a morphism from it to the original one.
"""

import itertools

from .linalg import (
    as_matrix,
    ident,
    integer_scaled,
    matadd,
    mat_iszero,
    matmul,
    matscale,
    matvec,
    vadd,
    vdiv,
    vscale,
    vsub,
    vzero,
)
from .lts import LieTripleSystem, Report, add_tables, apply_in_slot, check_lts


class BudgetExceeded(ValueError):
    """Raised when an exhaustive search would exceed its configured budget."""


def graded_brackets(T, N):
    """The basis brackets of T graded by how many arguments N transforms.

    Returns sparse tables (A0, A1, A2, A3) over basis triples (missing
    keys are zero): A_d[(i,j,k)] is the sum, over the ways of choosing d
    of the three slots, of the bracket of e_i, e_j, e_k with N applied in
    the chosen slots.  So A0 is the structure table T, A1 at (i,j,k) is
    [Ne_i,e_j,e_k] + [e_i,Ne_j,e_k] + [e_i,e_j,Ne_k], and A3 is
    [Ne_i,Ne_j,Ne_k].  Each table is a chain of sparse contractions of T
    with N, one input slot at a time.
    """
    T1, T2, T3 = (apply_in_slot(T, N, s) for s in range(3))
    T12 = apply_in_slot(T1, N, 1)
    A2 = add_tables(T12, apply_in_slot(T1, N, 2), apply_in_slot(T2, N, 2))
    return T, add_tables(T1, T2, T3), A2, apply_in_slot(T12, N, 2)


def telescoped_brackets(T, N):
    """The deformed bracket of T and its parts on every basis triple.

    Returns {(i,j,k): (a3, p0, p1, p2)} in basis-triple order, with
    p0 = A0, p1 = A1 - N p0 and p2 = A2 - N p1 = [e_i,e_j,e_k]_N (see
    ``graded_brackets``) and a3 = A3 = [Ne_i,Ne_j,Ne_k].  The Nijenhuis
    identity reads a3 = N p2.  All four are zero, and not computed, on a
    triple where every A_d is.
    """
    n = len(N)
    A0, A1, A2, A3 = graded_brackets(T, N)
    zero = vzero(n)
    out = dict.fromkeys(itertools.product(range(n), repeat=3), (zero,) * 4)
    for t in A0.keys() | A1.keys() | A2.keys() | A3.keys():
        p0 = A0.get(t, zero)
        p1 = vsub(A1.get(t, zero), matvec(N, p0))
        out[t] = (A3.get(t, zero), p0, p1, vsub(A2.get(t, zero), matvec(N, p1)))
    return out


def identity_report(identity, sides, **fields):
    """The report of an identity whose two sides at each point are given
    as (at, lhs, rhs): every point where they differ is a violation with
    the keys identity, the given fields, at, lhs and rhs, in that order."""
    violations = [{"identity": identity, **fields, "at": at,
                   "lhs": lhs, "rhs": rhs}
                  for at, lhs, rhs in sides if lhs != rhs]
    return Report(not violations, violations)


def _defect_witnesses(N, parts):
    """(t, [Nx,Ny,Nz], N[x,y,z]_N) at each basis triple t of a
    ``telescoped_brackets`` result where the two sides differ."""
    return [(t, lhs, rhs) for t, (lhs, _, _, p2) in parts.items()
            if lhs != (rhs := matvec(N, p2))]


def nijenhuis_defect(system, N):
    """Nonzero witnesses of [Nx,Ny,Nz] - N([x,y,z]_N) over basis triples.

    It runs on integers, the table times dT and N times dN
    (``integer_scaled``), so both sides are divided back by dT * dN**3.
    """
    dT, T = integer_scaled(system.table)
    dN, N = integer_scaled(as_matrix(N, system.dim, system.dim, "operator"))
    return [(t, vdiv(a, dT * dN ** 3), vdiv(b, dT * dN ** 3))
            for t, a, b in _defect_witnesses(N, telescoped_brackets(T, N))]


def is_nijenhuis(system, N):
    """Report whether N satisfies the Nijenhuis identity; witnesses show both sides."""
    return identity_report("nijenhuis", nijenhuis_defect(system, N))


# the right side of each Rota-Baxter family identity of weight w at a basis
# triple, from R and the graded brackets A2, A1, A0 there (zero if they are)
_RB_RHS = {
    "rota-baxter": lambda R, w, a2, a1, a0:
        matvec(R, vadd(vadd(a2, vscale(w, a1)), vscale(w * w, a0))),
    "modified-rota-baxter": lambda R, w, a2, a1, a0:
        vadd(matvec(R, vsub(a2, vscale(w, a0))), vscale(w, a1)),
}


def check_rb_family(system, R, identity, weight):
    """The named Rota-Baxter family identity of the given weight on basis
    triples: [Rx,Ry,Rz] = A3 of ``graded_brackets`` against the right
    side in ``_RB_RHS``, skipping triples where every A_d is zero."""
    R = as_matrix(R, system.dim, system.dim, "operator")
    rhs = _RB_RHS[identity]
    A0, A1, A2, A3 = graded_brackets(system.table, R)
    zero = vzero(system.dim)
    return identity_report(identity, (
        (t, A3.get(t, zero), rhs(R, weight, A2.get(t, zero),
                                 A1.get(t, zero), A0.get(t, zero)))
        for t in sorted(A0.keys() | A1.keys() | A2.keys() | A3.keys())),
        weight=weight)


def is_rota_baxter(system, R, weight=0):
    """Rota-Baxter identity of the given weight, checked on basis triples."""
    return check_rb_family(system, R, "rota-baxter", weight)


def is_modified_rb(system, R, weight=0):
    """Modified Rota-Baxter identity of the given weight on basis triples."""
    return check_rb_family(system, R, "modified-rota-baxter", weight)


def rb_to_modified(R, weight):
    """Map a weight-w Rota-Baxter operator to a modified one.

    Returns (2R + w*I, -w^2); when R is Rota-Baxter of weight w on a
    system, the returned matrix is modified Rota-Baxter of the returned
    weight on the same system.
    """
    n = len(R)
    M = matadd(matscale(2, tuple(tuple(row) for row in R)),
               matscale(weight, ident(n)))
    return M, -(weight * weight)


def induced_bracket(system, N):
    """The deformed system ([.,.,.]_N) together with a validity report.

    The construction is always carried out.  The report records whether N
    is Nijenhuis (a warning is attached when it is not) and whether the
    deformed structure constants satisfy the triple-system axioms; its
    verdict is the conjunction of the two.
    """
    N = as_matrix(N, system.dim, system.dim, "operator")
    parts = telescoped_brackets(system.table, N)
    deformed = LieTripleSystem(system.dim,
                               {t: p2 for t, (_, _, _, p2) in parts.items()})
    nij = identity_report("nijenhuis", _defect_witnesses(N, parts))
    axioms = check_lts(deformed)
    warnings = []
    if not nij:
        warnings.append("operator is not Nijenhuis; deformed bracket may "
                        "fail the triple-system axioms")
    report = Report(nij.ok and axioms.ok,
                    nij.violations + axioms.violations,
                    warnings,
                    {"nijenhuis_ok": nij.ok, "deformed_lts_ok": axioms.ok})
    return deformed, report


def is_morphism(source, target, N):
    """Whether N maps source brackets to target brackets: N[x,y,z]_s = [Nx,Ny,Nz]_t."""
    n = source.dim
    N = as_matrix(N, n, n, "operator")
    image = graded_brackets(target.table, N)[3]
    zero = vzero(target.dim)
    return identity_report("morphism", (
        (t, matvec(N, source.coeff(*t)), image.get(t, zero))
        for t in itertools.product(range(n), repeat=3)))


# the identity, and its weight, that the Nijenhuis identity is equivalent
# to for each special shape of N^2 (see classify_by_square)
_RELATED = {
    "zero": ("rota-baxter", 0),
    "square-zero": ("rota-baxter", 0),
    "idempotent": ("rota-baxter", -1),
    "involution": ("modified-rota-baxter", -1),
    "anti-involution": ("modified-rota-baxter", 1),
}


def classify_by_square(system, N):
    """Detect special shapes of N^2 and check the matching operator relations.

    Shapes: "zero" (N = 0), "square-zero" (N^2 = 0), "idempotent"
    (N^2 = N), "involution" (N^2 = I), "anti-involution" (N^2 = -I), or
    "generic".  For the special shapes the report's data records whether
    the expected equivalence holds on this system:

      * N^2 = 0:   Nijenhuis  <=>  Rota-Baxter of weight 0,
      * N^2 = N:   Nijenhuis  <=>  Rota-Baxter of weight -1,
      * N^2 = +I:  Nijenhuis  <=>  modified Rota-Baxter of weight -1,
      * N^2 = -I:  Nijenhuis  <=>  modified Rota-Baxter of weight +1.
    """
    n = system.dim
    N = as_matrix(N, n, n, "operator")
    N2 = matmul(N, N)
    if mat_iszero(N):
        shape = "zero"
    elif mat_iszero(N2):
        shape = "square-zero"
    elif N2 == N:
        shape = "idempotent"
    elif N2 == ident(n):
        shape = "involution"
    elif N2 == matscale(-1, ident(n)):
        shape = "anti-involution"
    else:
        shape = "generic"
    nij = is_nijenhuis(system, N)
    data = {"shape": shape, "nijenhuis_ok": nij.ok}
    if shape in _RELATED:
        identity, weight = _RELATED[shape]
        other = check_rb_family(system, N, identity, weight)
        data["related"] = {"identity": identity, "weight": weight,
                           "ok": other.ok}
        data["equivalence_holds"] = nij.ok == other.ok
    return Report(nij.ok, nij.violations, [], data)


class _Poly(dict):
    """A polynomial {sorted tuple of variable indices: coefficient}.

    It has just the arithmetic that two symbolic runs use: the grid
    search expands the Nijenhuis defect of an operator whose entries are
    variables, and ``cohomology._w3_data`` reads the symmetry constraints
    of a 3-tensor whose entries are variables.  Zero coefficients are
    never stored, so the zero polynomial is the empty dict and is falsy.
    """

    def _put(self, m, c):
        c += self.get(m, 0)
        if c:
            self[m] = c
        else:
            self.pop(m, None)

    def __add__(self, other, sign=1):
        out = _Poly(self)
        for m, c in _terms(other):
            out._put(m, sign * c)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return -1 * self + other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return _Poly({m: c * other for m, c in self.items()} if other
                         else ())
        out = _Poly()
        for m2, c2 in _terms(other):
            for m1, c1 in self.items():
                out._put(tuple(sorted(m1 + m2)), c1 * c2)
        return out

    __rmul__ = __mul__


def _terms(x):
    if isinstance(x, _Poly):
        return x.items()
    return (((), x),) if x else ()


def _defect_polynomials(system):
    """The Nijenhuis defect as polynomials in the entries of N.

    The defect [Nx,Ny,Nz] - N[x,y,z]_N is computed by the same
    contractions as ``nijenhuis_defect``, on the operator whose entry
    N[r][c] is the variable r*n + c.  Every term is cubic.  Returns one
    polynomial per component of the defect (basis triple and output
    coordinate) that is not identically zero.
    """
    n = system.dim
    N = tuple(tuple(_Poly({(r * n + c,): 1}) for c in range(n))
              for r in range(n))
    return [d for a3, _, _, p2 in telescoped_brackets(system.table, N).values()
            for d in vsub(a3, matvec(N, p2)) if d]


def grid_search_nijenhuis(system, values, budget=1_000_000):
    """All Nijenhuis matrices with entries drawn from ``values``.

    Raises BudgetExceeded when the grid holds more than ``budget``
    candidate matrices; that check comes before any other work.  The
    Nijenhuis defect is then expanded once, by running the identity check
    on a symbolic operator, into cubic polynomials in the n^2 entries
    (variable r*n + c is N[r][c]); identically zero components are
    dropped.  The search assigns the entries row-major, each in ascending
    value order, and abandons a partial assignment as soon as a defect
    component whose variables are all assigned evaluates to nonzero.
    Arithmetic is exact, so the result holds exactly the Nijenhuis
    matrices of the grid, and the assignment order makes the list
    deterministic and lexicographically sorted by the row-major entries.
    """
    n = system.dim
    values = sorted(set(values))
    if not values:
        return []
    total = len(values) ** (n * n)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            "grid of %d candidate matrices exceeds budget %d" % (total, budget))
    if n == 0:
        return [()]
    # checks[v]: the components whose last variable is v, as (c, a, b, d) terms
    checks = [[] for _ in range(n * n)]
    for poly in _defect_polynomials(system):
        terms = tuple((c,) + m for m, c in poly.items())
        checks[max(m[2] for m in poly)].append(terms)
    found = []
    _extend(0, [None] * (n * n), values, checks, found)
    return [tuple(e[r * n:(r + 1) * n] for r in range(n)) for e in found]


def _extend(v, x, values, checks, found):
    """Depth-first step of the grid search: try each value for entry v."""
    for value in values:
        x[v] = value
        if any(sum(c * x[a] * x[b] * x[d] for c, a, b, d in terms)
               for terms in checks[v]):
            continue
        if v + 1 < len(x):
            _extend(v + 1, x, values, checks, found)
        else:
            found.append(tuple(x))
