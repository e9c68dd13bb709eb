"""Lie triple 2-systems, their Nijenhuis structures, and crossed modules.

A Lie triple 2-system is a two-term object (T0, T1, h, l3, l5): a base
space T0, a fiber space T1, a linear map h : T1 -> T0, a trilinear
bracket l3 defined on argument mixtures with at most one T1 entry (two
or more T1 entries give zero), and a five-argument map
l5 : T0^5 -> T1.  Together l3 is one graded bracket on T0 + T1: base
arguments land in T0, one fiber argument lands in T1.  It is stored as
four tensors keyed by the slot carrying the T1 argument:

  l3_000[(i,j,k)]  base bracket, lands in T0;
  l3_100[(a,i,j)]  T1 argument first, lands in T1;
  l3_010[(i,a,j)]  T1 argument second;
  l3_001[(i,j,a)]  T1 argument third.

The coherence conditions L5-L10 share one five-term defect of the
graded bracket,

  F(y1,...,y5) = -[y1,y2,[y3,y4,y5]] + [y3,[y1,y2,y4],y5]
                 + [[y1,y2,y3],y4,y5] + [y3,y4,[y1,y2,y5]],

taken with at most one fiber argument: L5 says h(l5(x1,...,x5)) =
F(x1,...,x5) on base arguments, and L(5+s), s = 1..5, says that l5
with h(a) as its s-th argument equals F with a as its s-th argument.

A Nijenhuis structure on such a system is a triple (N0, N1, N2): base
and fiber operators plus a correcting map N2 : T0^3 -> T1.  The
compatibility conditions tie the failure of N0 to be Nijenhuis on the
base to h o N2, the failure of (N0, N1) on the third-slot action to
N2(., ., h(.)), and the five-argument coherence to the degree-5 pair
differential of the associated complex (base system, slot-one action,
N0, N1).

A 2-system with h = 0 is skeletal; one with l5 = 0 (and N2 = 0 for the
Nijenhuis structure) is strict.  Skeletal structures repackage exactly
as degree-5 cocycle pairs, and strict ones as crossed modules.
"""

import itertools

from .linalg import (
    as_matrix,
    matmul,
    matsub,
    matvec,
    vadd,
    viszero,
    vscale,
    vsub,
    vzero,
    zeros,
)
from .lts import (
    LieTripleSystem,
    Report,
    Representation,
    _five_term,
    apply_in_slot,
    check_lts,
    check_representation,
    slot_matrices,
    symmetry_defects,
)
from .cohomology import (
    Complex,
    dense_tensor,
    normalize_cochain,
    yamaguti_coboundary,
)
from .nrep import check_nijenhuis_rep, compatibility_sides
from .operators import is_nijenhuis


class LieTriple2System:
    """Two-term Lie triple data (T0, T1, h, graded l3, l5)."""

    def __init__(self, dim0, dim1, h, l3_000=None, l3_100=None, l3_010=None,
                 l3_001=None, l5=None):
        self.n0 = int(dim0)
        self.n1 = int(dim1)
        n0, n1 = self.n0, self.n1
        self.h = as_matrix(h, n0, n1, "h")
        self.l3_000 = dense_tensor(l3_000, (n0, n0, n0), n0, "l3_000 value")
        self.l3_100 = dense_tensor(l3_100, (n1, n0, n0), n1, "l3_100 value")
        self.l3_010 = dense_tensor(l3_010, (n0, n1, n0), n1, "l3_010 value")
        self.l3_001 = dense_tensor(l3_001, (n0, n0, n1), n1, "l3_001 value")
        self.l5 = dense_tensor(l5, (n0,) * 5, n1, "l5 value")
        # the bracket tensors by the slot of the T1 argument (None: base)
        self.tables = {None: self.l3_000, 0: self.l3_100, 1: self.l3_010,
                       2: self.l3_001}

    def base_system(self):
        return LieTripleSystem(self.n0, self.l3_000)

    def slot_action(self, fiber):
        """Matrices on T1 of (x, y) -> l3 with the T1 argument in slot
        ``fiber`` and x, y in the other two slots, in order."""
        return slot_matrices(self.tables[fiber], self.n0, self.n1, fiber)

    def is_skeletal(self):
        return all(all(x == 0 for x in row) for row in self.h)

    def is_strict(self):
        return all(viszero(v) for v in self.l5.values())


class Nijenhuis2Structure:
    """Operator triple (N0, N1, N2) on a Lie triple 2-system."""

    def __init__(self, dim0, dim1, N0, N1, N2=None):
        self.n0 = int(dim0)
        self.n1 = int(dim1)
        self.N0 = as_matrix(N0, self.n0, self.n0, "N0")
        self.N1 = as_matrix(N1, self.n1, self.n1, "N1")
        self.N2 = dense_tensor(N2, (self.n0,) * 3, self.n1, "N2 value")

    def is_strict_part(self):
        return all(viszero(v) for v in self.N2.values())


def associated_complex(sys2, nstr):
    """The cochain complex of (base system, first-slot action, N0, N1)."""
    base = sys2.base_system()
    rep = Representation(base, sys2.n1, sys2.slot_action(0))
    return Complex(base, rep, nstr.N0, nstr.N1)


# ---------------------------------------------------------------------------
# the eleven 2-system conditions

# L3 compares [h a, b, x] with [a, h b, x] for a, b in the named slot pair
_L3_PAIRS = (("first", 0, 1), ("second", 0, 2), ("third", 1, 2))


def _recorder(v):
    """The witness recorder of a checker, appending to the list v."""
    def bad(cond, at, lhs, rhs=None):
        entry = {"condition": cond, "at": at, "lhs": lhs}
        if rhs is not None:
            entry["rhs"] = rhs
        v.append(entry)
    return bad


def check_2system(sys2):
    """All coherence conditions of a Lie triple 2-system, with witnesses."""
    n0, n1 = sys2.n0, sys2.n1
    s = sys2
    v = []
    bad = _recorder(v)

    # L1: antisymmetry in the first two slots, in every grading; the base
    # bracket's antisymmetry and cyclic sums are its symmetry_defects
    base_defects = symmetry_defects(s.l3_000, n0, 3, n0)
    for kind, at, w in base_defects:
        if kind == "antisymmetry":
            bad("L1-base-antisymmetry", at, w)
    for i, j in itertools.product(range(n0), repeat=2):
        for a in range(n1):
            w = vadd(s.l3_001[(i, j, a)], s.l3_001[(j, i, a)])
            if not viszero(w):
                bad("L1-third-slot-antisymmetry", (i, j, a), w)
            w = vadd(s.l3_100[(a, i, j)], s.l3_010[(i, a, j)])
            if not viszero(w):
                bad("L1-mixed-antisymmetry", (a, i, j), w)

    # L2: h intertwines the fiber bracket with the base bracket
    zero0, zero1 = vzero(n0), vzero(n1)
    h_first = apply_in_slot(s.l3_000, s.h, 0)
    for a in range(n1):
        for j, k in itertools.product(range(n0), repeat=2):
            lhs = matvec(s.h, s.l3_100[(a, j, k)])
            rhs = h_first.get((a, j, k), zero0)
            if lhs != rhs:
                bad("L2", (a, j, k), lhs, rhs)

    # L3: the three h-balancing identities, h in slot p against h in slot q
    balanced = [(name, p, q, apply_in_slot(s.tables[q], s.h, p),
                 apply_in_slot(s.tables[p], s.h, q))
                for name, p, q in _L3_PAIRS]
    for a, b in itertools.product(range(n1), repeat=2):
        for x in range(n0):
            for name, p, q, left, right in balanced:
                key = tuple(a if r == p else b if r == q else x
                            for r in range(3))
                lhs = left.get(key, zero1)
                rhs = right.get(key, zero1)
                if lhs != rhs:
                    bad("L3-" + name, (a, b, x), lhs, rhs)

    # L4: cyclic sums, in every grading
    for kind, at, w in base_defects:
        if kind == "cyclic":
            bad("L4-base-cyclic", at, w)
    for i, j in itertools.product(range(n0), repeat=2):
        for a in range(n1):
            w = vadd(vadd(s.l3_001[(i, j, a)], s.l3_010[(j, a, i)]),
                     s.l3_100[(a, i, j)])
            if not viszero(w):
                bad("L4-mixed-cyclic", (i, j, a), w)

    # L5..L10: l5, through h, measures the five-term defect F
    five_term = _five_term(s.tables, n0, n1)
    for t in itertools.product(range(n0), repeat=5):
        lhs = matvec(s.h, s.l5[t])
        rhs = five_term(t, None)
        if lhs != rhs:
            bad("L5", t, lhs, rhs)
    h_l5 = [apply_in_slot(s.l5, s.h, p) for p in range(5)]
    for a in range(n1):
        for t in itertools.product(range(n0), repeat=4):
            for p in range(5):
                at = t[:p] + (a,) + t[p:]
                lhs = h_l5[p].get(at, zero1)
                rhs = five_term(at, p)
                if lhs != rhs:
                    bad("L%d" % (6 + p), at, lhs, rhs)

    # L11: l5 is a cocycle of Yamaguti's coboundary for the first-slot
    # action, the third-slot family and the base bracket
    dl5 = yamaguti_coboundary(
        s.l5, 5, n1, s.slot_action(0), s.slot_action(2),
        {k: ((1, None, v),) for k, v in s.l3_000.items()})
    for t, w in sorted(dl5.items()):
        bad("L11", t, w)

    report = Report(not v, v)
    report.data["skeletal"] = s.is_skeletal()
    report.data["strict"] = s.is_strict()
    return report


# ---------------------------------------------------------------------------
# Nijenhuis structure conditions

def check_nijenhuis_2system(sys2, nstr):
    """Compatibility of (N0, N1, N2) with a Lie triple 2-system.

    The report's data records the skeletal and strict flags; witnesses
    name the condition:

      (a) "operator-h-commutation": N0 h = h N1;
      (b), (c) "N2-antisymmetry", "N2-cyclic": N2 has cochain symmetry;
      (d) "base-defect": the Nijenhuis defect [Nx,Ny,Nz] - N0 [x,y,z]_N
          of N0 on the base is -h(N2(x,y,z));
      (e) "fiber-defect": the defect (right side minus left side) of the
          compatibility identity of N0, N1 with the third-slot action
          (x, y) -> l3(x, y, .) is N2(., ., h(.));
      (f) "five-argument": the second component of the degree-5 pair
          differential d(l5, N2) of ``associated_complex`` vanishes.
    """
    if (sys2.n0, sys2.n1) != (nstr.n0, nstr.n1):
        raise ValueError("dimension mismatch between system and structure")
    n0, n1 = sys2.n0, sys2.n1
    s = sys2
    N0, N1, N2 = nstr.N0, nstr.N1, nstr.N2
    v = []
    bad = _recorder(v)

    # (a) the operators commute with h
    comm = matsub(matmul(N0, s.h), matmul(s.h, N1))
    if any(any(x for x in row) for row in comm):
        bad("operator-h-commutation", None, comm)

    # (b), (c): N2 has cochain symmetry
    for kind, at, w in symmetry_defects(N2, n0, 3, n1):
        bad("N2-" + kind, at, w)

    # (d): the base Nijenhuis defect is -h(N2)
    cx = associated_complex(sys2, nstr)
    for t, (a3, _, _, p2) in cx._parts.items():
        lhs = vsub(a3, matvec(N0, p2))
        rhs = vscale(-1, matvec(s.h, N2[t]))
        if lhs != rhs:
            bad("base-defect", t, lhs, rhs)

    # (e): the defect of the third-slot action is N2(., ., h(.))
    rep = Representation(cx.system, n1, s.slot_action(2))
    N2_h = apply_in_slot(N2, s.h, 2)
    zero1 = vzero(n1)
    for (i, j), (lhs, rhs) in compatibility_sides(rep, N0, N1).items():
        defect = matsub(rhs, lhs)
        for a in range(n1):
            lhs = tuple(defect[r][a] for r in range(n1))
            rhs = N2_h.get((i, j, a), zero1)
            if lhs != rhs:
                bad("fiber-defect", (i, j, a), lhs, rhs)

    # (f): the five-argument condition, as the degree-5 pair differential
    second = cx.d_second(s.l5, N2, 5)
    for t in sorted(second):
        if not viszero(second[t]):
            bad("five-argument", t, second[t])

    report = Report(not v, v)
    report.data["skeletal"] = s.is_skeletal()
    report.data["strict"] = s.is_strict() and nstr.is_strict_part()
    return report


# ---------------------------------------------------------------------------
# skeletal <-> degree-5 cocycle pairs

def skeletal_to_cocycle(sys2, nstr):
    """Repackage a skeletal structure as a degree-5 pair over its complex.

    Returns (complex, f, g) with f = l5 and g = N2.  Requires h = 0.
    """
    if not sys2.is_skeletal():
        raise ValueError("the 2-system is not skeletal (h is nonzero)")
    cx = associated_complex(sys2, nstr)
    f = normalize_cochain(sys2.l5, sys2.n0, sys2.n1, 5)
    g = normalize_cochain(nstr.N2, sys2.n0, sys2.n1, 3)
    return cx, f, g


def cocycle_to_skeletal(complex_, f, g):
    """Repackage a degree-5 pair over a complex as a skeletal structure.

    The bracket tensors come from the complex's representation through
    the standard dictionary: first slot carries the action, the middle
    slot its negative, the third slot the derived family.
    """
    n, m = complex_.n, complex_.m
    f = normalize_cochain(f, n, m, 5)
    g = normalize_cochain(g, n, m, 3)
    sys2 = LieTriple2System(n, m, zeros(n, m), complex_.system.table,
                            *complex_.rep.slot_tensors(), f)
    nstr = Nijenhuis2Structure(n, m, complex_.N, complex_.Nv, g)
    return sys2, nstr


# ---------------------------------------------------------------------------
# crossed modules

class CrossedModule:
    """A base system with operator, a fiber system, h, and an action."""

    def __init__(self, base, N0, fiber_dim, fiber_table, h, action, N1):
        self.base = base
        self.n0 = base.dim
        self.n1 = int(fiber_dim)
        self.N0 = as_matrix(N0, self.n0, self.n0, "N0")
        self.fiber = LieTripleSystem(self.n1, fiber_table)
        self.h = as_matrix(h, self.n0, self.n1, "h")
        self.action = Representation(base, self.n1, action)
        self.N1 = as_matrix(N1, self.n1, self.n1, "N1")


def check_crossed_module(xm):
    """All defining conditions of a crossed module of this kind.

    The three conditions on h read contractions of slot tables: the base
    table with h in all three slots or in slot 0, and the action's
    first-slot table with h in its two base slots.
    """
    v = []
    bad = _recorder(v)
    for condition, report in (
            ("base-axioms", check_lts(xm.base)),
            ("base-operator", is_nijenhuis(xm.base, xm.N0)),
            ("fiber-axioms", check_lts(xm.fiber)),
            ("action-representation", check_representation(xm.action)),
            ("action-operator", check_nijenhuis_rep(xm.action, xm.N0, xm.N1))):
        v += [dict(item, condition=condition) for item in report.violations]

    n0, n1 = xm.n0, xm.n1
    h = xm.h
    comm = matsub(matmul(xm.N0, h), matmul(h, xm.N1))
    if any(any(x for x in row) for row in comm):
        v.append({"condition": "operator-h-commutation", "value": comm})

    # h is a homomorphism of triple systems
    zero0 = vzero(n0)
    h_first = apply_in_slot(xm.base.table, h, 0)
    h_all = apply_in_slot(apply_in_slot(h_first, h, 1), h, 2)
    for t in itertools.product(range(n1), repeat=3):
        lhs = matvec(h, xm.fiber.coeff(*t))
        rhs = h_all.get(t, zero0)
        if lhs != rhs:
            bad("h-homomorphism", t, lhs, rhs)

    # h carries the action to the base bracket
    first = xm.action.slot_tensors()[0]
    for i, j in itertools.product(range(n0), repeat=2):
        for a in range(n1):
            lhs = matvec(h, first[(a, i, j)])
            rhs = h_first.get((a, i, j), zero0)
            if lhs != rhs:
                bad("h-equivariance", (i, j, a), lhs, rhs)

    # the action on h-images recovers the fiber bracket
    act = apply_in_slot(apply_in_slot(first, h, 1), h, 2)
    zero1 = vzero(n1)
    for a, b, c in itertools.product(range(n1), repeat=3):
        lhs = act.get((c, a, b), zero1)
        rhs = xm.fiber.coeff(c, a, b)
        if lhs != rhs:
            bad("peiffer", (a, b, c), lhs, rhs)
    return Report(not v, v)


def strict_to_crossed_module(sys2, nstr):
    """Repackage a strict structure (l5 = 0, N2 = 0) as a crossed module.

    The fiber bracket is [a,b,c] = l3(h(a), h(b), c) and the action is
    the first-slot family of the 2-system.
    """
    if not (sys2.is_strict() and nstr.is_strict_part()):
        raise ValueError("the structure is not strict (l5 or N2 is nonzero)")
    h = sys2.h
    fiber_table = apply_in_slot(apply_in_slot(sys2.l3_001, h, 0), h, 1)
    return CrossedModule(sys2.base_system(), nstr.N0, sys2.n1, fiber_table,
                         h, sys2.slot_action(0), nstr.N1)


def crossed_module_to_strict(xm):
    """Repackage a crossed module as a strict structure.

    The graded bracket tensors come from the action through the standard
    dictionary, and l5 and N2 are zero.
    """
    n0, n1 = xm.n0, xm.n1
    sys2 = LieTriple2System(n0, n1, xm.h, xm.base.table,
                            *xm.action.slot_tensors(), None)
    nstr = Nijenhuis2Structure(n0, n1, xm.N0, xm.N1, None)
    return sys2, nstr
