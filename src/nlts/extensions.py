"""Abelian extensions of a Lie triple system with a Nijenhuis structure.

An extension packs a base system (T, [.,.,.], N), a representation
(V, theta, Nv), and a pair (psi, chi): psi is a degree-3 cochain giving
the fiber component of brackets of base elements, and chi : T -> V is
the fiber component of the lifted operator.  In split coordinates
(T first, V second) the total structure is

  [(x,u), (y,v), (z,w)] = ( [x,y,z],
                            psi(x,y,z) + theta(y,z)u - theta(x,z)v
                                       + D(x,y)w ),
  Nhat = [[N, 0], [chi, Nv]],

with all brackets containing two or more fiber entries equal to zero.
The total structure satisfies the triple-system axioms and Nhat is
Nijenhuis exactly when (psi, chi) is a cocycle of the pair differential
in degree 3; two extensions over the same data are equivalent exactly
when the difference of their pairs is a coboundary, and the witness
gamma yields the isomorphism (x, u) -> (x, u + gamma(x)).
"""

import itertools

from .linalg import as_matrix, matmul, vzero
from .lts import (LieTripleSystem, Report, Representation, check_lts,
                  slot_matrices)
from .cohomology import Complex, cochain_sub, normalize_cochain
from .operators import is_morphism, is_nijenhuis


def _one_fiber_keys(n, m):
    """The brackets with one fiber entry in split coordinates (base indices
    first, fiber index a at n + a): per base pair (i, j) and fiber index a,
    with the fiber entry first, second and third, the total key, the fiber
    slot, and the key of that slot's table in ``slot_tensors``."""
    for i, j, a in itertools.product(range(n), range(n), range(m)):
        for slot in range(3):
            head, tail = (i, j)[:slot], (i, j)[slot:]
            yield head + (n + a,) + tail, slot, head + (a,) + tail


class AbelianExtension:
    """Total system and lifted operator in split coordinates."""

    def __init__(self, base, rep, N, Nv, psi, chi, total=None):
        self.base = base
        self.rep = rep
        n, m = base.dim, rep.vdim
        self.n, self.m = n, m
        self.N = as_matrix(N, n, n, "N")
        self.Nv = as_matrix(Nv, m, m, "Nv")
        self.psi = normalize_cochain(psi, n, m, 3)
        self.chi = as_matrix(chi, m, n, "chi")
        self.total = total if total is not None else self._build_total()
        self.Nhat = (tuple(row + vzero(m) for row in self.N)
                     + tuple(c + v for c, v in zip(self.chi, self.Nv)))

    def _build_total(self):
        n, m = self.n, self.m
        table = {}
        for t in itertools.product(range(n), repeat=3):
            table[t] = self.base.coeff(*t) + self.psi[t]
        pad = vzero(n)
        slots = self.rep.slot_tensors()
        for at, slot, key in _one_fiber_keys(n, m):
            table[at] = pad + slots[slot][key]
        return LieTripleSystem(n + m, table)

    def complex(self):
        return Complex(self.base, self.rep, self.N, self.Nv)

    def same_underlying_data(self, other):
        return (self.n == other.n and self.m == other.m
                and self.base == other.base
                and self.rep.theta == other.rep.theta
                and self.N == other.N and self.Nv == other.Nv)


def chi_to_cochain(chi, n, m):
    """Columns of the m-by-n matrix chi as a degree-1 cochain."""
    return {(i,): tuple(chi[a][i] for a in range(m)) for i in range(n)}


def cochain_to_chi(g, n, m):
    return tuple(tuple(g[(i,)][a] for i in range(n)) for a in range(m))


def build_extension(complex_, psi, chi):
    """Assemble the extension of a complex's data by a candidate pair.

    The construction always runs.  The report verdict states whether the
    assembled total bracket satisfies the triple-system axioms and the
    lifted operator is Nijenhuis; the data also records the degree-3
    cocycle verdict of (psi, chi), which agrees with the structural one
    whenever the complex's own inputs are valid.
    """
    ext = AbelianExtension(complex_.system, complex_.rep, complex_.N,
                           complex_.Nv, psi, chi)
    report = validate_extension(ext)
    chig = chi_to_cochain(ext.chi, ext.n, ext.m)
    cocycle = complex_.is_cocycle(ext.psi, chig, 3)
    if report.ok != cocycle.ok:
        report.warnings.append("structural verdict disagrees with the "
                               "cocycle verdict; the base or representation "
                               "data is likely invalid")
    report.data["cocycle_ok"] = cocycle.ok
    return ext, report


def validate_extension(ext):
    """Axioms of the total system plus the lifted Nijenhuis identity."""
    axioms = check_lts(ext.total)
    nij = is_nijenhuis(ext.total, ext.Nhat)
    return Report(axioms.ok and nij.ok, axioms.violations + nij.violations,
                  [], {"total_lts_ok": axioms.ok,
                       "lifted_nijenhuis_ok": nij.ok})


def extract_cocycle(ext):
    """Read (psi, chi) off an extension through the canonical section x -> (x, 0).

    psi(x,y,z) is the fiber part of the total bracket of lifted base
    vectors and chi is the fiber part of Nhat on lifted base vectors.
    """
    n, m = ext.n, ext.m
    psi = {}
    for t in itertools.product(range(n), repeat=3):
        psi[t] = tuple(ext.total.coeff(*t)[n:])
    chi = tuple(tuple(ext.Nhat[n + a][c] for c in range(n)) for a in range(m))
    return psi, chi


_SLOT_IDENTITIES = {1: "middle-slot-action", 2: "third-slot-action"}


def induced_representation(ext):
    """The fiber action read off the total bracket, with consistency checks.

    theta(x, y)u is the fiber part of [(0,u), (x,0), (y,0)].  The report
    verifies that the other mixed bracket patterns match (-theta and the
    derived family) and that brackets with two fiber entries vanish, so
    the action is independent of the choice of section.
    """
    n, m = ext.n, ext.m
    total = ext.total
    violations = []
    first = {}
    for at, slot, key in _one_fiber_keys(n, m):
        if slot == 0:
            w = total.coeff(*at)
            if any(w[:n]):
                violations.append({"identity": "fiber-ideal", "at": at,
                                   "value": w[:n]})
            first[key] = w[n:]
    rep = Representation(ext.base, m, slot_matrices(first, n, m, 0))
    slots = rep.slot_tensors()
    for at, slot, key in _one_fiber_keys(n, m):
        if slot:
            w = total.coeff(*at)
            want = vzero(n) + slots[slot][key]
            if w != want:
                violations.append({"identity": _SLOT_IDENTITIES[slot],
                                   "at": at, "lhs": w, "rhs": want})
    for t in itertools.product(range(n + m), repeat=3):
        if sum(1 for s in t if s >= n) >= 2:
            w = total.coeff(*t)
            if any(w):
                violations.append({"identity": "two-fiber-entries",
                                   "at": t, "value": w})
    return rep, Report(not violations, violations)


def extensions_equivalent(ext1, ext2):
    """Decide equivalence over identical underlying data.

    Returns a report whose data holds "equivalent" and, when equivalent,
    the witness "gamma" (an m-by-n matrix) such that
    eta(x, u) = (x, u + gamma(x)) is an isomorphism from the first
    extension to the second; the isomorphism property is re-verified
    directly and recorded under "isomorphism_verified".
    """
    if not ext1.same_underlying_data(ext2):
        raise ValueError("extensions do not share base, representation, "
                         "and operator data")
    cx = ext1.complex()
    n, m = ext1.n, ext1.m
    dpsi = cochain_sub(ext1.psi, ext2.psi)
    dchi = cochain_sub(chi_to_cochain(ext1.chi, n, m),
                       chi_to_cochain(ext2.chi, n, m))
    found, pair = cx.is_coboundary(dpsi, dchi, 3)
    if not found:
        return Report(False, [], [], {"equivalent": False, "gamma": None})
    # over an empty domain is_coboundary shows no pair: gamma is then zero
    gamma = cochain_to_chi(pair[0] if pair else {}, n, m)
    eta = _eta_matrix(gamma, n, m)
    iso_ok = _is_isomorphism(eta, ext1, ext2)
    return Report(iso_ok, [], [],
                  {"equivalent": True, "gamma": gamma,
                   "isomorphism_verified": iso_ok})


def _eta_matrix(gamma, n, m):
    rows = []
    for r in range(n):
        rows.append(tuple(1 if c == r else 0 for c in range(n)) + vzero(m))
    for a in range(m):
        rows.append(tuple(gamma[a]) + tuple(1 if c == a else 0
                                            for c in range(m)))
    return tuple(rows)


def _is_isomorphism(eta, ext1, ext2):
    """eta carries brackets and lifted operators of ext1 to ext2."""
    return (is_morphism(ext1.total, ext2.total, eta).ok
            and matmul(eta, ext1.Nhat) == matmul(ext2.Nhat, eta))
