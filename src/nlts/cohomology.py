"""Cohomology of a Lie triple system twisted by a Nijenhuis structure.

Cochains live in odd degrees.  A degree-1 cochain is a linear map T -> V
stored as ``{(i,): vector}``; a degree-(2k+1) cochain is a multilinear
map T^(2k+1) -> V stored as ``{(i1,...,i2k+1): vector}`` and required to
be antisymmetric in its last-but-one pair of slots with vanishing cyclic
sum over its last three slots.

Two of the operators below are Yamaguti's coboundary (Yamaguti 1960),
one formula for every odd degree 2p+1.  Given actions theta and D on V
and a rule for feeding a bracket into a cochain slot, it sends f to the
(2p+3)-cochain whose value at (x_1, ..., x_2p+3) is

  theta(x_2p+2, x_2p+3) f(x_1, ..., x_2p+1)
    - theta(x_2p+1, x_2p+3) f(x_1, ..., x_2p, x_2p+2)
    + sum_{k=1..p+1} (-1)^(p+k+1) ( D(x_2k-1, x_2k) f(..^x_2k-1, ^x_2k..)
        - sum_{j>2k} f(..^x_2k-1, ^x_2k.., [x_2k-1, x_2k, x_j], ..) ),

where ^ drops an argument and the bracket stands in the place of x_j.
Three operators act on the cochain spaces:

  * ``delta``   -- the Yamaguti coboundary of the underlying system and
                   representation (degree +2);
  * ``partial`` -- the same coboundary formula built from the deformed
                   bracket and deformed action, except that every
                   bracket fed into a cochain slot is expanded as the
                   alternating sum  [.,.,.]_N - Nv [.,.,.]' + Nv^2 [.,.,.]
                   (deformed, once-transformed, and plain graded parts);
  * ``phi``     -- the operator comparison map, a product over slots of
                   (apply N in that slot) - (apply Nv to the value).

They combine into one square-zero differential on pairs,

  d(f, g) = ( delta f,  partial g + (-1)^k phi f ),    k = (deg f + 1)/2,

with g one bracket-degree below f (absent in degree 1).  Cohomology in
degree 1 is ker d; in degrees 3 and 5 it is ker d modulo the image of
the previous d.

d is written once, as Yamaguti's formula in a plan of terms per degree
(``coboundary_plan``) and as phi's slot step.  The row reader gathers the
terms at each transversal tuple ``Complex.flatten`` reads and adds them,
from the coordinate index of the domain basis, into one sparse row per
output coordinate: the matrix of d.  The numeric reader scatters each
nonzero value of a cochain to the output tuples whose terms read it, so it
costs the support of f times the nonzeros of theta, D and the bracket;
phi's step is evaluated at every tuple.
``is_cocycle`` runs d on den*f and den*g, integers by
``linalg.integer_scaled``; d is linear, so each witness value is the
result divided by den.
"""

import collections
import functools
import itertools
from operator import itemgetter

from .linalg import (
    as_matrix,
    integer_scaled,
    kernel_basis,
    matmul,
    matsub,
    matvec,
    rank,
    solve_linear,
    vadd,
    vdiv,
    viszero,
    vscale,
    vsub,
    vzero,
)
from .lts import Report, insert_in_slot, symmetry_defects
from .nrep import deformed_theta
from .operators import _Poly, telescoped_brackets

_W3_CACHE = {}


def _w3_data(n):
    """Constrained 3-tensor space over an n-dimensional base.

    Returns (basis, free) where basis is a list of dicts
    (i,j,k) -> int spanning the tensors antisymmetric in slots 1,2 with
    zero cyclic sum, and free lists one transversal tuple per basis
    element: the first tuple where that element is +1 or -1 and every
    other element is 0.  The constraints are the symmetry sums of the
    tensor whose entry at tuple c is the variable c (an ``operators._Poly``).
    """
    if n in _W3_CACHE:
        return _W3_CACHE[n]
    tuples = list(itertools.product(range(n), repeat=3))
    index = {t: c for c, t in enumerate(tuples)}
    x = {t: (_Poly({(c,): 1}),) for t, c in index.items()}
    rows = [{c: a for (c,), a in w[0].items()}
            for _, _, w in symmetry_defects(x, n, 3, 1)]
    vectors = kernel_basis(rows, len(tuples))
    basis = []
    free = []
    for v in vectors:
        basis.append({t: v[index[t]] for t in tuples if v[index[t]]})
        lead = next((t for t in tuples if v[index[t]] in (1, -1) and all(
            w[index[t]] == 0 for w in vectors if w is not v)), None)
        if lead is None:
            raise RuntimeError("no transversal position for constraint basis")
        free.append(lead)
    _W3_CACHE[n] = (basis, free)
    return basis, free


def _basis_tensors(n, degree):
    """The cochain basis of one degree without its fiber coordinate.

    Returns (prefix, tail, lead) per basis tensor, in basis order: the
    tail is a unit 1-tensor in degree 1 and a constrained 3-tensor of
    ``_w3_data`` otherwise, it sits after the free prefix, and lead is
    its transversal tuple.  A basis cochain of C^degree is one of these
    with one fiber coordinate a (innermost).  The tail is +-1 at its lead
    and no other basis tensor reaches prefix + lead, so the coordinate of
    a cochain f is tail[lead] times the a-th entry of f(prefix + lead).
    """
    if degree < 1 or degree % 2 == 0:
        raise ValueError("cochains live in odd degrees, got %d" % degree)
    if degree == 1:
        tails, width = [({(i,): 1}, (i,)) for i in range(n)], 1
    else:
        tails, width = list(zip(*_w3_data(n))), 3
    return [(prefix, tail, lead)
            for prefix in itertools.product(range(n), repeat=degree - width)
            for tail, lead in tails]


def _transversal(n, degree):
    """(prefix + lead, tail[lead]) per basis tensor of ``_basis_tensors``:
    the tuple where ``Complex.flatten`` reads a coordinate, and its sign."""
    return [(prefix + lead, tail[lead])
            for prefix, tail, lead in _basis_tensors(n, degree)]


def cochain_space_dim(dim, vdim, degree):
    """Dimension of the constrained cochain space of one degree."""
    return vdim * len(_basis_tensors(dim, degree))


def zero_cochain(dim, vdim, degree):
    return {t: vzero(vdim)
            for t in itertools.product(range(dim), repeat=degree)}


def dense_tensor(table, shape, outdim, what="value"):
    """Complete dict form over every key of ``shape``, with frozen tuple
    values of length outdim; missing keys (or a missing table) are zero.
    A key outside the shape raises ValueError."""
    out = {}
    for key in itertools.product(*(range(s) for s in shape)):
        v = table.get(key) if table else None
        if v is None:
            out[key] = vzero(outdim)
        else:
            v = tuple(v)
            if len(v) != outdim:
                raise ValueError("%s at %r has length %d, expected %d"
                                 % (what, key, len(v), outdim))
            out[key] = v
    for key in table or ():
        if key not in out:
            raise ValueError("%s at %r is outside the shape %r"
                             % (what, key, shape))
    return out


def normalize_cochain(f, dim, vdim, degree):
    """Complete dict form with frozen tuple values; missing keys are zero."""
    return dense_tensor(f, (dim,) * degree, vdim)


def cochain_iszero(f):
    return all(viszero(v) for v in f.values())


def cochain_add(f, g):
    return {t: vadd(f[t], g[t]) for t in f}


def cochain_sub(f, g):
    return {t: vsub(f[t], g[t]) for t in f}


def cochain_scale(c, f):
    return {t: vscale(c, v) for t, v in f.items()}


def validate_cochain(f, dim, vdim, degree):
    """Shape plus the slot constraints of the given degree, the
    ``symmetry_defects`` of f."""
    try:
        f = normalize_cochain(f, dim, vdim, degree)
    except ValueError as exc:
        return Report(False, [{"constraint": "shape", "detail": str(exc)}])
    if degree == 1:
        return Report(True)
    if degree % 2 == 0 or degree < 3:
        return Report(False, [{"constraint": "degree",
                               "detail": "expected an odd degree >= 1"}])
    violations = [{"constraint": kind, "at": at, "value": v}
                  for kind, at, v in symmetry_defects(f, dim, degree, vdim)]
    return Report(not violations, violations)


@functools.cache
def coboundary_plan(degree):
    """The terms of Yamaguti's coboundary at an output tuple t of length
    degree + 2, in formula order, as (sign, table, key, args, pos, place):
    sign times the matrix table[key(t)] (0: theta, 1: D) on f(args(t)), or
    (2) the bracket e_key(t) fed into slot pos of f at args(t); args(t) is
    t without the key's first two entries.  place builds t from s +
    key(t), s any tuple the term reads f at."""
    if degree < 1 or degree % 2 == 0:
        raise ValueError("differentials act on odd degrees; got %d" % degree)
    out = degree + 2
    terms = [(1, 0, (out - 2, out - 1), None),
             (-1, 0, (out - 3, out - 1), None)]
    sign = (-1) ** (degree // 2)  # (-1)^(p+k+1) at k = 1
    for k in range(0, degree, 2):
        terms += [(sign, 1, (k, k + 1), None)] + [
            (-sign, 2, (k, k + 1, pos + 2), pos) for pos in range(k, degree)]
        sign = -sign
    get = lambda p: itemgetter(*p) if len(p) > 1 else lambda t: (t[p[0]],)
    plan = []
    for sign, table, key, pos in terms:
        args = tuple(p for p in range(out) if p not in key[:2])
        read = {p: i for i, p in enumerate(args + key)}
        plan.append((sign, table, get(key), get(args), pos,
                     itemgetter(*map(read.get, range(out)))))
    return tuple(plan)


def coboundary_terms(t, degree, theta, D, brackets):
    """The gather reader of ``coboundary_plan``: the terms at t as (c, M,
    args, pos, w), c times M (None: the identity) on f at args with w in
    slot pos (None: f at args).  ``theta`` and ``D`` map basis pairs to
    matrices, ``brackets[key]`` lists (c, M, w) per part of the bracket
    e_key fed into a slot, and a part with w zero is no term."""
    tables = (theta, D, brackets)
    for sign, table, key, args, pos, _ in coboundary_plan(degree):
        entry, rest = tables[table][key(t)], args(t)
        yield from (((sign, entry, rest, None, None),) if pos is None else
                    ((sign * c, M, rest, pos, w)
                     for c, M, w in entry if any(w)))


def _evaluate(f, m, terms):
    """phi's reader of a term list in the ``coboundary_terms`` form: its
    value on a cochain f given at every tuple."""
    acc = [0] * m
    for c, M, args, pos, w in terms:
        v = f[args] if pos is None else insert_in_slot(f, args, pos, w, m)
        if any(v):
            if M is not None:
                v = matvec(M, v)
            for a, x in enumerate(v):
                if x:
                    acc[a] = acc[a] + x if c > 0 else acc[a] - x
    return tuple(acc)


def _accumulate(rows, index, terms, sign):
    """The row reader of a term list (see ``coboundary_terms``): add sign
    times its terms into ``rows``, one sparse ``{column: coefficient}`` row
    per output coordinate, and return them.  ``index`` maps a tuple to such
    a row per fiber coordinate of f there; a missing tuple is zero."""
    m = len(rows)
    for c, M, args, pos, w in terms:
        sources = ([(sign * c, args)] if pos is None else
                   [(sign * c * x, args[:pos] + (j,) + args[pos + 1:])
                    for j, x in enumerate(w) if x])
        for x, key in sources:
            for b, col in enumerate(index.get(key, ())):
                for a, y in (((b, x),) if M is None else
                             [(a, x * M[a][b]) for a in range(m) if M[a][b]]):
                    row = rows[a]
                    for k, z in col.items():
                        v = row.get(k, 0) + y * z
                        if v:
                            row[k] = v
                        else:
                            del row[k]
    return rows


def _coordinates(n, m, degree, offset=0):
    """Each tuple where a basis cochain of one degree is nonzero, mapped to
    one ``{column: coefficient}`` row per fiber coordinate: the entry as a
    linear form in the coordinates, numbered from offset in basis order."""
    index = {}
    for b, (prefix, tail, _) in enumerate(_basis_tensors(n, degree)):
        for t, coef in tail.items():
            rows = index.setdefault(prefix + t, [{} for _ in range(m)])
            for a in range(m):
                rows[a][offset + b * m + a] = coef
    return index


def yamaguti_coboundary(f, degree, m, theta, D, brackets):
    """The scatter reader of ``coboundary_plan`` (tables as in
    ``coboundary_terms``): the nonzero values of the coboundary of f, whose
    missing keys are zero.  Each nonzero v = f(s) goes to the tuples whose
    terms read it; theta v and D v are formed once per nonzero matrix, and
    M v once per distinct M of the bracket parts."""
    plan = coboundary_plan(degree)
    tables = [[(key, M) for key, M in table.items() if any(map(any, M))]
              for table in (theta, D)]
    Ms = {id(M): M for parts in brackets.values() for _, M, _ in parts}
    reach = collections.defaultdict(list)  # j: (key, c w[j], id(M)) per part
    for key, parts in brackets.items():
        for c, M, w in parts:
            for j, x in enumerate(w):
                if x:
                    reach[j].append((key, c * x, id(M)))
    out = collections.defaultdict(lambda: [0] * m)
    for s, v in f.items():
        if not any(v):
            continue
        images = [[(key, u) for key, M in table if any(u := matvec(M, v))]
                  for table in tables]
        Mv = {i: v if M is None else matvec(M, v) for i, M in Ms.items()}
        for sign, table, _, _, pos, place in plan:
            hits = ([(key, sign, u) for key, u in images[table]] if pos is None
                    else [(k, sign * c, Mv[i]) for k, c, i in reach[s[pos]]])
            for key, c, u in hits:
                acc = out[place(s + key)]
                for a, x in enumerate(u):
                    if x:
                        acc[a] += c * x
    return {t: tuple(acc) for t, acc in out.items() if any(acc)}


class Complex:
    """All cochain operators for one (system, representation, N, Nv) tuple."""

    def __init__(self, system, rep, N, Nv):
        if rep.base is not system and rep.base != system:
            raise ValueError("representation is not over the given system")
        self.system = system
        self.rep = rep
        self.n = system.dim
        self.m = rep.vdim
        self.N = as_matrix(N, self.n, self.n, "operator")
        self.Nv = as_matrix(Nv, self.m, self.m, "fiber operator")
        n = self.n
        self.theta = rep.theta
        self.D = {(i, j): rep.D(i, j)
                  for i in range(n) for j in range(n)}
        self.thetaN = deformed_theta(rep, self.N, self.Nv)
        self.DN = {(i, j): matsub(self.thetaN[(j, i)], self.thetaN[(i, j)])
                   for i in range(n) for j in range(n)}
        self._NT = tuple(zip(*self.N))
        # (a3, p0, p1, p2) per basis triple, see telescoped_brackets
        self._parts = telescoped_brackets(system.table, self.N)
        # the bracket parts delta and partial feed into a cochain slot
        Nv2 = matmul(self.Nv, self.Nv)
        self._delta_brackets = {k: ((1, None, p0),)
                                for k, (_, p0, _, _) in self._parts.items()}
        self._partial_brackets = {
            k: ((1, None, p2), (-1, self.Nv, p1), (1, Nv2, p0))
            for k, (_, p0, p1, p2) in self._parts.items()}
        self._rows = {}
        self._rank = {}

    # -- the three operators ------------------------------------------------

    def _phi_step(self, t, s):
        """phi's slot step s at t, as terms: N in slot s minus Nv after."""
        return ((1, None, t, s, self._NT[t[s]]), (-1, self.Nv, t, None, None))

    def _coboundary(self, f, degree, *tables):
        """``yamaguti_coboundary`` of f with these tables, at every tuple."""
        f = normalize_cochain(f, self.n, self.m, degree)
        f = yamaguti_coboundary(f, degree, self.m, *tables)
        return normalize_cochain(f, self.n, self.m, degree + 2)

    def delta(self, f, degree):
        """Yamaguti coboundary of the underlying structure (degree +2)."""
        return self._coboundary(f, degree, self.theta, self.D,
                                self._delta_brackets)

    def partial(self, f, degree):
        """Deformed coboundary with alternating graded insertions
        (degree +2)."""
        return self._coboundary(f, degree, self.thetaN, self.DN,
                                self._partial_brackets)

    def phi(self, f, degree):
        """Product over slots of (apply N in the slot) - (apply Nv after)."""
        g = normalize_cochain(f, self.n, self.m, degree)
        for s in range(degree):
            g = {t: _evaluate(g, self.m, self._phi_step(t, s)) for t in g}
        return g

    def d(self, f, g, degree):
        """The pair differential; a missing f or g is zero (g is absent in
        degree 1)."""
        if degree == 1 and g is not None:
            raise ValueError("degree-1 cochains have no companion")
        if degree not in (1, 3, 5):
            raise ValueError("the pair differential acts in degrees 1, 3, 5")
        return self.delta(f or {}, degree), self.d_second(f, g, degree)

    def d_second(self, f, g, degree):
        """The second component of d(f, g), partial g + (-1)^k phi f; a
        missing f or g is zero."""
        if f is None:
            second = zero_cochain(self.n, self.m, degree)
        else:
            second = cochain_scale((-1) ** ((degree + 1) // 2),
                                   self.phi(f, degree))
        if g is not None:
            second = cochain_add(self.partial(g, degree - 2), second)
        return second

    # -- bases, flattening, matrices ---------------------------------------

    def cochain_basis(self, degree):
        """The basis cochains of one degree, in coordinate order."""
        dim = cochain_space_dim(self.n, self.m, degree)
        return [self.from_coefficients([int(k == j) for k in range(dim)],
                                       degree)
                for j in range(dim)]

    def flatten(self, f, degree):
        """Coordinates of a constrained cochain (transversal evaluation);
        missing keys, or a missing f, are zero."""
        f, zero = f or {}, vzero(self.m)
        return [sign * x for t, sign in _transversal(self.n, degree)
                for x in f.get(t, zero)]

    def from_coefficients(self, coeffs, degree):
        """Linear combination of the cochain basis."""
        m = self.m
        dim = cochain_space_dim(self.n, m, degree)
        if len(coeffs) != dim:
            raise ValueError("a degree-%d cochain has %d coefficients, got %d"
                             % (degree, dim, len(coeffs)))
        f = {t: list(v) for t, v in zero_cochain(self.n, m, degree).items()}
        slots = ((prefix, tail, a)
                 for prefix, tail, _ in _basis_tensors(self.n, degree)
                 for a in range(m))
        for c, (prefix, tail, a) in zip(coeffs, slots):
            if c:
                for t, coef in tail.items():
                    f[prefix + t][a] += c * coef
        return {t: tuple(v) for t, v in f.items()}

    def _domain_dim(self, degree):
        """Dimension of C^degree + C^(degree-2), the domain of d."""
        return sum(cochain_space_dim(self.n, self.m, k)
                   for k in (degree, degree - 2) if k > 0)

    def _d_matrix(self, degree):
        """Rows of the matrix of d in one degree: row r is the sparse
        ``{column: coefficient}`` form of entry r of ``pair_flatten(d(f, g))``.

        At each transversal tuple that ``flatten`` reads, the terms of delta,
        partial and phi's last slot step are added into m rows from the
        domain's coordinate index; phi's earlier slot steps run everywhere.
        """
        if degree not in self._rows:
            n, m = self.n, self.m
            f = _coordinates(n, m, degree)
            g = (_coordinates(n, m, degree - 2, cochain_space_dim(n, m, degree))
                 if degree > 1 else {})
            new = lambda: [{} for _ in range(m)]
            rows = []
            for t, sign in _transversal(n, degree + 2):
                rows += _accumulate(new(), f, coboundary_terms(
                    t, degree, self.theta, self.D, self._delta_brackets), sign)
            for s in range(degree - 1):
                f = {t: r for t in itertools.product(range(n), repeat=degree)
                     for r in [_accumulate(new(), f, self._phi_step(t, s), 1)]
                     if any(r)}
            k = (-1) ** ((degree + 1) // 2)
            for t, sign in _transversal(n, degree):
                r = _accumulate(new(), f, self._phi_step(t, degree - 1),
                                k * sign)
                if g:
                    _accumulate(r, g, coboundary_terms(
                        t, degree - 2, self.thetaN, self.DN,
                        self._partial_brackets), sign)
                rows += r
            self._rows[degree] = rows
        return self._rows[degree]

    def d_rank(self, degree):
        if degree not in self._rank:
            self._rank[degree] = rank(self._d_matrix(degree))
        return self._rank[degree]

    def pair_flatten(self, f, g, degree):
        if degree == 1:
            return self.flatten(f, 1)
        return self.flatten(f, degree) + self.flatten(g, degree - 2)

    def pair_from_coefficients(self, coeffs, degree):
        """Split a domain coefficient vector into the (f, g) pair."""
        if degree == 1:
            return self.from_coefficients(coeffs, 1), None
        if len(coeffs) != self._domain_dim(degree):
            raise ValueError("a degree-%d pair has %d coefficients, got %d"
                             % (degree, self._domain_dim(degree), len(coeffs)))
        split = cochain_space_dim(self.n, self.m, degree)
        f = self.from_coefficients(coeffs[:split], degree)
        g = self.from_coefficients(coeffs[split:], degree - 2)
        return f, g

    def kernel_pairs(self, degree):
        """Basis of ker d in one degree, as (f, g) pairs."""
        return [self.pair_from_coefficients(v, degree)
                for v in kernel_basis(self._d_matrix(degree),
                                      self._domain_dim(degree))]

    # -- verdicts -----------------------------------------------------------

    def _checked(self, f, g, degree):
        """(violations, pair): validate_cochain's violations of the first
        given component of (f, g) that fails it, or [] and the pair with
        its given components normalized (a missing one stays None)."""
        pair = []
        for h, deg in ((f, degree), (g, degree - 2)):
            if h is not None:
                shape = validate_cochain(h, self.n, self.m, deg)
                if not shape:
                    return shape.violations, None
                h = normalize_cochain(h, self.n, self.m, deg)
            pair.append(h)
        return [], pair

    def is_cocycle(self, f, g, degree):
        """Whether d(f, g) vanishes; witnesses name the failing component.

        d is linear, so it runs on f and g times den, integers by
        ``integer_scaled``, and divides each witness value back by den.
        """
        violations, pair = self._checked(f, g if degree > 1 else None, degree)
        if violations:
            return Report(False, violations)
        den, scaled = integer_scaled({t: v for h in pair if h
                                      for t, v in h.items()})
        pair = [h and {t: scaled[t] for t in h} for h in pair]
        df, second = self.d(*pair, degree)
        for name, h in (("bracket", df), ("operator", second)):
            for t, v in sorted(h.items()):
                if any(v):
                    violations.append({"component": name, "at": t,
                                       "value": vdiv(v, den)})
        return Report(not violations, violations)

    def is_coboundary(self, f, g, degree):
        """Search d-preimages: degree 3 looks in C^1, degree 5 in C^3 + C^1.

        Returns (found, pair) where pair is a domain preimage (gamma, None)
        or (psi, chi) when found, else (False, None).  An empty domain has
        no pair to show, so there pair is None either way.  d lands in the
        constrained cochains, so a target that fails validate_cochain is
        not a coboundary; missing keys of a target are zero.
        """
        if degree not in (3, 5):
            raise ValueError("coboundaries arrive in degrees 3 and 5")
        violations, pair = self._checked(f, g, degree)
        if violations:
            return False, None
        solution = solve_linear(self._d_matrix(degree - 2),
                                self.pair_flatten(*pair, degree),
                                self._domain_dim(degree - 2))
        if solution is None:
            return False, None
        if not self._domain_dim(degree - 2):
            return True, None
        return True, self.pair_from_coefficients(solution, degree - 2)

    def cohomology_dim(self, degree):
        """Cocycle, coboundary, and quotient dimensions in one degree."""
        if degree not in (1, 3, 5):
            raise ValueError("cohomology is computed in degrees 1, 3, 5")
        dim_c = self._domain_dim(degree)
        z = dim_c - self.d_rank(degree)
        b = self.d_rank(degree - 2) if degree > 1 else 0
        return {"degree": degree, "dim_cochains": dim_c, "dim_cocycles": z,
                "dim_coboundaries": b, "dim_H": z - b}
