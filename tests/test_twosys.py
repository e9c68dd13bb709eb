"""Two-term graded systems, their operator structures, and the
translations to degree-5 pairs and crossed modules."""

from fractions import Fraction
import itertools
import random

import pytest

import reference as ref

from nlts import (
    Complex,
    CrossedModule,
    abelian,
    LieTripleSystem,
    adjoint_rep,
    check_2system,
    check_crossed_module,
    check_nijenhuis_2system,
    cocycle_to_skeletal,
    crossed_module_to_strict,
    ident,
    l2,
    lts_from_lie_algebra,
    skeletal_to_cocycle,
    sl2_lie,
    strict_to_crossed_module,
    zero_cochain,
    zeros,
)
from nlts.twosys import LieTriple2System, Nijenhuis2Structure

N01 = ((0, 1), (0, 1))


def skeletal_instances(cx, count=None):
    pairs = cx.kernel_pairs(5)
    if count is not None:
        pairs = pairs[:count]
    return [cocycle_to_skeletal(cx, f, g) for f, g in pairs]


def test_skeletal_instances_pass_checks(cx_l2_adj):
    instances = skeletal_instances(cx_l2_adj)
    assert len(instances) == 8
    for sys2, nstr in instances:
        base = check_2system(sys2)
        assert base.ok
        assert base.data["skeletal"]
        struct = check_nijenhuis_2system(sys2, nstr)
        assert struct.ok and not struct.warnings
        assert struct.data["skeletal"]


def test_expanded_five_form_is_not_the_differential(cx_l2_adj):
    # the expanded classical form keeps l5(Nx1, ..., Nx5) and -N1 l5(x) of
    # the 2^5 terms of phi(l5), so it is a narrower condition than the
    # second component of d: it rejects 2 of the 8 skeletal instances that
    # the degree-5 kernel of d gives on l2 adjoint
    verdicts = []
    for sys2, nstr in skeletal_instances(cx_l2_adj):
        assert check_nijenhuis_2system(sys2, nstr).ok
        verdicts.append(ref.expanded_five_condition_holds(
            sys2.n0, sys2.n1, *(dict(getattr(sys2, t)) for t in TENSORS),
            nstr.N0, nstr.N1, dict(nstr.N2)))
    assert len(verdicts) == 8 and verdicts.count(False) == 2


def test_skeletal_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    for f, g in cx.kernel_pairs(5):
        sys2, nstr = cocycle_to_skeletal(cx, f, g)
        cx2, f2, g2 = skeletal_to_cocycle(sys2, nstr)
        assert f2 == f and g2 == g
        assert cx2.system == cx.system
        assert cx2.rep.theta == cx.rep.theta
        assert cx2.N == cx.N and cx2.Nv == cx.Nv


def test_skeletal_round_trip_trivial_fiber(cx_l2_triv):
    cx = cx_l2_triv
    pairs = cx.kernel_pairs(5)
    assert len(pairs) == 2
    for f, g in pairs:
        sys2, nstr = cocycle_to_skeletal(cx, f, g)
        assert check_2system(sys2).ok
        assert check_nijenhuis_2system(sys2, nstr).ok
        cx2, f2, g2 = skeletal_to_cocycle(sys2, nstr)
        assert f2 == f and g2 == g


def test_skeletal_to_cocycle_requires_zero_h():
    system = l2()
    xm = CrossedModule(system, N01, 2, system.table, ident(2),
                       adjoint_rep(system).theta, N01)
    sys2, nstr = crossed_module_to_strict(xm)
    with pytest.raises(ValueError):
        skeletal_to_cocycle(sys2, nstr)


def test_dictionary_tensors(cx_l2_adj):
    cx = cx_l2_adj
    f = zero_cochain(cx.n, cx.m, 5)
    g = zero_cochain(cx.n, cx.m, 3)
    sys2, _ = cocycle_to_skeletal(cx, f, g)
    th = cx.rep.theta
    for i, j in itertools.product(range(2), repeat=2):
        for a in range(2):
            col = tuple(th[(i, j)][r][a] for r in range(2))
            assert sys2.tables[0][(a, i, j)] == col
            assert sys2.tables[1][(i, a, j)] == tuple(-x for x in col)
            D = cx.rep.D(i, j)
            assert sys2.tables[2][(i, j, a)] == tuple(D[r][a] for r in range(2))


def test_five_argument_condition_fails_for_bad_n2(cx_l2_adj):
    cx = cx_l2_adj
    sys2, nstr = cocycle_to_skeletal(cx, zero_cochain(2, 2, 5),
                                     zero_cochain(2, 2, 3))
    # corrupt N2 by a degree-3 cochain with nonzero image under the
    # operator-twisted differential: symmetry survives, coherence does not
    witness = next(b for b in cx.cochain_basis(3)
                   if any(any(v) for v in cx.partial(b, 3).values()))
    bad = Nijenhuis2Structure(2, 2, nstr.N0, nstr.N1, witness)
    report = check_nijenhuis_2system(sys2, bad)
    assert not report.ok
    conds = {item["condition"] for item in report.violations}
    assert conds == {"five-argument"}


def test_symmetry_conditions_on_n2(cx_l2_adj):
    cx = cx_l2_adj
    sys2, nstr = cocycle_to_skeletal(cx, zero_cochain(2, 2, 5),
                                     zero_cochain(2, 2, 3))
    asym = {t: (0, 0) for t in itertools.product(range(2), repeat=3)}
    asym[(0, 0, 1)] = (1, 0)  # symmetric entry violates antisymmetry
    bad = Nijenhuis2Structure(2, 2, nstr.N0, nstr.N1, asym)
    report = check_nijenhuis_2system(sys2, bad)
    assert not report.ok
    conds = {item["condition"] for item in report.violations}
    assert conds & {"N2-antisymmetry", "N2-cyclic"}


def test_broken_coherence_witnessed(cx_l2_adj):
    cx = cx_l2_adj
    sys2, _ = cocycle_to_skeletal(cx, zero_cochain(2, 2, 5),
                                  zero_cochain(2, 2, 3))
    tensors = {
        "l3_000": dict(sys2.l3_000),
        "l3_100": dict(sys2.l3_100),
        "l3_010": dict(sys2.l3_010),
        "l3_001": dict(sys2.l3_001),
    }
    tensors["l3_100"][(0, 0, 1)] = (1, 1)  # break mixed antisymmetry
    bad = LieTriple2System(2, 2, sys2.h, tensors["l3_000"],
                           tensors["l3_100"], tensors["l3_010"],
                           tensors["l3_001"], dict(sys2.l5))
    report = check_2system(bad)
    assert not report.ok


def _l11_witnesses(sys2):
    return [(item["at"], item["lhs"]) for item in check_2system(sys2).violations
            if item["condition"] == "L11"]


def _oracle_l11(sys2):
    """Nonzero values of the oracle's degree-5 coboundary of l5, fed with
    the first-slot action and the third-slot matrices of the tensors."""
    n, m = sys2.n0, sys2.n1
    pairs = list(itertools.product(range(n), repeat=2))
    theta = ref.first_slot_theta(n, m, sys2.l3_100)
    D = {(i, j): tuple(tuple(sys2.l3_001[(i, j, a)][r] for a in range(m))
                       for r in range(m)) for i, j in pairs}
    out = ref.delta5(dict(sys2.l5), n, m, theta, D, dict(sys2.l3_000))
    return [(t, v) for t, v in out.items() if not ref.viszero(v)]


def test_l11_witnesses_match_oracle_coboundary(cx_l2_adj):
    cx = cx_l2_adj
    # a degree-5 cochain off the delta-cocycles makes L11 fail
    l5 = next(b for b in cx.cochain_basis(5)
              if any(any(v) for v in cx.delta(b, 5).values()))
    sys2, _ = cocycle_to_skeletal(cx, l5, zero_cochain(2, 2, 3))
    l3_001 = dict(sys2.l3_001)
    l3_001[(0, 1, 0)] = (1, 2)
    l3_001[(1, 0, 1)] = (-1, 0)
    corrupt = LieTriple2System(2, 2, sys2.h, sys2.l3_000, sys2.l3_100,
                               sys2.l3_010, l3_001, sys2.l5)
    found = [_l11_witnesses(s) for s in (sys2, corrupt)]
    assert found[0] and found[1] and found[0] != found[1]
    assert found == [_oracle_l11(s) for s in (sys2, corrupt)]


def _identity_strict(system, n, N):
    """The strict structure (h = identity, N0 = N1 = N) of the identity
    crossed module."""
    xm = CrossedModule(system, N, n, system.table, ident(n),
                       adjoint_rep(system).theta, N)
    return crossed_module_to_strict(xm)


TENSORS = ("l3_000", "l3_100", "l3_010", "l3_001", "l5")


def _corrupted(sys2, field, key):
    """sys2 with one entry of a tensor, or of h, replaced."""
    parts = {name: dict(getattr(sys2, name)) for name in TENSORS}
    h = [list(row) for row in sys2.h]
    if field == "h":
        h[key[0]][key[1]] = Fraction(-1, 2)
    else:
        n = len(parts[field][key])
        parts[field][key] = tuple(Fraction(c + 1, 2) for c in range(n))
    return LieTriple2System(sys2.n0, sys2.n1, h,
                            *(parts[name] for name in TENSORS))


CORRUPTIONS = (
    ("l3_000", (0, 1, 1)),
    ("l3_100", (1, 0, 1)),
    ("l3_010", (0, 1, 1)),
    ("l3_001", (1, 0, 0)),
    ("l5", (0, 1, 0, 1, 1)),
    ("h", (0, 1)),
)


@pytest.mark.parametrize("name", ["l2", "sl2"])
def test_coherence_witnesses_match_graded_bracket_oracle(name):
    system = l2() if name == "l2" else lts_from_lie_algebra(sl2_lie())
    n = system.dim
    strict = _identity_strict(system, n, ident(n))[0]
    fired = set()
    for sys2 in [strict] + [_corrupted(strict, *c) for c in CORRUPTIONS]:
        found = [(item["condition"], item["at"], item["lhs"], item.get("rhs"))
                 for item in check_2system(sys2).violations
                 if item["condition"] != "L11"]
        want = ref.twosys_defect(sys2.n0, sys2.n1, sys2.h,
                                 *(dict(getattr(sys2, t)) for t in TENSORS))
        assert found == want
        fired |= {cond.split("-")[0] for cond, _, _, _ in found}
    assert fired == {"L%d" % k for k in range(1, 11)}


def _corrupted_structure(nstr, field, key):
    """nstr with one entry of N0, N1 or N2 replaced."""
    N0, N1 = [list(row) for row in nstr.N0], [list(row) for row in nstr.N1]
    N2 = dict(nstr.N2)
    if field == "N2":
        N2[key] = tuple(Fraction(c + 1, 2) for c in range(nstr.n1))
    else:
        M = N0 if field == "N0" else N1
        M[key[0]][key[1]] += Fraction(1, 3)
    return Nijenhuis2Structure(nstr.n0, nstr.n1, N0, N1, N2)


STRUCTURE_CORRUPTIONS = (
    ("N0", (0, 1)),
    ("N1", (0, 0)),
    ("N2", (0, 1, 1)),
    ("h", (1, 0)),
    ("l5", (0, 1, 0, 1, 1)),
)


def _with_corruptions(sys2, nstr):
    out = [(sys2, nstr)]
    for field, key in STRUCTURE_CORRUPTIONS:
        if field in ("h", "l5"):
            out.append((_corrupted(sys2, field, key), nstr))
        else:
            out.append((sys2, _corrupted_structure(nstr, field, key)))
    return out


STRUCTURE_CONDITIONS = {"operator-h-commutation", "N2-antisymmetry",
                        "N2-cyclic", "base-defect", "fiber-defect",
                        "five-argument"}


@pytest.mark.parametrize("name", ["l2", "sl2", "l2-skeletal"])
def test_structure_witnesses_match_graded_bracket_oracle(name, cx_l2_adj,
                                                         cx_l2_triv):
    if name == "l2-skeletal":
        instances = (skeletal_instances(cx_l2_adj)
                     + skeletal_instances(cx_l2_triv))
        # corruptions of a trivial-fiber instance and of the first
        # adjoint instance with N2 != 0
        cases = instances + _with_corruptions(*instances[-1])
        cases += _with_corruptions(*next(
            (s, t) for s, t in instances[:-2] if not t.is_strict_part()))
    else:
        system = l2() if name == "l2" else lts_from_lie_algebra(sl2_lie())
        N = N01 if name == "l2" else ((1, 0, 0), (0, 0, 0), (0, 0, 0))
        cases = _with_corruptions(*_identity_strict(system, system.dim, N))
    fired = set()
    for sys2, nstr in cases:
        found = [(item["condition"], item["at"], item["lhs"], item.get("rhs"))
                 for item in check_nijenhuis_2system(sys2, nstr).violations]
        want = ref.nijenhuis_2system_defect(
            sys2.n0, sys2.n1, sys2.h,
            *(dict(getattr(sys2, t)) for t in TENSORS),
            nstr.N0, nstr.N1, dict(nstr.N2))
        assert found == want
        fired |= {cond for cond, _, _, _ in found}
    assert fired == STRUCTURE_CONDITIONS


@pytest.mark.parametrize("entries", sorted(ref.ENTRY_SETS))
@pytest.mark.parametrize("dense", [False, True])
def test_symmetry_witnesses_of_l3_000_and_N2_match_oracle(entries, dense):
    # L1 and L4 on the base bracket list the antisymmetry and the cyclic
    # witnesses in two blocks; N2's (b) and (c) interleave them key by key
    rng = random.Random("2sys-%s-%d" % (entries, dense))
    values = ref.ENTRY_SETS[entries]
    for n0, n1 in ((1, 1), (2, 1), (2, 2), (3, 1)):
        l3_000 = ref.rand_tensor(rng, n0, n0, 3, values, dense)
        N2 = ref.rand_tensor(rng, n0, n1, 3, values, dense)
        sys2 = LieTriple2System(n0, n1, zeros(n0, n1), l3_000)
        nstr = Nijenhuis2Structure(n0, n1, zeros(n0), zeros(n1), N2)
        want = ref.symmetry_witnesses(l3_000, n0, n0, 3)
        violations = check_2system(sys2).violations
        for cond, kind in (("L1-base-antisymmetry", "antisymmetry"),
                           ("L4-base-cyclic", "cyclic")):
            got = [(item["at"], item["lhs"]) for item in violations
                   if item["condition"] == cond]
            assert got == [(at, w) for k, at, w in want if k == kind]
        got = [(item["condition"], item["at"], item["lhs"])
               for item in check_nijenhuis_2system(sys2, nstr).violations
               if item["condition"].startswith("N2-")]
        assert got == [("N2-" + k, at, w)
                       for k, at, w in ref.symmetry_witnesses(N2, n0, n1, 3)]


def test_constructors_refuse_keys_outside_the_shape():
    with pytest.raises(ValueError, match=r"l3_000 value at \(3, 3, 3\)"):
        LieTriple2System(1, 1, ((0,),), l3_000={(3, 3, 3): (1,)})
    with pytest.raises(ValueError, match="l5 value at"):
        LieTriple2System(1, 1, ((0,),), l5={(0, 0, 0): (1,)})
    with pytest.raises(ValueError, match="N2 value at"):
        Nijenhuis2Structure(1, 1, ((0,),), ((0,),), {(0, 0, 1): (1,)})


def test_matrix_shapes_are_checked_with_one_message():
    system = l2()
    theta = adjoint_rep(system).theta
    for call, message in (
            (lambda: LieTriple2System(2, 1, ((0, 0), (0, 0))),
             "h must be a 2-by-1 matrix"),
            (lambda: Nijenhuis2Structure(2, 1, ident(2), ident(2)),
             "N1 must be a 1-by-1 matrix"),
            (lambda: Nijenhuis2Structure(2, 1, ident(1), ident(1)),
             "N0 must be a 2-by-2 matrix"),
            (lambda: CrossedModule(system, ident(3), 2, {}, ident(2), theta,
                                   N01), "N0 must be a 2-by-2 matrix"),
            (lambda: CrossedModule(system, N01, 2, {}, zeros(2, 1), theta,
                                   N01), "h must be a 2-by-2 matrix"),
            (lambda: CrossedModule(system, N01, 2, {}, ident(2), theta,
                                   ident(1)), "N1 must be a 2-by-2 matrix")):
        with pytest.raises(ValueError, match=message):
            call()


def test_identity_crossed_module():
    system = l2()
    xm = CrossedModule(system, N01, 2, system.table, ident(2),
                       adjoint_rep(system).theta, N01)
    assert check_crossed_module(xm).ok


def test_identity_crossed_module_round_trip():
    system = l2()
    xm = CrossedModule(system, N01, 2, system.table, ident(2),
                       adjoint_rep(system).theta, N01)
    sys2, nstr = crossed_module_to_strict(xm)
    base = check_2system(sys2)
    assert base.ok
    assert base.data["strict"]
    assert check_nijenhuis_2system(sys2, nstr).ok
    back = strict_to_crossed_module(sys2, nstr)
    assert back.fiber.table == xm.fiber.table
    assert back.action.theta == xm.action.theta
    assert back.h == xm.h and back.N0 == xm.N0 and back.N1 == xm.N1


def test_zero_h_crossed_module_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    sys2, nstr = cocycle_to_skeletal(cx, zero_cochain(2, 2, 5),
                                     zero_cochain(2, 2, 3))
    xm = strict_to_crossed_module(sys2, nstr)
    assert check_crossed_module(xm).ok
    # abelian fiber: the bracket l3(h a, h b, c) collapses with h = 0
    assert all(v == (0, 0) for v in xm.fiber.table.values()) \
        or not xm.fiber.table
    sys2b, nstrb = crossed_module_to_strict(xm)
    assert sys2b.l3_000 == sys2.l3_000
    assert sys2b.l3_100 == sys2.l3_100
    assert sys2b.l3_010 == sys2.l3_010
    assert sys2b.l3_001 == sys2.l3_001
    assert sys2b.l5 == sys2.l5 and sys2b.h == sys2.h
    assert nstrb.N0 == nstr.N0 and nstrb.N1 == nstr.N1
    assert nstrb.N2 == nstr.N2


def test_strict_conversion_requires_strict(cx_l2_adj):
    cx = cx_l2_adj
    pairs = [p for p in cx.kernel_pairs(5)
             if any(any(v) for v in p[1].values())]
    assert pairs
    sys2, nstr = cocycle_to_skeletal(cx, *pairs[0])
    with pytest.raises(ValueError):
        strict_to_crossed_module(sys2, nstr)


def test_abelian_crossed_modules():
    for n, m in ((1, 1), (2, 1), (2, 2)):
        base = abelian(n)
        action = {(i, j): zeros(m) for i in range(n) for j in range(n)}
        xm = CrossedModule(base, zeros(n), m, {}, zeros(n, m) if n else (),
                           action, zeros(m))
        assert check_crossed_module(xm).ok
        sys2, nstr = crossed_module_to_strict(xm)
        assert check_2system(sys2).ok
        assert check_nijenhuis_2system(sys2, nstr).ok
        back = strict_to_crossed_module(sys2, nstr)
        assert back.h == xm.h and back.action.theta == xm.action.theta


def test_sl2_identity_crossed_module():
    system = lts_from_lie_algebra(sl2_lie())
    xm = CrossedModule(system, ident(3), 3, system.table, ident(3),
                       adjoint_rep(system).theta, ident(3))
    assert check_crossed_module(xm).ok
    sys2, nstr = crossed_module_to_strict(xm)
    assert check_2system(sys2).ok
    back = strict_to_crossed_module(sys2, nstr)
    assert back.fiber.table == xm.fiber.table
    assert back.action.theta == xm.action.theta


def test_operator_h_commutation_violation():
    system = l2()
    # h = id but N1 different from N0 breaks the commutation condition
    xm = CrossedModule(system, N01, 2, system.table, ident(2),
                       adjoint_rep(system).theta, zeros(2))
    report = check_crossed_module(xm)
    assert not report.ok
    conds = {item["condition"] for item in report.violations}
    assert "operator-h-commutation" in conds


H_CONDITIONS = ("h-homomorphism", "h-equivariance", "peiffer")


def _valid_crossed_modules(rng, n, br):
    """(n1, fiber bracket, h, action) of crossed modules: the identity one,
    the identity one in a random fiber basis, and zero-h ones with an
    abelian fiber of dimension 1..3 and a random action."""
    adj = ref.adjoint_theta(n, br)
    yield n, br, ident(n), adj
    P, Pinv = ref.rand_change_of_basis(rng, n)
    yield (n, ref.transport_bracket(n, br, P, Pinv), P,
           ref.conjugate_theta(adj, P, Pinv))
    for m in (1, 2, 3):
        yield (m, ref.mk_bracket(m, {}), zeros(n, m),
               {k: ref.rand_matrix(rng, m, m) for k in adj})


@pytest.mark.parametrize("name", sorted(ref.WITNESS_BASES))
def test_change_of_basis_crossed_module_round_trip(name):
    # h = P, a change of fiber basis: the fiber bracket comes back through
    # h in the first two slots of the third-slot table
    n, br = ref.WITNESS_BASES[name]
    base = LieTripleSystem(n, br)
    rng = random.Random(name)
    m, br1, h, theta = next(itertools.islice(
        _valid_crossed_modules(rng, n, br), 1, None))
    xm = CrossedModule(base, zeros(n), m, br1, h, theta, zeros(m))
    assert check_crossed_module(xm).ok
    back = strict_to_crossed_module(*crossed_module_to_strict(xm))
    assert back.fiber.table == xm.fiber.table
    assert back.action.theta == xm.action.theta
    assert back.h == xm.h


@pytest.mark.parametrize("name", sorted(ref.WITNESS_BASES))
def test_crossed_module_h_witnesses_match_oracle(name):
    # valid crossed modules, each with one entry of h, of the fiber
    # bracket or of the action perturbed, against the oracle's witness
    # list of the three h-conditions: names, tuples, values and order
    n, br = ref.WITNESS_BASES[name]
    base = LieTripleSystem(n, br)
    rng = random.Random(name)
    cases = []
    for m, br1, h, theta in _valid_crossed_modules(rng, n, br):
        cases.append((m, br1, h, theta))
        cases.append((m, br1, ref.perturb(rng, h), theta))
        t = rng.choice(sorted(br1))
        cases.append((m, {**br1, t: ref.perturb(rng, br1[t])}, h, theta))
        k = rng.choice(sorted(theta))
        cases.append((m, br1, h, {**theta, k: ref.perturb(rng, theta[k])}))
    failing = 0
    for m, br1, h, theta in cases:
        xm = CrossedModule(base, zeros(n), m, br1, h, theta, zeros(m))
        mine = [(v["condition"], v["at"], v["lhs"], v["rhs"])
                for v in check_crossed_module(xm).violations
                if v["condition"] in H_CONDITIONS]
        assert mine == ref.crossed_module_h_defects(n, m, br, br1, h, theta)
        failing += bool(mine)
    assert 0 < failing < len(cases)
