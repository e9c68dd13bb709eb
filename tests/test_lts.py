"""Triple-system axioms, stock systems, and representation identities."""

from fractions import Fraction
import itertools
import random

import pytest

import reference as ref
from nlts import (
    LieTripleSystem,
    Representation,
    abelian,
    adjoint_rep,
    check_lie_algebra,
    check_lts,
    check_representation,
    direct_sum,
    l2,
    lts_from_lie_algebra,
    sl2_lie,
    solv3_lie,
    trivial_rep,
)

SL2_TABLE = {
    (0, 1, 0): (0, -4, 0), (0, 1, 2): (2, 0, 0), (0, 2, 0): (0, 0, -4),
    (0, 2, 1): (2, 0, 0), (1, 0, 0): (0, 4, 0), (1, 0, 2): (-2, 0, 0),
    (1, 2, 1): (0, 2, 0), (1, 2, 2): (0, 0, -2), (2, 0, 0): (0, 0, 4),
    (2, 0, 1): (-2, 0, 0), (2, 1, 1): (0, -2, 0), (2, 1, 2): (0, 0, 2),
}

SOLV3_TABLE = {
    (0, 2, 2): (1, 0, 0), (1, 2, 2): (0, 1, 0),
    (2, 0, 2): (-1, 0, 0), (2, 1, 2): (0, -1, 0),
}


def test_stock_systems_pass_axioms():
    for system in (l2(), abelian(1), abelian(3),
                   lts_from_lie_algebra(sl2_lie()),
                   lts_from_lie_algebra(solv3_lie()),
                   direct_sum(l2(), l2())):
        report = check_lts(system)
        assert report.ok and not report.violations


def test_l2_table():
    system = l2()
    assert system.coeff(0, 1, 1) == (1, 0)
    assert system.coeff(1, 0, 1) == (-1, 0)
    assert system.coeff(0, 0, 1) == (0, 0)
    assert system.table == {(0, 1, 1): (1, 0), (1, 0, 1): (-1, 0)}


def test_derived_tables_match_pins():
    assert lts_from_lie_algebra(sl2_lie()).table == SL2_TABLE
    assert lts_from_lie_algebra(solv3_lie()).table == SOLV3_TABLE


def test_derived_tables_match_reference():
    n, br = ref.mk_sl2_lts()
    system = lts_from_lie_algebra(sl2_lie())
    for t, v in br.items():
        assert system.coeff(*t) == v


def test_bracket_is_trilinear():
    system = l2()
    x, y = (1, 2), (3, -1)
    lhs = system.bracket(x, y, y)
    direct = tuple(
        sum(x[i] * y[j] * y[k] * system.coeff(i, j, k)[r]
            for i in range(2) for j in range(2) for k in range(2))
        for r in range(2))
    assert lhs == direct


def test_antisymmetry_violation_witness():
    bad = LieTripleSystem(2, {(0, 0, 1): (1, 0)})
    report = check_lts(bad)
    assert not report.ok
    assert any(item["axiom"] == "antisymmetry" for item in report.violations)
    item = next(i for i in report.violations if i["axiom"] == "antisymmetry")
    assert item["at"] == (0, 0, 1)


def test_cyclic_violation_witness():
    bad = LieTripleSystem(3, {(0, 1, 2): (1, 0, 0), (1, 0, 2): (-1, 0, 0)})
    report = check_lts(bad)
    assert not report.ok
    assert any(item["axiom"] == "cyclic" for item in report.violations)


def test_five_term_violation_witness():
    # scale one antisymmetric orbit of the sl2-derived table: the first two
    # axioms survive, the five-variable derivation identity does not
    table = dict(SL2_TABLE)
    table[(0, 1, 0)] = (0, -6, 0)
    table[(1, 0, 0)] = (0, 6, 0)
    bad = LieTripleSystem(3, table)
    report = check_lts(bad)
    assert not report.ok
    kinds = {item["axiom"] for item in report.violations}
    assert "five-term" in kinds
    assert "antisymmetry" not in kinds and "cyclic" not in kinds


def test_lie_algebra_checks():
    assert check_lie_algebra(sl2_lie()).ok
    assert check_lie_algebra(solv3_lie()).ok
    from nlts.lts import LieAlgebra
    bad = LieAlgebra(2, {(0, 0): (0, 1)})
    assert not check_lie_algebra(bad).ok


def test_negative_dimensions_are_refused():
    from nlts.lts import LieAlgebra
    for make, dim in ((LieAlgebra, -2), (LieTripleSystem, -1)):
        with pytest.raises(ValueError, match="dimension must be nonnegative"):
            make(dim)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("entries", sorted(ref.ENTRY_SETS))
@pytest.mark.parametrize("dense", [False, True])
def test_lts_symmetry_witnesses_match_oracle(n, entries, dense):
    # check_lts lists every antisymmetry witness, then every cyclic one,
    # then the five-term ones
    rng = random.Random("lts-%d-%s-%d" % (n, entries, dense))
    for _ in range(4):
        table = ref.rand_tensor(rng, n, n, 3, ref.ENTRY_SETS[entries], dense)
        want = ref.symmetry_witnesses(table, n, n, 3)
        want = ([w for w in want if w[0] == "antisymmetry"]
                + [w for w in want if w[0] == "cyclic"])
        got = [(v["axiom"], v["at"], v.get("value"))
               for v in check_lts(LieTripleSystem(n, table)).violations]
        assert got[:len(want)] == want
        assert {v[0] for v in got[len(want):]} <= {"five-term"}


def _scaled_lie(lie, scale):
    """The structure constants in the basis e_i' = scale[i] e_i."""
    from nlts.lts import LieAlgebra
    n = lie.dim
    return LieAlgebra(n, {(i, j): tuple(Fraction(scale[i] * scale[j]) * w[t]
                                        / scale[t] for t in range(n))
                          for (i, j), w in lie.table.items()})


@pytest.mark.parametrize("entries", sorted(ref.ENTRY_SETS))
def test_lie_algebra_witnesses_match_oracle(entries):
    # random binary brackets, antisymmetric or not, against the oracle's
    # witness list; values compare equal (a zero entry may be Fraction(0))
    from nlts.lts import LieAlgebra
    rng = random.Random("lie-" + entries)
    fired = set()
    for n in (1, 2, 3, 4):
        for antisymmetric in (False, True):
            for _ in range(3):
                table = ref.rand_tensor(rng, n, n, 2, ref.ENTRY_SETS[entries],
                                        False)
                if antisymmetric:
                    table = {(i, j): w for (i, j), w in table.items() if i < j}
                    table.update({(j, i): tuple(-x for x in w)
                                  for (i, j), w in list(table.items())})
                got = [(v["axiom"], v["at"], v["value"])
                       for v in check_lie_algebra(LieAlgebra(n, table)).violations]
                assert got == ref.lie_witnesses(n, table)
                fired |= {v[0] for v in got}
    assert fired == {"antisymmetry", "jacobi"}


def test_triple_system_of_scaled_lie_algebras_matches_reference():
    for lie in (sl2_lie(), solv3_lie()):
        scaled = _scaled_lie(lie, (Fraction(1, 2), 3, Fraction(-2, 3)))
        assert check_lie_algebra(scaled).ok
        n, br = ref.lie_to_lts(3, {k: scaled.coeff(*k) for k in
                                   itertools.product(range(3), repeat=2)})
        system = lts_from_lie_algebra(scaled)
        assert {t: system.coeff(*t) for t in br} == br
        assert check_lts(system).ok


def test_lts_from_invalid_lie_algebra_raises():
    from nlts.lts import LieAlgebra
    bad = LieAlgebra(2, {(0, 1): (1, 0)})  # not antisymmetric
    with pytest.raises(ValueError):
        lts_from_lie_algebra(bad)


def test_adjoint_rep_is_representation():
    for system in (l2(), lts_from_lie_algebra(sl2_lie()),
                   lts_from_lie_algebra(solv3_lie())):
        assert check_representation(adjoint_rep(system)).ok


def test_adjoint_matches_reference():
    system = l2()
    rep = adjoint_rep(system)
    n, br = ref.mk_l2()
    theta = ref.adjoint_theta(n, br)
    assert rep.theta == theta


def test_trivial_rep_is_representation():
    for system in (l2(), abelian(2)):
        for m in (1, 2):
            assert check_representation(trivial_rep(system, m)).ok


def test_representation_violation_witness():
    system = l2()
    theta = {(i, j): ((0, 0), (0, 0)) for i in range(2) for j in range(2)}
    theta[(0, 1)] = ((0, 1), (0, 0))  # arbitrary non-representation data
    rep = Representation(system, 2, theta)
    report = check_representation(rep)
    assert not report.ok
    kinds = {item["identity"] for item in report.violations}
    assert kinds <= {"pair-action", "derivation-action"}


def test_representation_refuses_theta_keys_outside_the_base_pairs():
    with pytest.raises(ValueError, match=r"theta at \(5, 5\) is outside"):
        Representation(l2(), 1, {(5, 5): ((1,),), (0, 0): ((0,),)})
    with pytest.raises(ValueError, match=r"theta at \(0, 2\) is outside"):
        Representation(l2(), 1, {(0, 2): ((0,),)})
    # a partial dict inside the base pairs still reads missing pairs as zero
    assert Representation(l2(), 1, {(1, 0): ((2,),)}).theta[(0, 0)] == ((0,),)


def _valid_actions(rng, n, br):
    """(m, theta) for representations: the adjoint one, the adjoint one
    in a random fiber basis, and trivial ones with m = 1..3."""
    adj = ref.adjoint_theta(n, br)
    yield n, adj
    yield n, ref.conjugate_theta(adj, *ref.rand_change_of_basis(rng, n))
    for m in (1, 2, 3):
        yield m, {k: ref.zeros(m) for k in adj}


@pytest.mark.parametrize("name", sorted(ref.WITNESS_BASES))
def test_representation_witnesses_match_oracle(name):
    # valid actions, each with one entry perturbed, and random families
    # with m = 1..3, against the oracle's witness list: names, tuples,
    # values and order
    n, br = ref.WITNESS_BASES[name]
    system = LieTripleSystem(n, br)
    rng = random.Random(name)
    cases = []
    for m, theta in _valid_actions(rng, n, br):
        cases.append((m, theta))
        for _ in range(2):
            k = rng.choice(sorted(theta))
            cases.append((m, {**theta, k: ref.perturb(rng, theta[k])}))
    for m in (1, 2, 3):
        cases.append((m, {k: ref.rand_matrix(rng, m, m) for k in
                          itertools.product(range(n), repeat=2)}))
    failing = 0
    for m, theta in cases:
        report = check_representation(Representation(system, m, theta))
        mine = [(v["identity"], v["at"], v["value"])
                for v in report.violations]
        assert all(len(v) == 3 for v in report.violations)
        assert mine == ref.rep_identity_defects(n, br, theta, m)
        assert report.ok == (not mine)
        failing += not report.ok
    assert 0 < failing < len(cases)


def test_representation_D_is_theta_flip():
    rep = adjoint_rep(l2())
    for i in range(2):
        for j in range(2):
            D = rep.D(i, j)
            flip = tuple(tuple(rep.theta[(j, i)][r][c] - rep.theta[(i, j)][r][c]
                               for c in range(2)) for r in range(2))
            assert D == flip


def test_direct_sum_blocks():
    s = direct_sum(l2(), l2())
    assert s.dim == 4
    assert s.coeff(0, 1, 1) == (1, 0, 0, 0)
    assert s.coeff(2, 3, 3) == (0, 0, 1, 0)
    # no cross terms
    assert s.coeff(0, 1, 3) == (0, 0, 0, 0)


def test_report_bool_and_dict():
    report = check_lts(l2())
    assert bool(report) is True
    d = report.to_dict()
    assert d["ok"] is True and d["violations"] == []
