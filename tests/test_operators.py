"""Operator identities: Nijenhuis, Rota-Baxter variants, deformed
brackets, square-shape classification, and the grid search."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference as ref
from nlts import (
    BudgetExceeded,
    LieTripleSystem,
    abelian,
    check_lts,
    classify_by_square,
    direct_sum,
    grid_search_nijenhuis,
    ident,
    induced_bracket,
    is_modified_rb,
    is_morphism,
    is_nijenhuis,
    is_rota_baxter,
    l2,
    lts_from_lie_algebra,
    nijenhuis_defect,
    rb_to_modified,
    sl2_lie,
    solv3_lie,
    zeros,
)

N01 = ((0, 1), (0, 1))
SOLV3_N = ((0, 0, 0), (0, 0, 0), (0, 1, 0))

BAD_PAIR_N = ((-3, -2, 0, 2), (-3, 3, 0, 3), (-3, -1, -2, 3), (2, -2, 3, -2))

entry = st.integers(min_value=-5, max_value=5)
matrix2 = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))


@given(matrix2)
@settings(max_examples=80, deadline=None)
def test_every_operator_on_l2_is_nijenhuis(N):
    assert is_nijenhuis(l2(), N).ok


def test_dim4_operator_fails_with_witnesses():
    system = direct_sum(l2(), l2())
    report = is_nijenhuis(system, BAD_PAIR_N)
    assert not report.ok
    assert report.violations
    item = report.violations[0]
    assert item["identity"] == "nijenhuis"
    assert item["lhs"] != item["rhs"]


def test_defect_matches_reference_on_solv3():
    system = lts_from_lie_algebra(solv3_lie())
    n, br = ref.mk_solv3_lts()
    rng = random.Random(5)
    for _ in range(15):
        N = tuple(tuple(rng.randint(-2, 2) for _ in range(3))
                  for _ in range(3))
        mine = nijenhuis_defect(system, N)
        theirs = ref.nijenhuis_defect(3, br, N)
        assert bool(mine) == bool(theirs)
        assert {w[0] for w in mine} == {w[0] for w in theirs}


def test_solv3_pick_is_nijenhuis():
    system = lts_from_lie_algebra(solv3_lie())
    assert is_nijenhuis(system, SOLV3_N).ok


def test_induced_bracket_of_n01_reproduces_l2():
    deformed, report = induced_bracket(l2(), N01)
    assert report.ok
    assert report.data["nijenhuis_ok"] and report.data["deformed_lts_ok"]
    assert deformed == l2()


def test_induced_bracket_matches_reference():
    system = lts_from_lie_algebra(solv3_lie())
    n, br = ref.mk_solv3_lts()
    deformed, report = induced_bracket(system, SOLV3_N)
    assert report.ok
    expected = ref.induced_bracket(3, br, SOLV3_N)
    for t, v in expected.items():
        assert deformed.coeff(*t) == v


def test_induced_bracket_is_lts_and_morphism():
    rng = random.Random(9)
    system = l2()
    for _ in range(10):
        N = tuple(tuple(rng.randint(-3, 3) for _ in range(2))
                  for _ in range(2))
        deformed, report = induced_bracket(system, N)
        assert report.ok
        assert check_lts(deformed).ok
        assert is_morphism(deformed, system, N).ok


def test_induced_bracket_warns_for_non_nijenhuis():
    system = direct_sum(l2(), l2())
    deformed, report = induced_bracket(system, BAD_PAIR_N)
    assert not report.ok
    assert not report.data["nijenhuis_ok"]
    assert report.warnings


def test_induced_bracket_expands_once():
    # the Nijenhuis witnesses are read off the expansion that gives the
    # deformed bracket; verdict and witnesses are those of the two checks
    from unittest import mock
    import nlts.operators as ops
    cases = ((l2(), N01), (lts_from_lie_algebra(solv3_lie()), SOLV3_N),
             (direct_sum(l2(), l2()), BAD_PAIR_N),
             (lts_from_lie_algebra(sl2_lie()), ((1, 2, 0), (0, 1, 0), (3, 0, 1))))
    for system, N in cases:
        with mock.patch.object(ops, "telescoped_brackets",
                               wraps=ops.telescoped_brackets) as spy:
            deformed, report = induced_bracket(system, N)
        assert spy.call_count == 1
        nij, axioms = is_nijenhuis(system, N), check_lts(deformed)
        assert report.violations == nij.violations + axioms.violations
        assert (report.ok, report.data) == (nij.ok and axioms.ok, {
            "nijenhuis_ok": nij.ok, "deformed_lts_ok": axioms.ok})
        assert bool(report.warnings) == (not nij.ok)


def test_rb_examples():
    assert is_rota_baxter(l2(), ((0, 1), (0, 0)), 0).ok
    assert is_rota_baxter(l2(), ((1, 0), (0, 0)), -1).ok
    assert not is_rota_baxter(l2(), ident(2), 0).ok


def test_rb_matches_reference():
    n, br = ref.mk_l2()
    rng = random.Random(3)
    for _ in range(20):
        R = tuple(tuple(rng.randint(-2, 2) for _ in range(2))
                  for _ in range(2))
        for lam in (0, -1, 2):
            assert is_rota_baxter(l2(), R, lam).ok == ref.is_rb(n, br, R, lam)
            assert is_modified_rb(l2(), R, lam).ok == ref.is_mrb(n, br, R, lam)


def test_mrb_examples():
    assert is_modified_rb(l2(), ident(2), -1).ok
    assert not is_modified_rb(l2(), N01, -1).ok


def test_identity_violations_keep_their_key_order():
    from nlts import adjoint_rep, check_nijenhuis_rep
    from nlts.operators import check_rb_family
    weighted = [is_rota_baxter(l2(), ident(2), 0),
                is_modified_rb(l2(), N01, -1)]
    plain = [is_nijenhuis(direct_sum(l2(), l2()), BAD_PAIR_N),
             is_morphism(lts_from_lie_algebra(sl2_lie()), abelian(3), ident(3)),
             check_nijenhuis_rep(adjoint_rep(l2()), ident(2), N01)]
    for reports, keys in ((weighted, ["identity", "weight", "at", "lhs", "rhs"]),
                          (plain, ["identity", "at", "lhs", "rhs"])):
        for report in reports:
            assert not report.ok
            assert all(list(v) == keys for v in report.violations)
    assert [v["identity"] for v in weighted[1].violations][:1] == \
        ["modified-rota-baxter"]
    with pytest.raises(KeyError):
        check_rb_family(l2(), ident(2), "nijenhuis", 0)


def test_rb_to_modified():
    R, lam = ((0, 1), (0, 0)), 0
    M, mu = rb_to_modified(R, lam)
    assert M == ((0, 2), (0, 0)) and mu == 0
    assert is_modified_rb(l2(), M, mu).ok

    R, lam = ((1, 0), (0, 0)), -1
    M, mu = rb_to_modified(R, lam)
    assert M == ((1, 0), (0, -1)) and mu == -1
    assert is_rota_baxter(l2(), R, lam).ok
    assert is_modified_rb(l2(), M, mu).ok


SHAPES = {
    "zero": zeros(2),
    "square-zero": ((0, 1), (0, 0)),
    "idempotent": ((1, 0), (0, 0)),
    "involution": ((1, 0), (0, -1)),
    "anti-involution": ((0, -1), (1, 0)),
}


def test_classify_by_square_on_l2():
    system = l2()
    expected = {
        "zero": ("rota-baxter", 0),
        "square-zero": ("rota-baxter", 0),
        "idempotent": ("rota-baxter", -1),
        "involution": ("modified-rota-baxter", -1),
        "anti-involution": ("modified-rota-baxter", 1),
    }
    for shape, N in SHAPES.items():
        r = classify_by_square(system, N)
        assert r.data["shape"] == shape
        assert r.data["nijenhuis_ok"]
        assert r.data["equivalence_holds"]
        kind, weight = expected[shape]
        assert r.data["related"] == {"identity": kind, "weight": weight,
                                     "ok": True}


def test_classify_generic_shape():
    r = classify_by_square(l2(), ((1, 1), (0, 2)))
    assert r.data["shape"] == "generic"
    assert "related" not in r.data


def test_classify_by_square_on_solv3():
    system = lts_from_lie_algebra(solv3_lie())
    # SOLV3_N squares to zero
    sq = tuple(tuple(sum(SOLV3_N[r][k] * SOLV3_N[k][c] for k in range(3))
                     for c in range(3)) for r in range(3))
    assert all(x == 0 for row in sq for x in row)
    r = classify_by_square(system, SOLV3_N)
    assert r.data["shape"] == "square-zero"
    assert r.data["equivalence_holds"]
    assert is_rota_baxter(system, SOLV3_N, 0).ok

    # the identity matrix meets the idempotent branch first (I^2 = I)
    r = classify_by_square(system, ident(3))
    assert r.data["shape"] == "idempotent"
    assert r.data["equivalence_holds"]

    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    r = classify_by_square(system, swap)
    assert r.data["shape"] == "involution"
    assert r.data["equivalence_holds"]
    assert is_modified_rb(system, swap, -1).ok


def test_grid_search_count_and_determinism():
    found1 = grid_search_nijenhuis(l2(), (-1, 0, 1))
    found2 = grid_search_nijenhuis(l2(), (1, 0, -1))
    assert len(found1) == 81
    assert found1 == found2
    assert found1[0] == ((-1, -1), (-1, -1))
    assert found1 == sorted(found1)


def test_grid_search_matches_brute_force_on_solv3():
    system = lts_from_lie_algebra(solv3_lie())
    n, br = ref.mk_solv3_lts()
    found = grid_search_nijenhuis(system, (0, 1))
    expected = []
    for bits in itertools.product((0, 1), repeat=9):
        N = (tuple(bits[0:3]), tuple(bits[3:6]), tuple(bits[6:9]))
        if ref.is_nijenhuis(3, br, N):
            expected.append(N)
    assert found == sorted(expected)
    assert SOLV3_N in found


def test_grid_search_every_operator_on_solv3():
    """All 3^9 matrices of the {-1, 0, 1} grid, in row-major order.

    The count is backed by a symbolic step: with symbolic entries every
    component of the oracle's Nijenhuis defect on solv3 expands to zero.
    """
    n, br = ref.mk_solv3_lts()
    x = sympy.symbols("x0:9")
    symbolic = tuple(tuple(x[3 * r:3 * r + 3]) for r in range(3))
    for _, lhs, rhs in ref.nijenhuis_defect(n, br, symbolic):
        assert all(sympy.expand(u - v) == 0 for u, v in zip(lhs, rhs))
    found = grid_search_nijenhuis(lts_from_lie_algebra(solv3_lie()), (1, 0, -1))
    assert len(found) == 3 ** 9
    assert found == [tuple(e[3 * r:3 * r + 3] for r in range(3))
                     for e in itertools.product((-1, 0, 1), repeat=9)]


def test_grid_search_rare_hits_match_reference():
    system = direct_sum(l2(), abelian(1))
    n, br = 3, ref.mk_bracket(3, {(0, 1, 1): {0: 1}, (1, 0, 1): {0: -1}})
    expected = [tuple(e[3 * r:3 * r + 3] for r in range(3))
                for e in itertools.product((0, 1), repeat=9)]
    expected = [N for N in expected if ref.is_nijenhuis(n, br, N)]
    assert len(expected) == 120
    assert grid_search_nijenhuis(system, (0, 1)) == expected


def test_grid_search_budget():
    with pytest.raises(BudgetExceeded):
        grid_search_nijenhuis(l2(), (-1, 0, 1), budget=80)


def test_morphism_check_negative():
    # the identity is not a morphism from sl2 to the abelian bracket
    report = is_morphism(lts_from_lie_algebra(sl2_lie()), abelian(3), ident(3))
    assert not report.ok


# ---------------------------------------------------------------------------
# differential checks against the oracle

DIFF_SYSTEMS = {
    "l2": (l2, ref.mk_l2),
    "sl2": (lambda: lts_from_lie_algebra(sl2_lie()), ref.mk_sl2_lts),
    "solv3": (lambda: lts_from_lie_algebra(solv3_lie()), ref.mk_solv3_lts),
    "l2+l2": (lambda: direct_sum(l2(), l2()),
              lambda: (4, ref.mk_bracket(4, {
                  (0, 1, 1): {0: 1}, (1, 0, 1): {0: -1},
                  (2, 3, 3): {2: 1}, (3, 2, 3): {2: -1}}))),
}

scalar = st.one_of(st.integers(min_value=-3, max_value=3),
                   st.fractions(min_value=-2, max_value=2, max_denominator=2))


@st.composite
def system_and_operator(draw):
    name = draw(st.sampled_from(sorted(DIFF_SYSTEMS)))
    n = DIFF_SYSTEMS[name][0]().dim
    N = tuple(tuple(draw(scalar) for _ in range(n)) for _ in range(n))
    return name, N, draw(st.sampled_from((-1, 0, 1)))


def _witnesses(report):
    return [(v["at"], v["lhs"], v["rhs"]) for v in report.violations]


@given(system_and_operator())
@settings(max_examples=20, deadline=None)
def test_identity_checks_match_reference(case):
    name, N, lam = case
    make, make_ref = DIFF_SYSTEMS[name]
    system = make()
    n, br = make_ref()
    assert nijenhuis_defect(system, N) == ref.nijenhuis_defect(n, br, N)
    assert _witnesses(is_rota_baxter(system, N, lam)) == \
        ref.rb_defect(n, br, N, lam)
    assert _witnesses(is_modified_rb(system, N, lam)) == \
        ref.mrb_defect(n, br, N, lam)
    deformed, _ = induced_bracket(system, N)
    expected = ref.induced_bracket(n, br, N)
    assert {t: deformed.coeff(*t) for t in expected} == expected


@st.composite
def rational_system_and_operator(draw):
    """A stock system times a scalar plus a perturbation at one key (kept
    antisymmetric or not), and an operator; all integer when integral."""
    name = draw(st.sampled_from(sorted(DIFF_SYSTEMS)))
    system = DIFF_SYSTEMS[name][0]()
    n = system.dim
    integral = draw(st.booleans())
    entries = st.integers(-3, 3) if integral else scalar
    scale = draw(st.sampled_from((1, -2) if integral else (
        Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))))
    table = {t: tuple(scale * x for x in w) for t, w in system.table.items()}
    i, j, k = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    bump = tuple(draw(entries) for _ in range(n))
    keys = [(i, j, k)] + ([(j, i, k)] if i != j and draw(st.booleans()) else [])
    for sign, t in zip((1, -1), keys):
        table[t] = tuple(a + sign * b for a, b in zip(
            table.get(t, (0,) * n), bump))
    N = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    return LieTripleSystem(n, table), N, integral


@given(rational_system_and_operator())
@settings(max_examples=30, deadline=None)
def test_scaled_checks_match_reference(case):
    # check_lts and nijenhuis_defect clear denominators; verdicts and
    # witness values are the oracle's, and integer inputs give int entries
    system, N, integral = case
    n = system.dim
    br = {t: system.coeff(*t) for t in itertools.product(range(n), repeat=3)}
    report = check_lts(system)
    symmetry = ref.symmetry_witnesses(system.table, n, n, 3)
    # the oracle's five-term pass costs n^5 bracket expansions: not on l2+l2
    five = ref.five_term_defect(n, br) if n < 4 else None
    got = [(v["axiom"], v["at"], v["value"]) for v in report.violations
           if v["axiom"] != "five-term"]
    assert got == sorted(symmetry, key=lambda w: w[0])
    if five is not None:
        assert report.ok == (not symmetry and not five)
        assert [(v["at"], v["lhs"], v["rhs"]) for v in report.violations
                if v["axiom"] == "five-term"] == five
    defect = nijenhuis_defect(system, N)
    assert defect == ref.nijenhuis_defect(n, br, N)
    if integral:
        values = [x for v in report.violations
                  for key in ("value", "lhs", "rhs") for x in v.get(key, ())]
        values += [x for _, lhs, rhs in defect for x in lhs + rhs]
        assert all(type(x) is int for x in values)


def test_integer_witnesses_keep_integer_entries():
    system = direct_sum(l2(), l2())
    n, br = DIFF_SYSTEMS["l2+l2"][1]()
    mine = nijenhuis_defect(system, BAD_PAIR_N)
    assert mine and repr(mine) == repr(ref.nijenhuis_defect(n, br, BAD_PAIR_N))


def test_five_term_witnesses_on_corrupted_tables():
    rng = random.Random(17)
    bases = [lts_from_lie_algebra(sl2_lie()), lts_from_lie_algebra(solv3_lie()),
             direct_sum(l2(), l2())]
    checked = 0
    for system in bases:
        n = system.dim
        for _ in range(3):
            table = dict(system.table)
            key = rng.choice(sorted(table))
            value = list(table[key])
            value[rng.randrange(n)] += rng.choice((1, -2, Fraction(1, 2)))
            table[key] = tuple(value)
            table[tuple(rng.randrange(n) for _ in range(3))] = tuple(
                rng.choice((0, 1, -1)) for _ in range(n))
            corrupted = LieTripleSystem(n, table)
            br = {t: corrupted.coeff(*t)
                  for t in itertools.product(range(n), repeat=3)}
            five = [(v["at"], v["lhs"], v["rhs"])
                    for v in check_lts(corrupted).violations
                    if v["axiom"] == "five-term"]
            assert five == ref.five_term_defect(n, br)
            checked += bool(five)
    assert checked >= 6
