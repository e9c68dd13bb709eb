"""Operator-compatible representations and their deformations."""

import random

import reference as ref
from nlts import (
    Representation,
    adjoint_rep,
    check_nijenhuis_rep,
    check_representation,
    deformed_theta,
    ident,
    induce_rep,
    induced_bracket,
    is_nijenhuis,
    is_trivial_action,
    l2,
    lts_from_lie_algebra,
    solv3_lie,
    trivial_rep,
    zeros,
)
from nlts.nrep import compatibility_sides

N01 = ((0, 1), (0, 1))
SOLV3_N = ((0, 0, 0), (0, 0, 0), (0, 1, 0))


def test_adjoint_with_identity_fiber_operator():
    rep = adjoint_rep(l2())
    assert check_nijenhuis_rep(rep, N01, ident(2)).ok


def test_adjoint_with_matching_fiber_operator():
    rep = adjoint_rep(l2())
    assert check_nijenhuis_rep(rep, N01, N01).ok
    s3 = lts_from_lie_algebra(solv3_lie())
    assert check_nijenhuis_rep(adjoint_rep(s3), SOLV3_N, SOLV3_N).ok


def test_violation_witnesses():
    rep = adjoint_rep(l2())
    report = check_nijenhuis_rep(rep, N01, ((0, 1), (1, 0)))
    assert not report.ok
    assert len(report.violations) == 2
    assert all(item["identity"] == "nijenhuis-representation"
               for item in report.violations)


def test_matches_reference_on_random_operators():
    s3 = lts_from_lie_algebra(solv3_lie())
    rep = adjoint_rep(s3)
    n, br = ref.mk_solv3_lts()
    theta = ref.adjoint_theta(n, br)
    rng = random.Random(17)
    agree = disagreements = 0
    for _ in range(25):
        N = tuple(tuple(rng.randint(-1, 1) for _ in range(3))
                  for _ in range(3))
        Nv = tuple(tuple(rng.randint(-1, 1) for _ in range(3))
                   for _ in range(3))
        mine = check_nijenhuis_rep(rep, N, Nv).ok
        theirs = ref.check_operator_identity(n, br, theta, 3, N, Nv)
        assert mine == theirs
        agree += 1
    assert agree == 25


def test_deformed_theta_pinned_tensor():
    rep = adjoint_rep(l2())
    thetaN = deformed_theta(rep, N01, N01)
    assert thetaN[(1, 1)] == ((1, -1), (0, 0))
    for key in ((0, 0), (0, 1), (1, 0)):
        assert thetaN[key] == ((0, 0), (0, 0))
    # derived map vanishes identically here
    for i in range(2):
        for j in range(2):
            diff = tuple(tuple(thetaN[(j, i)][r][c] - thetaN[(i, j)][r][c]
                               for c in range(2)) for r in range(2))
            assert diff == ((0, 0), (0, 0))


def test_deformed_theta_with_identity_operators_vanishes():
    rep = adjoint_rep(l2())
    thetaN = deformed_theta(rep, ident(2), ident(2))
    for M in thetaN.values():
        assert M == ((0, 0), (0, 0))


def test_deformed_theta_matches_reference():
    s3 = lts_from_lie_algebra(solv3_lie())
    rep = adjoint_rep(s3)
    n, br = ref.mk_solv3_lts()
    theta = ref.adjoint_theta(n, br)
    expected = ref.theta_deformed(n, theta, 3, SOLV3_N, SOLV3_N)
    assert deformed_theta(rep, SOLV3_N, SOLV3_N) == expected


def test_induced_rep_is_representation_of_deformed_system():
    system = l2()
    rep = adjoint_rep(system)
    induced = induce_rep(rep, N01, N01)
    deformed, report = induced_bracket(system, N01)
    assert report.ok
    assert induced.base == deformed
    assert check_representation(induced).ok


def test_induced_rep_still_operator_compatible():
    system = l2()
    rep = adjoint_rep(system)
    induced = induce_rep(rep, N01, N01)
    assert check_nijenhuis_rep(induced, N01, N01).ok


def test_induced_rep_on_solv3():
    # the deformed action always satisfies the compatibility identity over
    # the deformed system, but the representation identities themselves can
    # fail: this square-zero operator on the solvable system is a witness
    s3 = lts_from_lie_algebra(solv3_lie())
    rep = adjoint_rep(s3)
    induced = induce_rep(rep, SOLV3_N, SOLV3_N)
    assert check_nijenhuis_rep(induced, SOLV3_N, SOLV3_N).ok
    report = check_representation(induced)
    assert not report.ok and len(report.violations) == 4
    # the oracle agrees: theta_N over the deformed bracket is no action
    n, br = ref.mk_solv3_lts()
    thetaN = ref.theta_deformed(n, ref.adjoint_theta(n, br), 3, SOLV3_N,
                                SOLV3_N)
    assert induced.theta == thetaN
    assert not ref.check_rep_identities(
        n, ref.induced_bracket(n, br, SOLV3_N), thetaN, 3)


def test_compatibility_defect_of_derived_family():
    # the defect rhs - lhs of the compatibility identity is linear in the
    # action, and the action with swapped arguments has at (i, j) the
    # defect of the action at (j, i); so the derived family
    # D(i, j) = theta(j, i) - theta(i, j) has the defect
    # defect_theta(j, i) - defect_theta(i, j)
    s3 = lts_from_lie_algebra(solv3_lie())
    rng = random.Random(23)

    def entries(rows, cols):
        return tuple(tuple(rng.randint(-2, 2) for _ in range(cols))
                     for _ in range(rows))

    for m in (1, 2, 3) * 4:
        theta = {(i, j): entries(m, m) for i in range(3) for j in range(3)}
        rep = Representation(s3, m, theta)
        derived = Representation(s3, m, {k: rep.D(*k) for k in theta})
        N, Nv = entries(3, 3), entries(m, m)

        def defect(r, i, j):
            lhs, rhs = compatibility_sides(r, N, Nv)[(i, j)]
            return ref.matsub(rhs, lhs)

        for i, j in theta:
            assert defect(derived, i, j) == ref.matsub(defect(rep, j, i),
                                                       defect(rep, i, j))


def test_trivial_action_detection():
    assert is_trivial_action(trivial_rep(l2(), 2))
    assert not is_trivial_action(adjoint_rep(l2()))


def test_trivial_rep_compatible_with_any_operators():
    rep = trivial_rep(l2(), 1)
    for N in (zeros(2), N01, ident(2)):
        for Nv in (((0,),), ((5,),), ((-2,),)):
            assert check_nijenhuis_rep(rep, N, Nv).ok
