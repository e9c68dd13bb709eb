"""Abelian extensions: assembly, validation, extraction, equivalence."""

import itertools
import random

import pytest

import reference as ref

from nlts import (
    AbelianExtension,
    LieTripleSystem,
    Representation,
    build_extension,
    check_lts,
    extensions_equivalent,
    extract_cocycle,
    induced_representation,
    is_nijenhuis,
    validate_extension,
    zero_cochain,
    zeros,
)
from nlts.cohomology import cochain_add, cochain_iszero
from nlts.extensions import chi_to_cochain, cochain_to_chi


def test_extension_matrices_are_shape_checked(cx_l2_adj):
    # a 2-by-3 Nv used to give a ragged Nhat and a 1-by-1 N an IndexError
    cx = cx_l2_adj
    psi, chi = zero_cochain(2, 2, 3), zeros(2)
    for N, Nv, chi_, message in (
            (cx.N, ((0, 1, 0), (0, 1, 0)), chi, "Nv must be a 2-by-2 matrix"),
            (((1,),), cx.Nv, chi, "N must be a 2-by-2 matrix"),
            (cx.N, cx.Nv, zeros(2, 3), "chi must be a 2-by-2 matrix")):
        with pytest.raises(ValueError, match=message):
            AbelianExtension(cx.system, cx.rep, N, Nv, psi, chi_)
    ext = AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv, psi, ((1, 2), (3, 4)))
    assert ext.Nhat == ((0, 1, 0, 0), (0, 1, 0, 0), (1, 2, 0, 1), (3, 4, 0, 1))


def rand_pair(cx, rng, lo=-3, hi=3):
    def combo(deg):
        out = {t: [0] * cx.m for t in zero_cochain(cx.n, cx.m, deg)}
        for b in cx.cochain_basis(deg):
            c = rng.randint(lo, hi)
            if c:
                for t, v in b.items():
                    for a in range(cx.m):
                        out[t][a] += c * v[a]
        return {t: tuple(v) for t, v in out.items()}
    return combo(3), combo(1)


def test_total_system_block_structure(cx_l2_adj):
    cx = cx_l2_adj
    psi, g = cx.kernel_pairs(3)[0]
    ext, report = build_extension(cx, psi, cochain_to_chi(g, cx.n, cx.m))
    assert report.ok
    total = ext.total
    assert total.dim == 4
    # pure base inputs: base bracket plus fiber part psi
    for t in ((0, 1, 1), (1, 0, 1)):
        assert total.coeff(*t)[:2] == cx.system.coeff(*t)
        assert total.coeff(*t)[2:] == psi[t]
    # one fiber argument acts through the representation
    th = cx.rep.theta[(0, 1)]
    assert total.coeff(2, 0, 1) == (0, 0) + tuple(th[r][0] for r in range(2))
    # two fiber arguments vanish
    assert total.coeff(2, 3, 0) == (0, 0, 0, 0)
    # lifted operator blocks
    assert ext.Nhat[0][:2] == cx.N[0] and ext.Nhat[1][:2] == cx.N[1]
    assert ext.Nhat[0][2:] == (0, 0)
    assert ext.Nhat[2][2:] == cx.Nv[0] and ext.Nhat[3][2:] == cx.Nv[1]


def test_build_validity_iff_cocycle(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(101)
    seen_bad = seen_good = 0
    for _ in range(40):
        psi, g = rand_pair(cx, rng)
        chi = cochain_to_chi(g, cx.n, cx.m)
        is_c = cx.is_cocycle(psi, g, 3).ok
        ext, report = build_extension(cx, psi, chi)
        assert report.ok == is_c
        assert report.data["cocycle_ok"] == is_c
        assert not report.warnings
        if is_c:
            seen_good += 1
            assert check_lts(ext.total).ok
            assert is_nijenhuis(ext.total, ext.Nhat).ok
            assert validate_extension(ext).ok
        else:
            seen_bad += 1
            assert not validate_extension(ext).ok
    assert seen_bad >= 5 and seen_good >= 1


def test_kernel_pairs_build_valid_extensions(cx_l2_adj):
    cx = cx_l2_adj
    for psi, g in cx.kernel_pairs(3):
        ext, report = build_extension(cx, psi, cochain_to_chi(g, cx.n, cx.m))
        assert report.ok
        assert report.data["total_lts_ok"]
        assert report.data["lifted_nijenhuis_ok"]


def test_extract_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    for psi, g in cx.kernel_pairs(3):
        chi = cochain_to_chi(g, cx.n, cx.m)
        ext, _ = build_extension(cx, psi, chi)
        psi2, chi2 = extract_cocycle(ext)
        assert psi2 == ext.psi and chi2 == ext.chi
        assert cochain_to_chi(chi_to_cochain(chi2, cx.n, cx.m),
                              cx.n, cx.m) == chi2


def test_induced_representation_recovers_action(cx_l2_adj):
    cx = cx_l2_adj
    psi, g = cx.kernel_pairs(3)[1]
    ext, _ = build_extension(cx, psi, cochain_to_chi(g, cx.n, cx.m))
    rep, report = induced_representation(ext)
    assert report.ok
    assert rep.theta == cx.rep.theta


def _corrupt_total(rng, table, n, m, kind):
    """A copy of a total table with one entry changed: the base part of a
    first-slot fiber bracket, a middle- or third-slot fiber bracket, or a
    bracket with two fiber entries."""
    size = n + m
    i, j, k = (rng.randrange(n) for _ in range(3))
    a, b = rng.randrange(n, size), rng.randrange(n, size)
    at = {"fiber-ideal": (a, i, j), "middle-slot-action": (i, a, j),
          "third-slot-action": (i, j, a),
          "two-fiber-entries": rng.choice([(a, b, k), (k, a, b), (a, k, b)])}
    key = at[kind]
    w = table.get(key, (0,) * size)
    if kind == "fiber-ideal":
        w = ref.perturb(rng, w[:n]) + w[n:]
    else:
        w = ref.perturb(rng, w)
    return {**table, key: w}


INDUCED_KINDS = ("fiber-ideal", "middle-slot-action", "third-slot-action",
                 "two-fiber-entries")


@pytest.mark.parametrize("name", sorted(ref.WITNESS_BASES))
def test_induced_representation_matches_oracle(name):
    # totals written from an adjoint, a change-of-basis (Fraction) and a
    # random one-dimensional action, each also with one corrupted entry
    # per witness kind: theta and the whole witness lists against the
    # oracle's reading through basis vectors of the total bracket
    n, br = ref.WITNESS_BASES[name]
    base = LieTripleSystem(n, br)
    rng = random.Random(name)
    adj = ref.adjoint_theta(n, br)
    P, Pinv = ref.rand_change_of_basis(rng, n)
    actions = [(n, adj), (n, ref.conjugate_theta(adj, P, Pinv)),
               (1, {k: ref.rand_matrix(rng, 1, 1) for k in adj})]
    fired = set()
    for m, theta in actions:
        rep = Representation(base, m, theta)
        psi = {t: tuple(rng.choice((0,) + ref.ENTRIES) for _ in range(m))
               for t in itertools.product(range(n), repeat=3)}
        ext = AbelianExtension(base, rep, zeros(n), zeros(m), psi,
                               zeros(m, n))
        totals = [ext.total.table] + [
            _corrupt_total(rng, ext.total.table, n, m, kind)
            for kind in INDUCED_KINDS]
        for table in totals:
            corrupt = AbelianExtension(base, rep, zeros(n), zeros(m), psi,
                                       zeros(m, n),
                                       total=LieTripleSystem(n + m, table))
            got, report = induced_representation(corrupt)
            found = [(v["identity"], v["at"], v.get("lhs", v.get("value")),
                      v.get("rhs")) for v in report.violations]
            theta_ref, want = ref.induced_rep_defects(n, m, table)
            assert got.theta == theta_ref
            assert found == want
            assert report.ok == (not want)
            fired |= {item[0] for item in found}
        back, report = induced_representation(ext)
        assert report.ok and back.theta == rep.theta
    assert fired == set(INDUCED_KINDS)


def test_equivalence_after_coboundary_shift(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(103)
    base_psi, base_g = cx.kernel_pairs(3)[0]
    for _ in range(8):
        gamma = {(i,): tuple(rng.randint(-4, 4) for _ in range(cx.m))
                 for i in range(cx.n)}
        df, dg = cx.d(gamma, None, 1)
        psi2 = cochain_add(base_psi, df)
        g2 = cochain_add(base_g, dg)
        ext1, r1 = build_extension(
            cx, base_psi, cochain_to_chi(base_g, cx.n, cx.m))
        ext2, r2 = build_extension(cx, psi2, cochain_to_chi(g2, cx.n, cx.m))
        assert r1.ok and r2.ok
        eq = extensions_equivalent(ext1, ext2)
        assert eq.ok
        assert eq.data["equivalent"]
        assert eq.data["isomorphism_verified"]
        assert eq.data["gamma"] is not None


def test_equivalence_reflexive(cx_l2_adj):
    cx = cx_l2_adj
    psi, g = cx.kernel_pairs(3)[2]
    ext, _ = build_extension(cx, psi, cochain_to_chi(g, cx.n, cx.m))
    eq = extensions_equivalent(ext, ext)
    assert eq.data["equivalent"] and eq.data["isomorphism_verified"]


def test_equivalence_over_a_zero_dimensional_base():
    # C^1 is empty, so is_coboundary shows no preimage: gamma is the zero map
    base = LieTripleSystem(0, {})
    ext = AbelianExtension(base, Representation(base, 1, {}), (), ((0,),),
                           {}, ((),))
    eq = extensions_equivalent(ext, ext)
    assert eq.ok
    assert eq.data == {"equivalent": True, "gamma": ((),),
                       "isomorphism_verified": True}


def test_inequivalence_of_nontrivial_class(cx_l2_adj):
    cx = cx_l2_adj
    zero_ext, _ = build_extension(
        cx, zero_cochain(cx.n, cx.m, 3),
        cochain_to_chi(zero_cochain(cx.n, cx.m, 1), cx.n, cx.m))
    refused = 0
    for psi, g in cx.kernel_pairs(3):
        if cx.is_coboundary(psi, g, 3)[0]:
            continue
        ext, _ = build_extension(cx, psi, cochain_to_chi(g, cx.n, cx.m))
        eq = extensions_equivalent(ext, zero_ext)
        assert not eq.data["equivalent"]
        assert eq.data["gamma"] is None
        refused += 1
    assert refused >= 4


def test_equivalence_requires_same_data(cx_l2_adj, cx_l2_triv):
    cx = cx_l2_adj
    psi, g = cx.kernel_pairs(3)[0]
    ext1, _ = build_extension(cx, psi, cochain_to_chi(g, cx.n, cx.m))
    other = cx_l2_triv
    z3 = zero_cochain(other.n, other.m, 3)
    z1 = zero_cochain(other.n, other.m, 1)
    ext2, _ = build_extension(other, z3, cochain_to_chi(z1, other.n, other.m))
    with pytest.raises(ValueError):
        extensions_equivalent(ext1, ext2)


def test_extension_constructor_rejects_bad_chi(cx_l2_adj):
    cx = cx_l2_adj
    with pytest.raises(ValueError):
        AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv,
                         zero_cochain(2, 2, 3), ((0, 0, 0),))
