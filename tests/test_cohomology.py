"""The two-column cochain complex: spaces, differentials, dimensions."""

from fractions import Fraction
import itertools
import json
import pathlib
import random

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.sdm import SDM

import reference as ref
from nlts import (
    AbelianExtension,
    Complex,
    LieTripleSystem,
    adjoint_rep,
    check_lts,
    check_representation,
    direct_sum,
    extensions_equivalent,
    ident,
    l2,
    cochain_space_dim,
    lts_from_lie_algebra,
    normalize_cochain,
    sl2_lie,
    trivial_rep,
    validate_cochain,
    zero_cochain,
)
from nlts import cohomology
from nlts.cohomology import (_w3_data, cochain_add, cochain_iszero,
                             cochain_scale, cochain_sub)
from nlts.operators import _Poly


def lib_rand(cx, rng, deg, lo=-4, hi=4):
    """Random valid cochain as an integer combination of the basis."""
    out = {t: [0] * cx.m for t in zero_cochain(cx.n, cx.m, deg)}
    for b in cx.cochain_basis(deg):
        c = rng.randint(lo, hi)
        if c:
            for t, v in b.items():
                for a in range(cx.m):
                    out[t][a] += c * v[a]
    return {t: tuple(v) for t, v in out.items()}


def as_ctx(cx):
    """Mirror a library complex as a reference context."""
    n, m = cx.n, cx.m
    br = {t: cx.system.coeff(*t) for t in itertools.product(range(n), repeat=3)}
    return ref.Ctx(n, br, dict(cx.rep.theta), m, cx.N, cx.Nv)


# ---------------------------------------------------------------------------
# cochain spaces

def test_constrained_tensor_dimension_formula():
    for n in (1, 2, 3):
        assert ref.w_dim(n) == len(ref.slot3_constraint_basis(n))
    assert ref.w_dim(1) == 0 and ref.w_dim(2) == 2 and ref.w_dim(3) == 8


def test_cochain_space_dims():
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 3)):
        assert cochain_space_dim(n, m, 1) == n * m
        for deg in (3, 5, 7):
            k = (deg - 1) // 2
            assert (cochain_space_dim(n, m, deg)
                    == m * n ** (2 * k - 2) * ref.w_dim(n))


def test_basis_elements_validate_and_count(cx_l2_adj, cx_solv3_adj):
    cx = cx_l2_adj
    for deg in (1, 3, 5):
        basis = cx.cochain_basis(deg)
        assert len(basis) == cochain_space_dim(cx.n, cx.m, deg)
        for b in basis:
            assert validate_cochain(b, cx.n, cx.m, deg).ok
    # coordinates and basis are dual: basis cochain k flattens to the k-th
    # unit vector (solv3 has a nontrivial transversal in degree 3)
    for cx, degs in ((cx_l2_adj, (1, 3, 5)), (cx_solv3_adj, (1, 3))):
        for deg in degs:
            basis = cx.cochain_basis(deg)
            for k, b in enumerate(basis):
                assert cx.flatten(b, deg) == [int(j == k)
                                              for j in range(len(basis))]


def test_validate_rejects_bad_symmetry():
    f = zero_cochain(2, 1, 3)
    f[(0, 0, 1)] = (1,)
    report = validate_cochain(f, 2, 1, 3)
    assert not report.ok
    # with only two indices every triple repeats an argument, so the cyclic
    # constraint follows from antisymmetry; three indices are needed to
    # break it on its own
    f2 = zero_cochain(3, 1, 3)
    f2[(0, 1, 2)] = (1,)
    f2[(1, 0, 2)] = (-1,)
    report2 = validate_cochain(f2, 3, 1, 3)
    assert not report2.ok
    kinds2 = {item["constraint"] for item in report2.violations}
    assert "cyclic" in kinds2 and "antisymmetry" not in kinds2


@pytest.mark.parametrize("degree, n", [(3, 1), (3, 2), (3, 3), (3, 4),
                                       (5, 1), (5, 2), (5, 3)])
@pytest.mark.parametrize("entries", sorted(ref.ENTRY_SETS))
@pytest.mark.parametrize("dense", [False, True])
def test_validate_cochain_witnesses_match_oracle(degree, n, entries, dense):
    # antisymmetry and cyclic witnesses interleaved, key by key
    rng = random.Random("cochain-%d-%d-%s-%d" % (degree, n, entries, dense))
    for m in (1, 2):
        f = ref.rand_tensor(rng, n, m, degree, ref.ENTRY_SETS[entries], dense)
        report = validate_cochain(f, n, m, degree)
        got = [(v["constraint"], v["at"], v["value"])
               for v in report.violations]
        assert got == ref.symmetry_witnesses(f, n, m, degree)
        assert report.ok == (not got)


W3_PIN = pathlib.Path(__file__).parent / "data" / "w3_pin.json"


def w3_records():
    """_w3_data(n) for n = 1..5 as JSON: per n, each basis dict as sorted
    [key, coefficient] pairs, and the free tuples."""
    return {str(n): {"basis": [sorted([list(t), c] for t, c in b.items())
                               for b in basis],
                     "free": [list(t) for t in free]}
            for n, (basis, free) in ((n, _w3_data(n)) for n in range(1, 6))}


def test_w3_data_matches_pin():
    # pinned from the hand-written constraint rows; regenerate with
    # `PYTHONPATH=src python tests/test_cohomology.py` only when the
    # constrained basis is meant to change
    assert w3_records() == json.loads(W3_PIN.read_text())
    for n in range(1, 6):
        assert len(_w3_data(n)[0]) == ref.w_dim(n)


def test_keys_outside_the_shape_are_refused(cx_l2_adj):
    # a key of the wrong length or with an index past the dimension used to
    # be dropped, so the cochain read as zero and passed every check
    cx = cx_l2_adj
    for f in ({(0, 1, 0, 0): (1, 0)}, {(0, 1, 7): (1, 0)}):
        with pytest.raises(ValueError, match="outside the shape"):
            normalize_cochain(f, 2, 2, 3)
        report = validate_cochain(f, 2, 2, 3)
        assert not report.ok
        assert [v["constraint"] for v in report.violations] == ["shape"]
        assert "%r" % (next(iter(f)),) in report.violations[0]["detail"]
        cocycle = cx.is_cocycle(f, None, 3)
        assert not cocycle.ok and cocycle.violations == report.violations
    assert cx.is_coboundary({(0, 1, 9): (5, 0)}, None, 3) == (False, None)
    assert cx.is_coboundary(zero_cochain(2, 2, 3), {(2,): (1, 0)}, 3) \
        == (False, None)


def test_sparse_cochains_flatten_like_their_normal_form(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(5)
    for deg in (1, 3, 5):
        f = lib_rand(cx, rng, deg)
        sparse = {t: v for t, v in f.items() if any(v)}
        assert cx.flatten(sparse, deg) == cx.flatten(f, deg)
    f = {(0, 1, 0): (0, 1), (1, 0, 0): (0, -1)}
    dense = normalize_cochain(f, 2, 2, 3)
    assert cx.pair_flatten(f, None, 3) == cx.pair_flatten(dense, None, 3) \
        == cx.pair_flatten(dense, zero_cochain(2, 2, 1), 3)
    assert cx.pair_flatten({}, {}, 5) == [0] * cx._domain_dim(5)


def test_normalize_cochain_round_trip():
    sparse = {(0, 1, 1): (1, 0), (1, 0, 1): (-1, 0)}
    full = normalize_cochain(sparse, 2, 2, 3)
    assert full[(0, 1, 1)] == (1, 0)
    assert full[(0, 0, 0)] == (0, 0)
    assert len(full) == 8


def test_flatten_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(1)
    for deg in (1, 3, 5):
        f = lib_rand(cx, rng, deg)
        coords = cx.flatten(f, deg)
        back = cx.from_coefficients(coords, deg)
        assert back == f


def test_coefficient_vectors_of_the_wrong_length_are_refused(cx_l2_adj):
    """l2 adjoint has 4 coordinates in degree 1 and 8 on degree-3 pairs;
    a longer vector was cut and a shorter one zero-padded."""
    cx = cx_l2_adj
    for coeffs in ([1, 2, 3, 4, 5], [1]):
        with pytest.raises(ValueError, match="has 4 coefficients, got %d"
                           % len(coeffs)):
            cx.from_coefficients(coeffs, 1)
    for coeffs in ([1, 2], list(range(9))):
        with pytest.raises(ValueError, match="degree-3 pair has 8 "
                           "coefficients, got %d" % len(coeffs)):
            cx.pair_from_coefficients(coeffs, 3)
    with pytest.raises(ValueError, match="has 4 coefficients, got 5"):
        cx.pair_from_coefficients([0] * 5, 1)
    assert cx.pair_from_coefficients([0] * 8, 3) == (
        zero_cochain(2, 2, 3), zero_cochain(2, 2, 1))


# ---------------------------------------------------------------------------
# differentials against the reference implementations

@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_triv", "cx_dim1",
                                     "cx_solv3_adj"])
def test_delta_partial_phi_match_reference(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    ctx = as_ctx(cx)
    rng = random.Random(23)
    degs = (1, 3) if cx.n > 2 else (1, 3, 5)
    for deg in degs:
        for _ in range(4):
            f = lib_rand(cx, rng, deg)
            assert cx.delta(f, deg) == ctx.delta(f, deg)
            assert cx.phi(f, deg) == ctx.phi(f, deg)
            assert cx.partial(f, deg) == ctx.partial(f, deg)


@pytest.fixture(scope="module")
def cx_l2_invalid():
    """l2 adjoint with [e0,e0,e0] = e1/2 added to the bracket, which is
    then not antisymmetric: neither the base nor the representation is
    valid, so delta need not land in the constrained cochains."""
    table = dict(l2().table)
    table[(0, 0, 0)] = (0, Fraction(1, 2))
    system = LieTripleSystem(2, table)
    return Complex(system, adjoint_rep(system), ((0, 1), (0, 1)),
                   ((1, 0), (1, 1)))


def test_invalid_context_leaves_the_constrained_space(cx_l2_invalid):
    cx = cx_l2_invalid
    assert not check_lts(cx.system) and not check_representation(cx.rep)
    assert any(not validate_cochain(cx.delta(b, 1), 2, 2, 3)
               for b in cx.cochain_basis(1))


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_adj_half",
                                     "cx_l2_triv_frac", "cx_dim1",
                                     "cx_l2_adj_seeded", "cx_l2_invalid"])
def test_delta_partial_match_reference_on_any_cochain(ctxname, request):
    """The numeric reader of ``coboundary_plan`` against the oracle's
    hand-expanded formulas, value by value at every tuple, on random int
    and Fraction cochains that need not satisfy the slot constraints:
    given at every tuple, and sparse, at one to three tuples."""
    cx = request.getfixturevalue(ctxname)
    ctx = as_ctx(cx)
    rng, sparse_rng = random.Random(29), random.Random(37)
    draws = (lambda: rng.randint(-3, 3),
             lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    for deg in (1, 3, 5):
        tuples = list(itertools.product(range(cx.n), repeat=deg))
        cochains = [{t: tuple(draw() for _ in range(cx.m)) for t in tuples}
                    for draw in draws]
        support = sparse_rng.sample(tuples, min(len(tuples),
                                                sparse_rng.randint(1, 3)))
        cochains.append({t: tuple(draws[1]() or 1 for _ in range(cx.m))
                         for t in support})
        for f in cochains:
            dense = normalize_cochain(f, cx.n, cx.m, deg)
            assert cx.delta(f, deg) == ctx.delta(dense, deg)
            assert cx.partial(f, deg) == ctx.partial(dense, deg)


def test_coboundary_costs_the_support_of_f(cx_sl2_adj, monkeypatch):
    """For each nonzero value v of f, delta forms theta v and D v once per
    nonzero matrix, and partial also Nv v and Nv^2 v once; a pass over
    every output tuple formed them once per term there."""
    cx = cx_sl2_adj
    f = {(0, 1, 2): (1, 0, 2), (2, 0, 1): (0, Fraction(-1, 2), 1)}
    calls = []
    matvec = cohomology.matvec
    monkeypatch.setattr(cohomology, "matvec",
                        lambda M, v: calls.append(1) or matvec(M, v))

    def nonzero(table):
        return sum(1 for M in table.values() if any(map(any, M)))
    for run, bound in (
            (cx.delta, nonzero(cx.theta) + nonzero(cx.D)),
            (cx.partial, nonzero(cx.thetaN) + nonzero(cx.DN) + 2)):
        calls.clear()
        assert not cochain_iszero(run(f, 3))
        assert 0 < len(calls) <= len(f) * bound, (run.__name__, len(calls))


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_triv", "cx_dim1"])
def test_d_matches_reference(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    ctx = as_ctx(cx)
    rng = random.Random(31)
    f1 = lib_rand(cx, rng, 1)
    assert cx.d(f1, None, 1) == ctx.d(f1, None, 1)
    f3, g1 = lib_rand(cx, rng, 3), lib_rand(cx, rng, 1)
    assert cx.d(f3, g1, 3) == ctx.d(f3, g1, 3)
    f5, g3 = lib_rand(cx, rng, 5), lib_rand(cx, rng, 3)
    assert cx.d(f5, g3, 5) == ctx.d(f5, g3, 5)


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_triv", "cx_dim1",
                                     "cx_solv3_adj"])
def test_d_square_zero(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    rng = random.Random(47)
    for _ in range(6):
        f1 = lib_rand(cx, rng, 1)
        df, dg = cx.d(f1, None, 1)
        zf, zg = cx.d(df, dg, 3)
        assert cochain_iszero(zf) and cochain_iszero(zg)
        f3, g1 = lib_rand(cx, rng, 3), lib_rand(cx, rng, 1)
        ef, eg = cx.d(f3, g1, 3)
        zf, zg = cx.d(ef, eg, 5)
        assert cochain_iszero(zf) and cochain_iszero(zg)


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_triv", "cx_dim1"])
def test_delta_and_partial_square_zero(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    rng = random.Random(53)
    # degree 5 runs the general coboundary through degree 7 into 9
    for deg in (1, 3, 5):
        for _ in range(4):
            f = lib_rand(cx, rng, deg)
            assert cochain_iszero(cx.delta(cx.delta(f, deg), deg + 2))
            assert cochain_iszero(cx.partial(cx.partial(f, deg), deg + 2))


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_triv", "cx_dim1",
                                     "cx_solv3_adj"])
def test_chain_map_rule(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    rng = random.Random(61)
    degs = (1, 3) if cx.n > 2 else (1, 3, 5)
    for deg in degs:
        for _ in range(4):
            f = lib_rand(cx, rng, deg)
            assert cx.partial(cx.phi(f, deg), deg) == cx.phi(
                cx.delta(f, deg), deg + 2)


def test_d_is_linear(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(71)
    f, g = lib_rand(cx, rng, 3), lib_rand(cx, rng, 3)
    u, v = lib_rand(cx, rng, 1), lib_rand(cx, rng, 1)
    combo_f = cochain_add(cochain_scale(2, f), g)
    combo_g = cochain_add(cochain_scale(2, u), v)
    df1, dg1 = cx.d(f, u, 3)
    df2, dg2 = cx.d(g, v, 3)
    want_f = cochain_add(cochain_scale(2, df1), df2)
    want_g = cochain_add(cochain_scale(2, dg1), dg2)
    got_f, got_g = cx.d(combo_f, combo_g, 3)
    assert got_f == want_f and got_g == want_g


def test_delta_of_identity_cochain_is_twice_bracket(cx_l2_adj):
    cx = cx_l2_adj
    f = {(i,): tuple(1 if a == i else 0 for a in range(2)) for i in range(2)}
    df = cx.delta(f, 1)
    for t in itertools.product(range(2), repeat=3):
        assert df[t] == tuple(2 * x for x in cx.system.coeff(*t))


# ---------------------------------------------------------------------------
# the matrix of d against the oracle, column by column

@pytest.fixture(scope="module")
def cx_l2_adj_half():
    half = tuple(tuple(Fraction(x, 2) for x in row)
                 for row in ((0, 1), (0, 1)))
    return Complex(l2(), adjoint_rep(l2()), half, half)


def reference_d_matrix(cx, ctx, deg):
    """sympy matrix of d, one ``ref.Ctx.d`` column per domain basis pair."""
    n, m = cx.n, cx.m
    if deg == 1:
        domain = [(f, None) for f in cx.cochain_basis(1)]
    else:
        domain = ([(f, zero_cochain(n, m, deg - 2))
                   for f in cx.cochain_basis(deg)]
                  + [(zero_cochain(n, m, deg), g)
                     for g in cx.cochain_basis(deg - 2)])
    height = len(cx.pair_flatten(zero_cochain(n, m, deg + 2),
                                 zero_cochain(n, m, deg), deg + 2))
    out = sympy.zeros(height, len(domain))
    for c, (f, g) in enumerate(domain):
        column = cx.pair_flatten(*ctx.d(f, g, deg), deg + 2)
        for r, x in enumerate(column):
            out[r, c] = sympy.Rational(x)
    return out


def as_fractions(v):
    return [Fraction(int(x.p), int(x.q)) for x in v]


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_adj_half",
                                     "cx_l2_triv", "cx_dim1", "cx_solv3_adj"])
def test_d_matrix_matches_oracle(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    ctx = as_ctx(cx)
    rng = random.Random(97)
    degs = (1, 3) if cx.n > 2 else (1, 3, 5)
    for deg in degs:
        M = reference_d_matrix(cx, ctx, deg)
        assert cx.d_rank(deg) == M.rank()
        kernel = [tuple(cx.pair_flatten(f, g, deg))
                  for f, g in cx.kernel_pairs(deg)]
        assert kernel == [ref.coprime(v) for v in M.nullspace()]
        if deg == 5:
            continue
        # preimages of targets one degree up: images of random domain
        # vectors, and one random pair, which is usually not an image
        top = deg + 2
        targets = []
        for _ in range(3):
            y = [rng.randint(-3, 3) for _ in range(M.cols)]
            f, g = cx.pair_from_coefficients(y, deg)
            targets.append(ctx.d(f, g or zero_cochain(cx.n, cx.m, 1), deg))
        targets.append((lib_rand(cx, rng, top), lib_rand(cx, rng, top - 2)))
        for f, g in targets:
            b = sympy.Matrix([sympy.Rational(x)
                              for x in cx.pair_flatten(f, g, top)])
            assert cx.is_coboundary(f, g, top) == free_zero_solution(cx, M, b,
                                                                     deg)


def free_zero_solution(cx, M, b, deg):
    """is_coboundary's answer from sympy: the solution of M x = b with every
    free parameter 0, as a domain pair, or (False, None)."""
    if not M.rows:  # no equations: sympy refuses, and x = 0 solves
        return True, cx.pair_from_coefficients([0] * M.cols, deg)
    try:
        sol, params = M.gauss_jordan_solve(b)
    except ValueError:
        return False, None
    x = as_fractions(sol.subs({p: 0 for p in params}))
    return True, cx.pair_from_coefficients(x, deg)


SL2_N = ((1, 1, 0), (0, 1, 0), (0, 0, 2))


@pytest.fixture(scope="module")
def cx_l2_adj_seeded():
    """l2 adjoint in a seeded Fraction basis."""
    return seeded_complex(l2(), "adjoint", ((0, 1), (0, 1)), None, 5)


@pytest.fixture(scope="module")
def cx_sl2_triv_seeded():
    """sl2 with a one-dimensional trivial fiber in a seeded Fraction basis."""
    return seeded_complex(lts_from_lie_algebra(sl2_lie()), "trivial", SL2_N,
                          ((2,),), 7)


@pytest.fixture(scope="module")
def cx_sl2_adj():
    system = lts_from_lie_algebra(sl2_lie())
    return Complex(system, adjoint_rep(system), SL2_N, SL2_N)


@pytest.fixture(scope="module")
def cx_sl2_adj_seeded():
    """sl2 adjoint in a seeded Fraction basis."""
    return seeded_complex(lts_from_lie_algebra(sl2_lie()), "adjoint", SL2_N,
                          None, 11)


@pytest.fixture(scope="module")
def cx_l2l2_adj():
    system = direct_sum(l2(), l2())
    return Complex(system, adjoint_rep(system), ident(4), ident(4))


@pytest.fixture(scope="module")
def cx_l2l2_adj_seeded():
    """l2+l2 adjoint with N = I in a seeded Fraction basis."""
    return seeded_complex(direct_sum(l2(), l2()), "adjoint", ident(4), None,
                          13)


@pytest.fixture(scope="module")
def cx_l2_triv_frac():
    """l2 with a two-dimensional trivial fiber and a Fraction Nv that is
    not the identity, so partial's Nv and Nv^2 terms run on fractions."""
    system = l2()
    Nv = ((Fraction(1, 2), 1), (0, Fraction(-2, 3)))
    return Complex(system, trivial_rep(system, 2), ((0, 1), (0, 1)), Nv)


def seeded_complex(system, kind, N, Nv, seed):
    n = system.dim
    P, Pinv = ref.rand_change_of_basis(random.Random(seed), n)
    br = {t: system.coeff(*t) for t in itertools.product(range(n), repeat=3)}
    moved = LieTripleSystem(n, ref.transport_bracket(n, br, P, Pinv))
    N = ref.matmul(ref.matmul(Pinv, N), P)
    if kind == "adjoint":
        return Complex(moved, adjoint_rep(moved), N, N)
    return Complex(moved, trivial_rep(moved, 1), N, Nv)


def full_pass_rows(cx, deg):
    """The d-matrix read off one run of d at every tuple: d on the pair of
    variables, flattened, one sparse {column: coefficient} row per entry."""
    x = [_Poly({(k,): 1}) for k in range(cx._domain_dim(deg))]
    image = cx.pair_flatten(*cx.d(*cx.pair_from_coefficients(x, deg), deg),
                            deg + 2)
    return [{k: c for (k,), c in entry.items()} if entry else {}
            for entry in image]


def typed(rows):
    return [sorted((k, type(c).__name__, c) for k, c in row.items())
            for row in rows]


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_adj_half",
                                     "cx_l2_triv", "cx_solv3_adj",
                                     "cx_l2_adj_seeded", "cx_sl2_triv_seeded",
                                     "cx_sl2_adj", "cx_sl2_adj_seeded",
                                     "cx_l2l2_adj", "cx_l2l2_adj_seeded",
                                     "cx_l2_triv_frac"])
def test_d_matrix_equals_full_pass(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    for deg in {2: (1, 3, 5), 3: (1, 3), 4: (1,)}[cx.n]:
        want = full_pass_rows(cx, deg)
        assert typed(cx._d_matrix(deg)) == typed(want), deg


def reference_witnesses(ctx, f, g, deg):
    """is_cocycle's witnesses read off the reference d: every nonzero value,
    bracket component first, each in sorted tuple order."""
    df, second = ctx.d(f, g, deg)
    return [(name, t, v) for name, h in (("bracket", df), ("operator", second))
            for t, v in sorted(h.items()) if any(v)]


@pytest.mark.parametrize("ctxname", ["cx_l2_adj", "cx_l2_adj_half"])
def test_is_cocycle_witnesses_on_fraction_cochains(ctxname, request):
    cx = request.getfixturevalue(ctxname)
    ctx = as_ctx(cx)
    rng = random.Random(101)
    fracs = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), 3)

    def frac_rand(deg):
        return cochain_scale(rng.choice(fracs), cochain_add(
            lib_rand(cx, rng, deg), cochain_scale(rng.choice(fracs),
                                                  lib_rand(cx, rng, deg))))
    checked = 0
    for deg in (1, 3, 5):
        pairs = [(frac_rand(deg), frac_rand(deg - 2) if deg > 1 else None)
                 for _ in range(3)]
        pairs += [tuple(cochain_scale(Fraction(3, 4), h) if h else h
                        for h in pair) for pair in cx.kernel_pairs(deg)[:2]]
        for f, g in pairs:
            report = cx.is_cocycle(f, g, deg)
            got = [(w["component"], w["at"], w["value"])
                   for w in report.violations]
            assert got == reference_witnesses(ctx, f, g, deg)
            assert report.ok == (not got)
            checked += bool(got)
    assert checked >= 6


def test_is_coboundary_refuses_unconstrained_targets(cx_l2_adj):
    cx = cx_l2_adj
    g = zero_cochain(cx.n, cx.m, 1)
    bad = zero_cochain(cx.n, cx.m, 3)
    bad[(0, 0, 0)] = (1, 0)  # d(0) = 0, and this is not 0
    for f in (bad, {(0, 0, 0): (1, 0)}):
        assert cx.is_coboundary(f, g, 3) == (False, None)
        assert cx.is_coboundary(f, None, 3) == (False, None)
    assert cx.is_coboundary({(0, 1, 0): (1,)}, g, 3) == (False, None)
    # a sparse coboundary gets the preimage of its dense form
    gamma = {(0,): (1, 2), (1,): (0, -1)}
    df, dg = cx.d(gamma, None, 1)
    sparse = ({t: v for t, v in df.items() if any(v)},
              {t: v for t, v in dg.items() if any(v)})
    found, pair = cx.is_coboundary(*sparse, 3)
    assert found and (found, pair) == cx.is_coboundary(df, dg, 3)
    assert cx.pair_flatten(*cx.d(pair[0], None, 1), 3) \
        == cx.pair_flatten(df, dg, 3)


def test_extensions_differing_by_unconstrained_psi_are_not_equivalent(
        cx_l2_adj):
    cx = cx_l2_adj
    f, _ = cx.kernel_pairs(3)[0]
    chi = ((0, 0), (0, 0))
    odd = dict(f)
    odd[(0, 0, 0)] = (1, 0)
    ext1, ext2 = (AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv, psi, chi)
                  for psi in (f, odd))
    report = extensions_equivalent(ext1, ext2)
    assert report.data == {"equivalent": False, "gamma": None}
    assert extensions_equivalent(ext1, ext1).data["equivalent"] is True


# ---------------------------------------------------------------------------
# dimensions and cocycle/coboundary structure

def test_dimensions_l2_adjoint(cx_l2_adj):
    cx = cx_l2_adj
    r1 = cx.cohomology_dim(1)
    assert r1 == {"degree": 1, "dim_cochains": 4, "dim_cocycles": 1,
                  "dim_coboundaries": 0, "dim_H": 1}
    r3 = cx.cohomology_dim(3)
    assert r3 == {"degree": 3, "dim_cochains": 8, "dim_cocycles": 7,
                  "dim_coboundaries": 3, "dim_H": 4}
    r5 = cx.cohomology_dim(5)
    assert r5 == {"degree": 5, "dim_cochains": 20, "dim_cocycles": 8,
                  "dim_coboundaries": 1, "dim_H": 7}


def test_dimensions_other_contexts(cx_l2_triv, cx_dim1, cx_ab2_triv):
    assert [cx_l2_triv.cohomology_dim(d)["dim_H"] for d in (1, 3, 5)] \
        == [0, 0, 0]
    assert [cx_dim1.cohomology_dim(d)["dim_H"] for d in (1, 3)] == [0, 0]
    assert cx_ab2_triv.cohomology_dim(1)["dim_H"] == 2


def sympy_sparse_rank(rows, ncols):
    """Rank of sparse ``{column: value}`` rows by sympy's sparse matrices."""
    rep = {r: {c: QQ.convert(x) for c, x in row.items()}
           for r, row in enumerate(rows) if row}
    return DomainMatrix.from_rep(SDM(rep, (len(rows), ncols), QQ)).rank()


def test_degree_five_dimensions_larger_systems(cx_solv3_adj):
    """Degree-5 pins on solv3 adjoint and on l2+l2 adjoint with N = Nv = I.

    The ranks are cross-checked with sympy's sparse elimination on the
    same matrices.  The assembly itself is checked against the oracle,
    column by column, only in ``test_d_matrix_matches_oracle``: one
    ``ref.Ctx.d`` column of l2+l2 in degree 5 takes about 5 s, so its
    1,360 columns do not fit in this suite.
    """
    system = direct_sum(l2(), l2())
    cx_l2l2 = Complex(system, adjoint_rep(system), ident(4), ident(4))
    for cx, want in ((cx_solv3_adj, (240, 41, 16, 25)),
                     (cx_l2l2, (1360, 180, 66, 114))):
        r5 = cx.cohomology_dim(5)
        assert (r5["dim_cochains"], r5["dim_cocycles"],
                r5["dim_coboundaries"], r5["dim_H"]) == want
        for deg in (3, 5):
            assert cx.d_rank(deg) == sympy_sparse_rank(cx._d_matrix(deg),
                                                       cx._domain_dim(deg))


def test_dimensions_scalar_fiber_operator():
    from nlts import adjoint_rep, l2
    lam5 = tuple(tuple(5 if i == j else 0 for j in range(2)) for i in range(2))
    cx = Complex(l2(), adjoint_rep(l2()), ((0, 1), (0, 1)), lam5)
    assert cx.cohomology_dim(1)["dim_H"] == 0
    assert cx.cohomology_dim(3)["dim_H"] == 0


def test_kernel_pairs_are_cocycles(cx_l2_adj):
    cx = cx_l2_adj
    for deg, want in ((1, 1), (3, 7), (5, 8)):
        pairs = cx.kernel_pairs(deg)
        assert len(pairs) == want
        for f, g in pairs:
            assert cx.is_cocycle(f, g if deg > 1 else None, deg).ok


def test_differential_outputs_are_coboundaries(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(83)
    for _ in range(5):
        f1 = lib_rand(cx, rng, 1)
        df, dg = cx.d(f1, None, 1)
        found, pre = cx.is_coboundary(df, dg, 3)
        assert found
        pf, pg = cx.d(pre[0], pre[1], 1)
        assert pf == df and pg == dg
        f3, g1 = lib_rand(cx, rng, 3), lib_rand(cx, rng, 1)
        ef, eg = cx.d(f3, g1, 3)
        found, pre = cx.is_coboundary(ef, eg, 5)
        assert found
        pf, pg = cx.d(pre[0], pre[1], 3)
        assert pf == ef and pg == eg


def test_kernel_element_outside_image(cx_l2_adj):
    cx = cx_l2_adj
    # dim H^3 = 4 > 0, so some kernel pair is not a coboundary
    outside = [pair for pair in cx.kernel_pairs(3)
               if not cx.is_coboundary(pair[0], pair[1], 3)[0]]
    assert len(outside) >= 4


def test_is_cocycle_negative(cx_l2_adj):
    cx = cx_l2_adj
    rng = random.Random(89)
    for _ in range(20):
        f3, g1 = lib_rand(cx, rng, 3), lib_rand(cx, rng, 1)
        df, dg = cx.d(f3, g1, 3)
        report = cx.is_cocycle(f3, g1, 3)
        assert report.ok == (cochain_iszero(df) and cochain_iszero(dg))
        if not report.ok:
            comps = {item["component"] for item in report.violations}
            assert comps <= {"bracket", "operator"}


def test_is_cocycle_validates_shape(cx_l2_adj):
    cx = cx_l2_adj
    bad = zero_cochain(2, 2, 3)
    bad[(0, 0, 1)] = (1, 0)  # not antisymmetric
    report = cx.is_cocycle(bad, zero_cochain(2, 2, 1), 3)
    assert not report.ok


def test_degree_one_kernel_matches_h1(cx_l2_adj, cx_l2_triv):
    assert len(cx_l2_adj.kernel_pairs(1)) == 1
    assert len(cx_l2_triv.kernel_pairs(1)) == 0


def test_degree_seven_is_refused_where_matrices_are_built(cx_l2_adj):
    cx = cx_l2_adj
    f7 = zero_cochain(cx.n, cx.m, 7)
    assert cochain_iszero(cx.delta(f7, 7)) and cochain_iszero(cx.partial(f7, 7))
    for call, message in (
            (lambda: cx.d(f7, None, 7), "acts in degrees 1, 3, 5"),
            (lambda: cx.cohomology_dim(7), "computed in degrees 1, 3, 5"),
            (lambda: cx.is_coboundary(f7, None, 7), "arrive in degrees 3 and 5"),
            (lambda: cx.delta(zero_cochain(cx.n, cx.m, 2), 2), "odd degrees")):
        with pytest.raises(ValueError, match=message):
            call()


if __name__ == "__main__":
    W3_PIN.parent.mkdir(exist_ok=True)
    W3_PIN.write_text("{\n" + ",\n".join(
        "%s: %s" % (json.dumps(n), json.dumps(rec, separators=(",", ":")))
        for n, rec in w3_records().items()) + "\n}\n")
