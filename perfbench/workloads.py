"""The four seeded workloads: cohomology, search, extensions, cli.

``build(name, nlts, rng, variants, workdir)`` returns ``variants`` rounds.
A round is a list of jobs with the same kinds in the same order; only the
seeded inputs differ between rounds (random cochain combinations, random
operators, and a dense unimodular change of basis of the stock systems).  Each
job calls the public API through the ``nlts`` module at call time, so a
tracer installed later sees every call.  ``check`` runs outside the timed
region on the job's return value.

``build`` only makes inputs and contexts: it is what ``setup_s`` times.
Expected values that need the slow independent checks in ``oracle.py``
are worked out by the checks themselves, once, on first use (``once``);
the one the inputs depend on, the hit list of the rare-hit grid, is the
same for every seed and is worked out by ``precompute`` before set-up.
"""

import contextlib
import importlib
import io
import itertools
import json
import os
from fractions import Fraction

import oracle

# Coefficients of random combinations: a seeded order of a fixed multiset,
# so every seed gives combinations of the same density and number size.
COEFFS = (1, -1, 2, Fraction(1, 2), -2, Fraction(-2, 3), 3)
N01 = ((0, 1), (0, 1))
SOLV3_N = ((0, 0, 0), (0, 0, 0), (0, 1, 0))
SL2_N = ((1, 1, 0), (0, 1, 0), (0, 0, 2))

# Stock contexts: system, representation kind, N, Nv (None: Nv = N).
STOCK = {
    "l2_adj": (lambda nlts: nlts.l2(), "adjoint", N01, None),
    "l2_triv": (lambda nlts: nlts.l2(), "trivial", N01, ((5,),)),
    "solv3_adj": (lambda nlts: nlts.lts_from_lie_algebra(nlts.solv3_lie()),
                  "adjoint", SOLV3_N, None),
    "sl2_adj": (lambda nlts: nlts.lts_from_lie_algebra(nlts.sl2_lie()),
                "adjoint", SL2_N, None),
    "sl2_triv": (lambda nlts: nlts.lts_from_lie_algebra(nlts.sl2_lie()),
                 "trivial", SL2_N, ((2,),)),
    "l2l2_adj": (lambda nlts: nlts.direct_sum(nlts.l2(), nlts.l2()),
                 "adjoint", oracle.identity(4), None),
}

# (context, degree) -> (dim_cochains, dim_cocycles, dim_coboundaries, dim_H).
# Isomorphism invariants, so they hold after any change of basis.  l2_adj
# H^1 = 1 and H^3 = 4 are the paper's values; the rest were cross-checked
# against the sympy oracle in tests/reference.py (see test_perfbench.py).
PINNED = {
    ("l2_adj", 1): (4, 1, 0, 1),
    ("l2_adj", 3): (8, 7, 3, 4),
    ("l2_adj", 5): (20, 8, 1, 7),
    ("l2_triv", 5): (10, 2, 2, 0),
    ("solv3_adj", 1): (9, 2, 0, 2),
    ("solv3_adj", 3): (33, 17, 7, 10),
    ("sl2_adj", 1): (9, 0, 0, 0),
    ("sl2_adj", 3): (33, 15, 9, 6),
    ("sl2_triv", 1): (3, 0, 0, 0),
    ("sl2_triv", 3): (11, 4, 3, 1),
    ("l2l2_adj", 1): (16, 4, 0, 4),
}


def once(fn):
    """A memoised thunk: fn() is called on first use only."""
    cell = []

    def get():
        if not cell:
            cell.append(fn())
        return cell[0]
    return get


class Job:
    """One public-API call; ``known_defect`` marks a documented failure."""

    __slots__ = ("kind", "call", "check", "known_defect")

    def __init__(self, kind, call, check, known_defect=False):
        self.kind = kind
        self.call = call
        self.check = check
        self.known_defect = known_defect


def context(nlts, name, rng=None):
    """(system, rep, N, Nv) of a stock context, in a seeded basis if rng."""
    make, kind, N, Nv = STOCK[name]
    system = make(nlts)
    if rng is not None:
        n = system.dim
        P, Pinv = oracle.dense_basis(rng, n)
        system = nlts.LieTripleSystem(
            n, oracle.transform_table(system.table, n, P, Pinv))
        N = oracle.conjugate(N, P, Pinv)
    if kind == "adjoint":
        return system, nlts.adjoint_rep(system), N, N
    return system, nlts.trivial_rep(system, 1), N, Nv


def rand_combo(rng, pairs):
    """A random exact combination of (f, g) pairs of one degree."""
    from nlts.cohomology import cochain_add, cochain_scale
    coeffs = [COEFFS[i % len(COEFFS)] for i in range(len(pairs))]
    rng.shuffle(coeffs)
    f, g = pairs[0]
    f = cochain_scale(0, f)
    g = None if g is None else cochain_scale(0, g)
    for c, (pf, pg) in zip(coeffs, pairs):
        f = cochain_add(f, cochain_scale(c, pf))
        if g is not None:
            g = cochain_add(g, cochain_scale(c, pg))
    return f, g


def rand_cochain(rng, cx, degree):
    basis = cx.cochain_basis(degree)
    return rand_combo(rng, [(b, None) for b in basis])[0]


def non_cocycle(rng, cx):
    """A degree-3 domain basis pair (f, g) that d does not kill."""
    from nlts.cohomology import zero_cochain
    n, m = cx.n, cx.m
    pairs = ([(b, zero_cochain(n, m, 1)) for b in cx.cochain_basis(3)]
             + [(zero_cochain(n, m, 3), b) for b in cx.cochain_basis(1)])
    rng.shuffle(pairs)
    for f, g in pairs:
        if any(map(any, itertools.chain(*(h.values() for h in cx.d(f, g, 3))))):
            return f, g
    raise RuntimeError("every degree-3 basis pair is a cocycle")


def perturb(pair, bad, c):
    from nlts.cohomology import cochain_add, cochain_scale
    return (cochain_add(pair[0], cochain_scale(c, bad[0])),
            cochain_add(pair[1], cochain_scale(c, bad[1])))


def coboundary(cx, gamma):
    """d(gamma) for a degree-1 cochain: a degree-3 cocycle and coboundary."""
    return cx.d(gamma, None, 1)


def genuine_classes(cx, kernel):
    """Kernel pairs of degree 3 outside the image of d, by exact rank."""
    image = [cx.pair_flatten(*cx.d(b, None, 1), 3) for b in cx.cochain_basis(1)]
    base = oracle.rank(image)
    return [(f, g) for f, g in kernel
            if oracle.rank(image + [cx.pair_flatten(f, g, 3)]) > base]


# ---------------------------------------------------------------------------
# cohomology

def _dims_check(name, degree):
    want = PINNED[(name, degree)]

    def check(out):
        return (out["dim_cochains"], out["dim_cocycles"],
                out["dim_coboundaries"], out["dim_H"]) == want
    return check


def cohomology_round(nlts, rng):
    ctx = {name: context(nlts, name, rng) for name in STOCK}
    jobs = []
    for name, degree in PINNED:
        jobs.append(Job("cohomology_dim", lambda c=ctx[name], d=degree:
                        nlts.Complex(*c).cohomology_dim(d),
                        _dims_check(name, degree)))

    def kernel_check(name):
        want = PINNED[(name, 3)][1]
        cx = once(lambda: nlts.Complex(*ctx[name]))

        def check(out):
            return len(out) == want and all(cx().is_cocycle(f, g, 3).ok
                                            for f, g in out)
        return check
    for name in ("l2_adj", "sl2_triv"):
        jobs.append(Job("kernel_pairs", lambda c=ctx[name]:
                        nlts.Complex(*c).kernel_pairs(3),
                        kernel_check(name)))

    l2 = nlts.Complex(*ctx["l2_adj"])
    kernel = l2.kernel_pairs(3)
    cocycle = rand_combo(rng, kernel)
    bad = perturb(cocycle, non_cocycle(rng, l2), rng.choice((1, -1, 2)))
    genuine = genuine_classes(l2, kernel)[0]
    solv = nlts.Complex(*ctx["solv3_adj"])
    solv_cob = coboundary(solv, rand_cochain(rng, solv, 1))
    solv_bad = perturb(solv_cob, non_cocycle(rng, solv), 1)
    l2_cob = coboundary(l2, rand_cochain(rng, l2, 1))
    top = l2.d(rand_cochain(rng, l2, 3), rand_cochain(rng, l2, 1), 3)
    sl2 = nlts.Complex(*ctx["sl2_triv"])
    sl2_cob = coboundary(sl2, rand_cochain(rng, sl2, 1))
    sl2_bad = perturb(sl2_cob, non_cocycle(rng, sl2), 1)
    for c, pair, degree, want in (("l2_adj", cocycle, 3, True),
                                  ("l2_adj", bad, 3, False),
                                  ("solv3_adj", solv_cob, 3, True),
                                  ("solv3_adj", solv_bad, 3, False),
                                  ("sl2_triv", sl2_cob, 3, True),
                                  ("sl2_triv", sl2_bad, 3, False),
                                  ("l2_adj", top, 5, True)):
        jobs.append(Job("is_cocycle", lambda c=ctx[c], p=pair, d=degree:
                        nlts.Complex(*c).is_cocycle(p[0], p[1], d),
                        lambda out, want=want: out.ok is want))

    def preimage_check(cx, target, degree, want):
        def check(out):
            found, pair = out
            if not want:
                return found is False and pair is None
            if found is not True:
                return False
            f, g = pair
            got = cx.d(f, g if degree > 3 else None, degree - 2)
            return (cx.pair_flatten(*got, degree)
                    == cx.pair_flatten(*target, degree))
        return check
    for c, cx, target, degree, want in (
            ("l2_adj", l2, l2_cob, 3, True),
            ("l2_adj", l2, genuine, 3, False),
            ("solv3_adj", solv, solv_cob, 3, True),
            ("sl2_triv", sl2, sl2_cob, 3, True),
            ("l2_adj", l2, top, 5, True)):
        jobs.append(Job("is_coboundary", lambda c=ctx[c], t=target, d=degree:
                        nlts.Complex(*c).is_coboundary(t[0], t[1], d),
                        preimage_check(cx, target, degree, want)))
    return jobs


# ---------------------------------------------------------------------------
# search

ALL_HIT_GRIDS = (("l2_adj", (-2, -1, 0, 1, 2)),
                 ("solv3_adj", (0, 1)),
                 ("sl2_adj", (0, 1)))
SAMPLED_HITS = 8
RARE_VALUES = (0, 1)
_RARE_HITS = []


def rare_system(nlts):
    return nlts.direct_sum(nlts.l2(), nlts.abelian(1))


def grid(n, values):
    return [tuple(tuple(e[r * n:(r + 1) * n]) for r in range(n))
            for e in itertools.product(values, repeat=n * n)]


def rare_hits(nlts):
    """The Nijenhuis operators of the rare-hit grid, by the oracle, once."""
    if not _RARE_HITS:
        system = rare_system(nlts)
        table, n = dict(system.table), system.dim
        _RARE_HITS.append([N for N in grid(n, RARE_VALUES)
                           if oracle.nijenhuis_ok(table, n, N)])
    return _RARE_HITS[0]


def _square_shape(N):
    n = len(N)
    N2 = oracle.matmul(N, N)
    I = oracle.identity(n)
    if not any(map(any, N)):
        return "zero"
    if not any(map(any, N2)):
        return "square-zero"
    if N2 == N:
        return "idempotent"
    if N2 == I:
        return "involution"
    if N2 == tuple(tuple(-x for x in row) for row in I):
        return "anti-involution"
    return "generic"


def _deformed_table(table, n, N):
    """[x,y,z]_N on basis triples, straight from the defining formula."""
    e = oracle.identity(n)
    out = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = e[i], e[j], e[k]
        Nx, Ny, Nz = (oracle.matvec(N, v) for v in (x, y, z))
        br = lambda a, b, c: oracle.bracket(table, n, a, b, c)
        two = [sum(t) for t in zip(br(Nx, Ny, z), br(x, Ny, Nz), br(Nx, y, Nz))]
        one = [sum(t) for t in zip(br(Nx, y, z), br(x, Ny, z), br(x, y, Nz))]
        inner = [a - b for a, b in zip(one, oracle.matvec(N, br(x, y, z)))]
        v = tuple(a - b for a, b in zip(two, oracle.matvec(N, inner)))
        if any(v):
            out[(i, j, k)] = v
    return out


def stratified(rng, hits, count):
    """count hits at evenly spaced ranks of their number of nonzero entries.

    Ties are broken at random, so the seed picks the matrices while the
    spread of their density, and so of the work they cause, stays fixed.
    """
    keyed = sorted((sum(x != 0 for row in N for x in row), rng.random(), N)
                   for N in hits)
    return [keyed[(2 * j + 1) * len(keyed) // (2 * count)][2]
            for j in range(count)]


def search_round(nlts, rng):
    jobs = []
    grids = [(context(nlts, name, rng)[0], values, True)
             for name, values in ALL_HIT_GRIDS]
    grids.append((rare_system(nlts), RARE_VALUES, False))
    post = []
    for system, values, all_hit in grids:
        n = system.dim
        # On the all-hit systems every matrix is Nijenhuis, so the answer is
        # the whole grid; the sampled hits are re-verified independently.
        hits = grid(n, values) if all_hit else rare_hits(nlts)
        sample = stratified(rng, hits, SAMPLED_HITS)
        table = dict(system.table)

        def check(out, hits=hits, sample=sample, table=table, n=n):
            return ([tuple(map(tuple, N)) for N in out] == hits
                    and all(oracle.nijenhuis_ok(table, n, N) for N in sample))
        jobs.append(Job("grid_search", lambda s=system, v=values:
                        nlts.grid_search_nijenhuis(s, v), check))
        post.extend((system, table, N) for N in sample)
    for system, table, N in post:
        shape = _square_shape(N)

        def classify_check(out, shape=shape):
            data = out.data
            return (out.ok and data["shape"] == shape and data["nijenhuis_ok"]
                    and data.get("equivalence_holds", True))
        jobs.append(Job("classify_by_square", lambda s=system, N=N:
                        nlts.classify_by_square(s, N), classify_check))
        deformed = once(lambda t=table, n=system.dim, N=N: _deformed_table(t, n, N))
        jobs.append(Job("induced_bracket", lambda s=system, N=N:
                        nlts.induced_bracket(s, N),
                        lambda out, d=deformed: out[1].ok and out[0].table == d()))
    pair = context(nlts, "l2l2_adj", rng)[0]
    table = dict(pair.table)
    for _ in range(SAMPLED_HITS):
        N = tuple(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(4))
                  for _ in range(4))
        want = once(lambda N=N: oracle.nijenhuis_ok(table, 4, N))
        jobs.append(Job("is_nijenhuis", lambda N=N: nlts.is_nijenhuis(pair, N),
                        lambda out, want=want: out.ok is want()))
    return jobs


# ---------------------------------------------------------------------------
# extensions

EXT_CANDIDATES = (("l2_adj", 6), ("l2_triv", 2), ("solv3_adj", 2))


def extensions_round(nlts, rng, kernels):
    from nlts.cohomology import cochain_add
    from nlts.extensions import cochain_to_chi
    jobs = []
    cxs = {name: nlts.Complex(*context(nlts, name)) for name, _ in EXT_CANDIDATES}
    for name, count in EXT_CANDIDATES:
        cx = cxs[name]
        bad = non_cocycle(rng, cx)
        for idx in range(count):
            pair = rand_combo(rng, kernels[name])
            want = idx % 2 == 0
            if not want:
                pair = perturb(pair, bad, rng.choice((1, -1, 2)))
            chi = cochain_to_chi(pair[1], cx.n, cx.m)
            built = {}

            def build(cx=cx, f=pair[0], chi=chi, built=built):
                ext, report = nlts.build_extension(cx, f, chi)
                built["ext"] = ext
                return ext, report

            def build_check(out, want=want):
                report = out[1]
                return report.ok is want and report.data["cocycle_ok"] is want
            jobs.append(Job("build_extension", build, build_check))
            jobs.append(Job("validate_extension",
                            lambda built=built: nlts.validate_extension(built["ext"]),
                            lambda out, want=want: out.ok is want))

    def ext_of(cx, f, g):
        return nlts.AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv, f,
                                     cochain_to_chi(g, cx.n, cx.m))

    def equivalent_check(ext1, ext2):
        def check(out):
            data = out.data
            if not (out.ok and data["equivalent"] and data["isomorphism_verified"]):
                return False
            n, m = ext1.n, ext1.m
            eta = tuple(tuple(int(r == c) for c in range(n)) + (0,) * m
                        for r in range(n))
            eta += tuple(tuple(data["gamma"][a]) + tuple(int(a == c) for c in range(m))
                         for a in range(m))
            return oracle.is_isomorphism(eta, ext1.total.table, ext2.total.table,
                                         ext1.Nhat, ext2.Nhat, n + m)
        return check

    for name in ("l2_adj", "l2_adj", "l2_triv", "solv3_adj"):
        cx = cxs[name]
        f, g = rand_combo(rng, kernels[name])
        df, dg = coboundary(cx, rand_cochain(rng, cx, 1))
        ext1 = ext_of(cx, f, g)
        ext2 = ext_of(cx, cochain_add(f, df), cochain_add(g, dg))
        jobs.append(Job("extensions_equivalent", lambda a=ext1, b=ext2:
                        nlts.extensions_equivalent(a, b),
                        equivalent_check(ext1, ext2)))
    cx = cxs["l2_adj"]
    genuine = rng.choice(genuine_classes(cx, kernels["l2_adj"]))
    ext = ext_of(cx, *genuine)
    split = ext_of(cx, *zero_pair(cx))
    jobs.append(Job("extensions_equivalent", lambda: nlts.extensions_equivalent(ext, split),
                    lambda out: out.data["equivalent"] is False
                    and out.data["gamma"] is None))
    return jobs


def zero_pair(cx):
    from nlts.cohomology import zero_cochain
    return zero_cochain(cx.n, cx.m, 3), zero_cochain(cx.n, cx.m, 1)


# ---------------------------------------------------------------------------
# cli

def cli_call(nlts, argv):
    """nlts.cli.run in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = nlts.cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def cli_round(nlts, rng, corpus, tag):
    from nlts import jsonio
    from nlts.extensions import cochain_to_chi
    from nlts.cohomology import cochain_add
    C = lambda name: os.path.join(corpus, name)
    X = lambda name: os.path.join(corpus, "%s-%s" % (tag, name))
    cx = nlts.Complex(*context(nlts, "l2_adj"))
    kernel = cx.kernel_pairs(3)
    good = rand_combo(rng, kernel)
    bad = perturb(good, non_cocycle(rng, cx), rng.choice((1, -1, 2)))
    _write(X("good.json"), jsonio.pair_to_obj(good[0], good[1], 3))
    _write(X("bad.json"), jsonio.pair_to_obj(bad[0], bad[1], 3))
    ext = lambda f, g: nlts.AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv, f,
                                             cochain_to_chi(g, cx.n, cx.m))
    df, dg = coboundary(cx, rand_cochain(rng, cx, 1))
    _write(X("ext1.json"), jsonio.extension_to_obj(ext(*good)))
    _write(X("ext2.json"), jsonio.extension_to_obj(
        ext(cochain_add(good[0], df), cochain_add(good[1], dg))))
    genuine = rng.choice(genuine_classes(cx, kernel))
    _write(X("genuine.json"), jsonio.extension_to_obj(ext(*genuine)))
    _write(X("split.json"), jsonio.extension_to_obj(ext(*zero_pair(cx))))
    triv = nlts.Complex(*context(nlts, "l2_triv"))
    _write(X("other.json"), jsonio.extension_to_obj(nlts.AbelianExtension(
        triv.system, triv.rep, triv.N, triv.Nv, zero_pair(triv)[0],
        ((0, 0),))))
    top = cx.d(rand_cochain(rng, cx, 3), rand_cochain(rng, cx, 1), 3)
    _write(X("bundle.json"), jsonio.bundle_to_obj(cx, top[0], top[1]))
    pair_sys = nlts.direct_sum(nlts.l2(), nlts.l2())
    N = tuple(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(4))
              for _ in range(4))
    _write(X("randN.json"), jsonio.operator_to_obj(N))
    rand_exit = once(lambda: 0 if oracle.nijenhuis_ok(dict(pair_sys.table), 4, N)
                     else 1)
    _write(X("garbled.json"), "{oops")
    _write(X("wrongdim.json"), jsonio.operator_to_obj(oracle.identity(3)))
    _write(X("divzero.json"), {"dim": 2, "matrix": [["1/0", "0"], ["0", "1"]]})
    sys2 = json.load(open(C("strict2sys.json")))
    _write(X("nostructure.json"), {k: v for k, v in sys2.items()
                                   if k not in ("N0", "N1", "N2")})

    def dims(degree):
        want = PINNED[("l2_adj", degree)][3]
        return lambda out: json.loads(out[1])["dim_H"] == want

    # (argv, expected exit, extra check on (code, stdout, stderr) or None).
    L2, N01f, ADJ = C("L2.json"), C("N01.json"), C("adjL2.json")
    verify = [
        (["check-lts", L2], 0), (["check-lts", C("sl2lts.json")], 0),
        (["check-lts", C("solv3lts.json")], 0), (["check-lts", C("l2pair.json")], 0),
        (["check-nijenhuis", L2, N01f], 0),
        (["check-nijenhuis", C("solv3lts.json"), C("solv3N.json")], 0),
        (["check-nijenhuis", C("l2pair.json"), C("l2pairN.json")], 1),
        (["check-nijenhuis", C("l2pair.json"), X("randN.json")], rand_exit),
        (["check-rb", L2, C("rb0N.json")], 0),
        (["check-mrb", L2, C("projN.json")], 0),
        (["check-mrb", L2, N01f, "--weight", "-1"], 1),
        (["check-rep", L2, ADJ], 0),
        (["check-rep", C("solv3lts.json"), C("adjsolv3.json")], 0),
        (["check-nrep", L2, N01f, ADJ], 0),
        (["check-nrep", C("solv3lts.json"), C("solv3N.json"), C("adjsolv3.json")], 0),
        (["cocycle-check", L2, N01f, ADJ, C("cocycle3_L2.json")], 0),
        (["cocycle-check", L2, N01f, ADJ, X("good.json")], 0),
        (["cocycle-check", L2, N01f, ADJ, X("bad.json")], 1),
        (["equivalent", X("ext1.json"), X("ext2.json")], 0),
        (["equivalent", X("genuine.json"), X("split.json")], 1),
        (["check-2sys", C("skel2sys.json")], 0),
        (["check-2sys", C("strict2sys.json")], 0),
        (["check-n2sys", C("skel2sys.json")], 0),
        (["check-xmod", C("xmodL2.json")], 0),
        (["check-xmod", C("xmod0.json")], 0),
    ]
    analyse = [
        (["induced-bracket", L2, N01f], 0),
        (["search", L2, "--grid=-1,0,1"], 0),
        (["induce-rep", L2, N01f, ADJ], 0),
        (["extend", L2, N01f, ADJ, X("good.json")], 0),
        (["extend", L2, N01f, ADJ, X("bad.json")], 1),
        (["extract", X("ext1.json")], 0),
        (["skeletal-to-cocycle", C("skel2sys.json")], 0),
        (["cocycle-to-skeletal", X("bundle.json")], 0),
        (["to-xmod", C("strict2sys.json")], 0),
        (["from-xmod", C("xmodL2.json")], 0),
    ]
    cohomology = [(["cohomology", L2, N01f, ADJ, "--degree", str(d)], 0, d)
                  for d in (1, 3, 5)]
    hostile = [
        (["check-lts", X("absent.json")], 2),
        (["check-lts", X("garbled.json")], 2),
        (["check-nijenhuis", L2, X("wrongdim.json")], 2),
        (["check-nijenhuis", L2, X("divzero.json")], 2),
        (["search", C("l2pair.json"), "--grid=-1,0,1", "--budget", "100"], 2),
        (["search", L2, "--grid", "a,b"], 2),
        (["check-n2sys", X("nostructure.json")], 2),
        (["equivalent", X("ext1.json"), X("other.json")], 2),
        (["cohomology", L2, N01f, ADJ, "--degree", "4"], 2),
    ]

    def exit_check(want, parse, extra=None):
        def check(out):
            code, stdout, _ = out
            if code != (want() if callable(want) else want):
                return False
            if parse and code in (0, 1):
                json.loads(stdout)
            return extra is None or extra(out)
        return check

    jobs = []
    for mode in ([], ["--json"]):
        for argv, want in verify:
            ok_line = (lambda out: out[0] != 0 or out[1].startswith("ok")) \
                if not mode and argv[0] != "equivalent" else None
            jobs.append(Job("cli.verify", lambda a=mode + argv: cli_call(nlts, a),
                            exit_check(want, bool(mode), ok_line)))
        for argv, want, degree in cohomology:
            jobs.append(Job("cli.cohomology", lambda a=mode + argv: cli_call(nlts, a),
                            exit_check(want, bool(mode),
                                       dims(degree) if mode else None)))
    for argv, want in analyse:
        jobs.append(Job("cli.analyse", lambda a=["--json"] + argv: cli_call(nlts, a),
                        exit_check(want, True)))
    for argv, want in hostile:
        jobs.append(Job("cli.hostile", lambda a=argv: cli_call(nlts, a),
                        exit_check(want, False),
                        known_defect="divzero" in argv[-1]))
    return jobs


# ---------------------------------------------------------------------------

def precompute(name, nlts):
    """Seed-independent expected values the inputs depend on."""
    if name == "search":
        rare_hits(nlts)


def build(name, nlts, rng, variants, workdir):
    if name == "cohomology":
        return [cohomology_round(nlts, rng) for _ in range(variants)]
    if name == "search":
        return [search_round(nlts, rng) for _ in range(variants)]
    if name == "extensions":
        kernels = {c: nlts.Complex(*context(nlts, c)).kernel_pairs(3)
                   for c, _ in EXT_CANDIDATES}
        return [extensions_round(nlts, rng, kernels) for _ in range(variants)]
    if name == "cli":
        cli = importlib.import_module("nlts.cli")
        corpus = os.path.join(workdir, "corpus")
        cli.emit_corpus(corpus)
        return [cli_round(nlts, rng, corpus, "v%d" % v) for v in range(variants)]
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("cohomology", "search", "extensions", "cli")
