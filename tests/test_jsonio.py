"""Round trips and input validation for the JSON payloads."""

import copy
import functools
import json
import os
import sys
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from nlts import (
    AbelianExtension,
    Complex,
    CrossedModule,
    LieTripleSystem,
    Representation,
    adjoint_rep,
    cocycle_to_skeletal,
    ident,
    l2,
    zero_cochain,
    zeros,
)
from nlts.cli import emit_corpus
from nlts.jsonio import (
    InputError,
    bundle_from_obj,
    bundle_to_obj,
    cochain_from_obj,
    cochain_to_obj,
    dumps,
    extension_from_obj,
    extension_to_obj,
    load_json,
    operator_from_obj,
    operator_to_obj,
    pair_from_obj,
    pair_to_obj,
    rep_from_obj,
    rep_to_obj,
    system_from_obj,
    system_to_obj,
    twosys_from_obj,
    twosys_to_obj,
    xmod_from_obj,
    xmod_to_obj,
)

N01 = ((0, 1), (0, 1))


def test_system_round_trip():
    system = l2()
    obj = system_to_obj(system)
    back = system_from_obj(obj)
    assert back.dim == system.dim
    assert back.table == system.table
    assert system_to_obj(back) == obj


def test_operator_round_trip():
    obj = operator_to_obj(N01)
    M, weight = operator_from_obj(obj)
    assert M == N01 and weight is None
    obj2 = operator_to_obj(((0, 1), (0, 0)), weight=Fraction(-1, 2))
    M2, w2 = operator_from_obj(obj2)
    assert M2 == ((0, 1), (0, 0)) and w2 == Fraction(-1, 2)
    assert operator_to_obj(M2, w2) == obj2


def test_operator_dim_checks():
    with pytest.raises(InputError):
        operator_from_obj({"dim": 2, "matrix": [[1, 0]]})
    with pytest.raises(InputError):
        operator_from_obj({"dim": 2, "matrix": [[1, 0], [0, 1]]}, dim=3)
    # dim may be inherited from context
    M, _ = operator_from_obj({"matrix": [[1, 0], [0, 1]]}, dim=2)
    assert M == ident(2)


def test_rep_round_trip():
    system = l2()
    rep = adjoint_rep(system)
    obj = rep_to_obj(rep, N01)
    back, Nv = rep_from_obj(obj, system)
    assert back.vdim == 2 and Nv == N01
    assert back.theta == rep.theta
    assert rep_to_obj(back, Nv) == obj


def test_cochain_round_trip_with_fractions():
    f = zero_cochain(2, 2, 1)
    f[(0,)] = (Fraction(1, 2), 0)
    f[(1,)] = (-3, Fraction(7, 3))
    obj = cochain_to_obj(f, 1)
    assert obj["entries"][0]["out"] == {"0": "1/2"}
    back, degree = cochain_from_obj(obj, 2, 2)
    assert degree == 1 and back == f
    assert cochain_to_obj(back, degree) == obj


def test_cochain_accepts_plain_integers():
    obj = {"degree": 1, "entries": [{"args": [1], "out": {"0": 4}}]}
    f, _ = cochain_from_obj(obj, 2, 1)
    assert f[(1,)] == (4,)


def test_cochain_rejects_bad_payloads():
    with pytest.raises(InputError):
        cochain_from_obj({"degree": 2, "entries": []}, 2, 1)
    with pytest.raises(InputError):
        cochain_from_obj({"degree": 1, "entries": [{"args": [5],
                                                    "out": {}}]}, 2, 1)
    with pytest.raises(InputError):
        cochain_from_obj({"degree": 1, "entries": [{"args": [0],
                                                    "out": {"0": "x"}}]}, 2, 1)
    with pytest.raises(InputError):
        cochain_from_obj({"degree": 3, "entries": []}, 2, 1, degree=1)


def test_pair_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    f, g = cx.kernel_pairs(5)[1]
    obj = pair_to_obj(f, g, 5)
    f2, g2, d = pair_from_obj(obj, cx.n, cx.m)
    assert d == 5 and f2 == f and g2 == g
    assert pair_to_obj(f2, g2, d) == obj
    # degree-1 pairs carry no companion
    h = zero_cochain(2, 2, 1)
    obj1 = pair_to_obj(h, None, 1)
    h2, g1, d1 = pair_from_obj(obj1, 2, 2)
    assert d1 == 1 and h2 == h and g1 is None


def test_extension_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    psi = cx.cochain_basis(3)[0]
    chi = ((1, 0), (Fraction(2, 5), -1))
    ext = AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv, psi, chi)
    obj = extension_to_obj(ext)
    back = extension_from_obj(obj)
    assert back.base.table == ext.base.table
    assert back.N == ext.N and back.Nv == ext.Nv
    assert back.rep.theta == ext.rep.theta
    assert back.psi == ext.psi and back.chi == ext.chi
    assert extension_to_obj(back) == obj


def test_extension_requires_operator():
    obj = extension_to_obj(AbelianExtension(
        l2(), adjoint_rep(l2()), N01, N01,
        zero_cochain(2, 2, 3), zeros(2)))
    del obj["base"]["N"]
    with pytest.raises(InputError):
        extension_from_obj(obj)


def test_twosys_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    f, g = cx.kernel_pairs(5)[2]
    sys2, nstr = cocycle_to_skeletal(cx, f, g)
    obj = twosys_to_obj(sys2, nstr)
    sys2b, nstrb = twosys_from_obj(obj)
    assert (sys2b.n0, sys2b.n1) == (sys2.n0, sys2.n1)
    assert sys2b.h == sys2.h
    assert sys2b.l3_000 == sys2.l3_000
    assert sys2b.l3_100 == sys2.l3_100
    assert sys2b.l3_010 == sys2.l3_010
    assert sys2b.l3_001 == sys2.l3_001
    assert sys2b.l5 == sys2.l5
    assert nstrb.N0 == nstr.N0 and nstrb.N1 == nstr.N1
    assert nstrb.N2 == nstr.N2
    assert twosys_to_obj(sys2b, nstrb) == obj


def test_twosys_without_structure():
    obj = {"dim0": 1, "dim1": 1, "h": [["2"]]}
    sys2b, nstrb = twosys_from_obj(obj)
    assert nstrb is None and sys2b.h == ((2,),)
    with pytest.raises(InputError):
        twosys_from_obj({"dim0": 1, "dim1": 1, "N0": [[1]]})


def test_xmod_round_trip():
    system = l2()
    xm = CrossedModule(system, N01, 2, system.table, ident(2),
                       adjoint_rep(system).theta, N01)
    obj = xmod_to_obj(xm)
    back = xmod_from_obj(obj)
    assert back.base.table == xm.base.table
    assert back.fiber.table == xm.fiber.table
    assert back.h == xm.h and back.N0 == xm.N0 and back.N1 == xm.N1
    assert back.action.theta == xm.action.theta
    assert xmod_to_obj(back) == obj
    # the keys a 2-system shares are not enough to read it as one
    with pytest.raises(InputError, match="bracket0, bracket1, lambda"):
        twosys_from_obj(obj)


def test_bundle_round_trip(cx_l2_adj):
    cx = cx_l2_adj
    f, g = cx.kernel_pairs(5)[0]
    obj = bundle_to_obj(cx, f, g)
    cx2, f2, g2 = bundle_from_obj(obj)
    assert cx2.system.table == cx.system.table
    assert cx2.N == cx.N and cx2.Nv == cx.Nv
    assert cx2.rep.theta == cx.rep.theta
    assert f2 == f and g2 == g
    assert bundle_to_obj(cx2, f2, g2) == obj


def test_dumps_is_deterministic():
    a = {"dim": 2, "bracket": []}
    b = {}
    b["bracket"] = []
    b["dim"] = 2
    assert dumps(a) == dumps(b)
    assert dumps(a).endswith("\n")
    parsed = json.loads(dumps(a))
    assert parsed == a


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_json(str(bad))
    good = tmp_path / "good.json"
    good.write_text('{"dim": 2, "bracket": []}', encoding="utf-8")
    assert system_from_obj(load_json(str(good))).dim == 2


def test_load_json_refuses_repeated_keys(tmp_path):
    """json.load keeps the last of repeated keys; load_json names the key
    and the file, at any depth, and keeps equal keys in sibling objects."""
    twice = tmp_path / "twice.json"
    for text, key in (('{"dim": 2, "dim": 1, "bracket": []}', '"dim"'),
                      ('{"dim": 2, "bracket": [{"i": 0, "j": 1, "k": 1,'
                       ' "out": {"0": "1", "0": "2"}}]}', '"0"')):
        twice.write_text(text, encoding="utf-8")
        with pytest.raises(InputError,
                           match="repeated key %s in .*twice.json" % key):
            load_json(str(twice))
    twice.write_text('[{"a": 1}, {"a": 2}]', encoding="utf-8")
    assert load_json(str(twice)) == [{"a": 1}, {"a": 2}]


def test_system_rejects_bad_payloads():
    with pytest.raises(InputError):
        system_from_obj([])
    with pytest.raises(InputError):
        system_from_obj({"dim": -1})
    with pytest.raises(InputError):
        system_from_obj({"dim": 2, "bracket": [{"i": 0, "j": 0}]})
    with pytest.raises(InputError):
        system_from_obj({"dim": 2, "bracket": [
            {"i": 0, "j": 1, "k": 2, "out": {}}]})


# ---------------------------------------------------------------------------
# one schema: every reader refuses what it does not read, naming the path

W = "payload"


@functools.lru_cache(maxsize=None)
def schema_cases():
    """(name, payload, round trip) for every `nlts corpus` payload, an
    extension, a bundle, and a representation and a bundle over a
    0-dimensional base; each round trip reads at path W and writes."""
    with tempfile.TemporaryDirectory() as target:
        names = emit_corpus(target)
        files = {name: load_json(os.path.join(target, name)) for name in names}
    bases = {"adjL2.json": "L2.json", "adjsolv3.json": "solv3lts.json",
             "trivialrep.json": "abelian.json"}
    cases = []
    for name, obj in files.items():
        if "bracket" in obj:
            def trip(o):
                return system_to_obj(system_from_obj(o, W))
        elif "matrix" in obj:
            def trip(o):
                return operator_to_obj(*operator_from_obj(o, None, W))
        elif "Nv" in obj:
            def trip(o, base=system_from_obj(files[bases[name]])):
                return rep_to_obj(*rep_from_obj(o, base, W))
        elif "f" in obj:
            def trip(o):
                return pair_to_obj(*pair_from_obj(o, 2, 2, None, W))
        elif "lambda" in obj:
            def trip(o):
                return xmod_to_obj(xmod_from_obj(o, W))
        else:
            def trip(o):
                return twosys_to_obj(*twosys_from_obj(o, W))
        cases.append((name, obj, trip))
    cx = Complex(l2(), adjoint_rep(l2()), N01, N01)
    ext = AbelianExtension(cx.system, cx.rep, cx.N, cx.Nv,
                           cx.cochain_basis(3)[0], ((1, 0), (Fraction(2, 5), -1)))
    cases.append(("extension", extension_to_obj(ext),
                  lambda o: extension_to_obj(extension_from_obj(o, W))))
    cases.append(("bundle", bundle_to_obj(cx, *cx.kernel_pairs(5)[1]),
                  lambda o: bundle_to_obj(*bundle_from_obj(o, W))))
    # no theta matrices to size the fiber: Nv gives m
    base0 = LieTripleSystem(0, {})
    rep0 = Representation(base0, 2, {})
    cases.append(("zero-base representation", rep_to_obj(rep0, ident(2)),
                  lambda o: rep_to_obj(*rep_from_obj(o, base0, W))))
    cx0 = Complex(base0, rep0, (), ident(2))
    cases.append(("zero-base bundle", bundle_to_obj(cx0, {}, {}),
                  lambda o: bundle_to_obj(*bundle_from_obj(o, W))))
    return cases


def nodes(obj, path=W):
    """Every (path, container) of a payload, lists and dicts alike."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from nodes(value, "%s[%d]" % (path, key) if isinstance(key, int)
                             else "%s.%s" % (path, key))


def mutation_targets(obj):
    """Where each mutation can act: dict paths for an unknown key, integer
    fields for a boolean with the path its message names (an index of an
    entry is named by its entry, any other field by itself), and entry
    lists for a repeated entry."""
    dicts, ints, entries = [], [], []
    for path, node in nodes(obj):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        if isinstance(node, dict):
            dicts.append(path)
        for key, value in items:
            if _is_json_int(value):
                named = (path[:-len(".args")] if isinstance(key, int)
                         else path if key in ("i", "j", "k")
                         else "%s.%s" % (path, key))
                ints.append((path, key, named))
        if node and isinstance(node, list) and all(
                isinstance(e, dict) and "out" in e for e in node):
            entries.append(path)
    return dicts, ints, entries


def _is_json_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def node_at(obj, path):
    return dict(nodes(obj))[path]


def test_every_payload_round_trips():
    cases = schema_cases()
    assert len(cases) == 28
    for name, obj, trip in cases:
        assert trip(copy.deepcopy(obj)) == obj, name


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_payloads_are_refused_by_path(data):
    name, obj, trip = data.draw(st.sampled_from(schema_cases()))
    obj = copy.deepcopy(obj)
    dicts, ints, entries = mutation_targets(obj)
    kinds = (["unknown key"] + (["boolean"] if ints else [])
             + (["repeat"] if entries else []))
    kind = data.draw(st.sampled_from(kinds))
    if kind == "unknown key":
        path = data.draw(st.sampled_from(dicts))
        node_at(obj, path)["typo"] = 1
    elif kind == "boolean":
        where, key, path = data.draw(st.sampled_from(ints))
        node_at(obj, where)[key] = True
    else:
        path = data.draw(st.sampled_from(entries))
        node = node_at(obj, path)
        node.append(copy.deepcopy(data.draw(st.sampled_from(node))))
        path = "%s[%d]" % (path, len(node) - 1)
    with pytest.raises(InputError) as info:
        trip(obj)
    assert path in str(info.value), (name, kind, str(info.value))


@pytest.mark.parametrize("mutate, message", [
    (lambda o: o.pop("dim"), 'payload must be {"dim": n, "bracket": [...]}'),
    (lambda o: o["bracket"][0].pop("k"),
     'payload.bracket[0] must be {"i": i, "j": j, "k": k, "out": {...}}'),
    (lambda o: o["bracket"][0]["out"].update({"+1": "1"}),
     "bad index '+1' in payload.bracket[0].out"),
    (lambda o: o["bracket"][0]["out"].update({"01": "1"}),
     "bad index '01' in payload.bracket[0].out"),
    (lambda o: o["bracket"][0]["out"].update({"2": "1"}),
     "bad index '2' in payload.bracket[0].out"),
    (lambda o: o.update(bracket=5), "payload.bracket must be a list of entries"),
    (lambda o: o.update(dim=-1), "payload.dim must be a nonnegative integer"),
    (lambda o: o.update(dim=10**30),
     "payload.dim must be at most %d" % sys.maxsize),
])
def test_system_payload_faults_name_their_path(mutate, message):
    obj = system_to_obj(l2())
    mutate(obj)
    with pytest.raises(InputError) as info:
        system_from_obj(obj, W)
    assert str(info.value) == message


def test_zero_base_fiber_is_sized_by_nv():
    base0 = LieTripleSystem(0, {})
    rep, Nv = rep_from_obj({"theta": [], "Nv": [["1", "0"], ["0", "1"]]},
                           base0, W)
    assert rep.vdim == 2 and Nv == ident(2)
    for nv, message in ((5, "payload.Nv must be a square matrix"),
                        ([["1", "0"], ["0"]],
                         "payload.Nv row 1 must have 2 entries")):
        with pytest.raises(InputError) as info:
            rep_from_obj({"theta": [], "Nv": nv}, base0, W)
        assert str(info.value) == message


def test_pair_companion_and_required_keys():
    obj1 = pair_to_obj(zero_cochain(2, 2, 1), None, 1)
    assert pair_from_obj(obj1, 2, 2, None, W)[1] is None
    del obj1["g"]
    assert pair_from_obj(obj1, 2, 2, None, W)[1] is None
    obj1["g"] = cochain_to_obj(zero_cochain(2, 2, 1), 1)
    with pytest.raises(InputError, match=r"^payload\.g must be null in degree 1$"):
        pair_from_obj(obj1, 2, 2, None, W)
    obj3 = pair_to_obj(zero_cochain(2, 2, 3), zero_cochain(2, 2, 1), 3)
    obj3["f"]["degree"] = 1
    with pytest.raises(InputError, match=r"^payload\.f has degree 1, expected 3$"):
        pair_from_obj(obj3, 2, 2, None, W)
    with pytest.raises(InputError, match=r"^payload\.f must be \{"):
        pair_from_obj({"degree": 3, "f": [], "g": None}, 2, 2, None, W)


def test_bundle_and_extension_need_their_keys(cx_l2_adj):
    cx = cx_l2_adj
    bundle = bundle_to_obj(cx, *cx.kernel_pairs(5)[0])
    for key in ("f", "g", "theta", "Nv", "system"):
        broken = {k: v for k, v in bundle.items() if k != key}
        with pytest.raises(InputError, match="^payload must carry"):
            bundle_from_obj(broken, W)
    ext = extension_to_obj(AbelianExtension(
        cx.system, cx.rep, cx.N, cx.Nv, zero_cochain(2, 2, 3), zeros(2)))
    del ext["fiber"]["vdim"]
    with pytest.raises(InputError, match=r'^payload\.fiber must be \{"vdim"'):
        extension_from_obj(ext, W)
