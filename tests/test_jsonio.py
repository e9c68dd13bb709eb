"""Round trips and input validation for the JSON payloads."""

import json
from fractions import Fraction

import pytest

from nlts import (
    AbelianExtension,
    CrossedModule,
    adjoint_rep,
    cocycle_to_skeletal,
    ident,
    l2,
    zero_cochain,
    zeros,
)
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
