"""End-to-end checks of the command-line interface.

Subcommands are invoked in-process through run(); one test drives the
installed module entry point through a subprocess.
"""

import contextlib
from fractions import Fraction
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

from nlts import Complex, adjoint_rep, cocycle_to_skeletal, l2, zero_cochain
from nlts.cli import build_parser, run
from nlts.cohomology import cochain_add, cochain_iszero, cochain_scale
from nlts import jsonio

N01 = ((0, 1), (0, 1))
GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    target = tmp_path_factory.mktemp("corpus")
    assert run(["corpus", str(target)]) == 0
    return target


def path(corpus, name):
    return str(corpus / name)


def spoiled_pair():
    """The first degree-3 kernel pair of l2 adjoint plus the first basis
    cochain that makes it not closed."""
    cx = Complex(l2(), adjoint_rep(l2()), N01, N01)
    f, g = cx.kernel_pairs(3)[0]
    spoiled = next(b for b in cx.cochain_basis(3)
                   if not cx.is_cocycle(cochain_add(f, b), g, 3))
    return cochain_add(f, spoiled), g


def test_corpus_emission(corpus, capsys):
    assert run(["corpus", str(corpus)]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == 24
    assert names == sorted(names)
    for name in names:
        assert (corpus / name).is_file()
        json.loads((corpus / name).read_text())
    for expected in ("L2.json", "N01.json", "adjL2.json", "cocycle3_L2.json",
                     "skel2sys.json", "xmodL2.json"):
        assert expected in names


def test_corpus_checks_every_payload(tmp_path, monkeypatch):
    import nlts.operators
    import nlts.twosys
    checked = []

    def check_2system(sys2):
        checked.append(jsonio.twosys_to_obj(sys2))
        return real(sys2)

    real = nlts.twosys.check_2system
    monkeypatch.setattr(nlts.twosys, "check_2system", check_2system)
    assert run(["corpus", str(tmp_path / "c")]) == 0
    for name in ("skel2sys.json", "strict2sys.json"):
        written = json.loads((tmp_path / "c" / name).read_text())
        assert {k: v for k, v in written.items()
                if k not in ("N0", "N1", "N2")} in checked, name

    # with every operator Nijenhuis, the negative example fails its check
    monkeypatch.setattr(nlts.operators, "is_nijenhuis", lambda *args: True)
    with pytest.raises(RuntimeError, match="l2pairN.json"):
        run(["corpus", str(tmp_path / "d")])
    assert not (tmp_path / "d").exists()


def test_check_lts_verdicts(corpus, tmp_path, capsys):
    assert run(["check-lts", path(corpus, "L2.json")]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad_system.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "bracket": [{"i": 0, "j": 0, "k": 1, "out": {"0": "1"}}]}))
    assert run(["check-lts", str(bad)]) == 1
    assert "violation: antisymmetry" in capsys.readouterr().out

    assert run(["check-lts", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops")
    assert run(["check-lts", str(garbled)]) == 2


def test_check_nijenhuis_verdicts(corpus, capsys):
    assert run(["check-nijenhuis", path(corpus, "L2.json"),
                path(corpus, "N01.json")]) == 0
    capsys.readouterr()
    assert run(["check-nijenhuis", path(corpus, "l2pair.json"),
                path(corpus, "l2pairN.json")]) == 1
    assert "violation:" in capsys.readouterr().out


def test_witness_flag_adds_values(corpus, capsys):
    assert run(["--witness", "check-nijenhuis", path(corpus, "l2pair.json"),
                path(corpus, "l2pairN.json")]) == 1
    out = capsys.readouterr().out
    assert "lhs=" in out and "rhs=" in out


def test_rota_baxter_commands(corpus, capsys):
    assert run(["check-rb", path(corpus, "L2.json"),
                path(corpus, "rb0N.json")]) == 0
    assert run(["check-mrb", path(corpus, "L2.json"),
                path(corpus, "projN.json")]) == 0
    assert run(["check-mrb", path(corpus, "L2.json"),
                path(corpus, "idN.json"), "--weight", "-1"]) == 0
    capsys.readouterr()
    assert run(["check-mrb", path(corpus, "L2.json"),
                path(corpus, "N01.json"), "--weight", "-1"]) == 1


def test_induced_bracket_of_stock_operator_is_original(corpus, capsys):
    assert run(["--json", "induced-bracket", path(corpus, "L2.json"),
                path(corpus, "N01.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["system"] == json.loads((corpus / "L2.json").read_text())


def test_search_grid(corpus, capsys):
    assert run(["search", path(corpus, "L2.json"), "--grid=-1,0,1"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == "count: 81"
    assert run(["search", path(corpus, "L2.json"), "--grid=-1,0,1"]) == 0
    assert capsys.readouterr().out == first

    assert run(["--json", "search", path(corpus, "L2.json"),
                "--grid=-1,0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 81 and len(payload["matrices"]) == 81
    assert payload["matrices"][0] == [[-1, -1], [-1, -1]]


def test_search_budget_and_bad_grid(corpus, capsys):
    assert run(["search", path(corpus, "l2pair.json"),
                "--grid=-1,0,1", "--budget", "100"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["search", path(corpus, "L2.json"), "--grid", "a,b"]) == 2


# the golden payload of each case is hostile<i>.json, i its place in this
# dict, so a new case goes at the end
HOSTILE = {
    "boolean bracket index": (
        ["check-lts", "@op"],
        {"dim": 2, "bracket": [{"i": False, "j": 1, "k": 1, "out": {"0": "1"}}]}),
    "boolean cochain index": (
        ["cocycle-check", "L2.json", "N01.json", "adjL2.json", "@op"],
        {"degree": 3,
         "f": {"degree": 3, "entries": [{"args": [0, True, 0], "out": {"1": "1"}}]},
         "g": {"degree": 1, "entries": []}}),
    "boolean scalar": (
        ["check-nijenhuis", "L2.json", "@op"],
        {"dim": 2, "matrix": [[True, "0"], ["0", "1"]]}),
    "non-numeric weight": (
        ["check-mrb", "L2.json", "projN.json", "--weight", "abc"], None),
    "zero denominator in a matrix": (
        ["check-nijenhuis", "L2.json", "@op"],
        {"dim": 2, "matrix": [["1/0", "0"], ["0", "1"]]}),
    "zero denominator in the grid": (
        ["search", "L2.json", "--grid=1/0,1"], None),
    "zero denominator weight": (
        ["check-rb", "L2.json", "rb0N.json", "--weight", "1/0"], None),
    "zero tables read from a crossed-module payload": (
        ["check-2sys", "xmodL2.json"], None),
    "zero tables read from an operator payload": (
        ["check-lts", "N01.json"], None),
}


@pytest.mark.parametrize("case", list(HOSTILE))
def test_hostile_input_exits_2(case, corpus, tmp_path, capsys):
    argv, payload = HOSTILE[case]
    if payload is not None:
        (tmp_path / "payload.json").write_text(json.dumps(payload))
    argv = [str(tmp_path / "payload.json") if a == "@op"
            else path(corpus, a) if a.endswith(".json") else a
            for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_former_traceback_inputs_exit_2(corpus, tmp_path, capsys):
    # each of these printed a traceback and exited 1: a bundle without "f"
    # or "g" (KeyError), a bracket that is not a list (TypeError) and a dim
    # too large for an index (OverflowError)
    assert run(["skeletal-to-cocycle", path(corpus, "skel2sys.json")]) == 0
    bundle = json.loads(capsys.readouterr().out)
    payloads = {"nof.json": {k: v for k, v in bundle.items() if k != "f"},
                "nog.json": {k: v for k, v in bundle.items() if k != "g"},
                "bracket5.json": {"dim": 2, "bracket": 5},
                "hugedim.json": {"dim": 10**30, "bracket": [
                    {"i": 0, "j": 0, "k": 0, "out": {}}]}}
    for name, payload in payloads.items():
        (tmp_path / name).write_text(json.dumps(payload))
    for argv in (["cocycle-to-skeletal", str(tmp_path / "nof.json")],
                 ["cocycle-to-skeletal", str(tmp_path / "nog.json")],
                 ["check-lts", str(tmp_path / "bracket5.json")],
                 ["check-lts", str(tmp_path / "hugedim.json")]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, argv


def test_representation_commands(corpus, capsys):
    assert run(["check-rep", path(corpus, "L2.json"),
                path(corpus, "adjL2.json")]) == 0
    assert run(["check-nrep", path(corpus, "L2.json"),
                path(corpus, "N01.json"), path(corpus, "adjL2.json")]) == 0
    capsys.readouterr()
    assert run(["induce-rep", path(corpus, "L2.json"),
                path(corpus, "N01.json"), path(corpus, "adjL2.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"theta", "Nv"}


def test_cohomology_trivial_coefficients(corpus, capsys):
    assert run(["--json", "cohomology", path(corpus, "abelian.json"),
                path(corpus, "zeroN.json"), path(corpus, "trivialrep.json"),
                "--degree", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"degree": 1, "dim_cochains": 2, "dim_cocycles": 2,
                       "dim_coboundaries": 0, "dim_H": 2}


def test_cohomology_adjoint_pins(corpus, capsys):
    for degree, expected in ((1, 1), (3, 4), (5, 7)):
        assert run(["--json", "cohomology", path(corpus, "L2.json"),
                    path(corpus, "N01.json"), path(corpus, "adjL2.json"),
                    "--degree", str(degree)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim_H"] == expected, degree


def test_cocycle_check(corpus, tmp_path, capsys):
    assert run(["cocycle-check", path(corpus, "L2.json"),
                path(corpus, "N01.json"), path(corpus, "adjL2.json"),
                path(corpus, "cocycle1_L2.json")]) == 0
    assert run(["cocycle-check", path(corpus, "L2.json"),
                path(corpus, "N01.json"), path(corpus, "adjL2.json"),
                path(corpus, "cocycle3_L2.json")]) == 0
    capsys.readouterr()

    bad = tmp_path / "notclosed.json"
    bad.write_text(jsonio.dumps(jsonio.pair_to_obj(*spoiled_pair(), 3)))
    assert run(["cocycle-check", path(corpus, "L2.json"),
                path(corpus, "N01.json"), path(corpus, "adjL2.json"),
                str(bad)]) == 1
    assert "violation:" in capsys.readouterr().out


def test_extend_extract_round_trip(corpus, tmp_path, capsys):
    assert run(["extend", path(corpus, "L2.json"), path(corpus, "N01.json"),
                path(corpus, "adjL2.json"),
                path(corpus, "cocycle3_L2.json")]) == 0
    ext_obj = json.loads(capsys.readouterr().out)
    ext_file = tmp_path / "ext.json"
    ext_file.write_text(json.dumps(ext_obj))

    assert run(["check-lts", str(ext_file)]) == 2  # wrong payload type
    capsys.readouterr()

    assert run(["extract", str(ext_file)]) == 0
    pair = json.loads(capsys.readouterr().out)
    original = json.loads((corpus / "cocycle3_L2.json").read_text())
    assert pair["f"] == original["f"]
    assert pair["g"] == original["g"]


def test_extend_refuses_non_cocycle(corpus, tmp_path, capsys):
    bad = tmp_path / "badpair.json"
    bad.write_text(jsonio.dumps(jsonio.pair_to_obj(*spoiled_pair(), 3)))
    assert run(["extend", path(corpus, "L2.json"), path(corpus, "N01.json"),
                path(corpus, "adjL2.json"), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid" in err


def test_equivalent_self_and_refusal(corpus, tmp_path, capsys):
    assert run(["extend", path(corpus, "L2.json"), path(corpus, "N01.json"),
                path(corpus, "adjL2.json"),
                path(corpus, "cocycle3_L2.json")]) == 0
    ext_file = tmp_path / "ext1.json"
    ext_file.write_text(capsys.readouterr().out)

    assert run(["--json", "equivalent", str(ext_file), str(ext_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    assert payload["isomorphism_verified"] is True
    assert payload["gamma"] is not None

    zero_pair = tmp_path / "zeropair.json"
    zero_pair.write_text(json.dumps(
        {"degree": 3, "f": {"degree": 3, "entries": []},
         "g": {"degree": 1, "entries": []}}))
    assert run(["extend", path(corpus, "L2.json"), path(corpus, "N01.json"),
                path(corpus, "adjL2.json"), str(zero_pair)]) == 0
    zero_ext = tmp_path / "ext0.json"
    zero_ext.write_text(capsys.readouterr().out)

    # the corpus pair generates a nonzero cohomology class, so the two
    # extensions cannot be equivalent
    assert run(["equivalent", str(ext_file), str(zero_ext)]) == 1
    assert "not equivalent" in capsys.readouterr().out

    # over a 0-dimensional base C^1 is empty and gamma is the zero map
    zero_base = tmp_path / "zerobase.json"
    zero_base.write_text(json.dumps(
        {"base": {"dim": 0, "bracket": [], "N": []},
         "fiber": {"vdim": 1, "Nv": [["0"]]}, "theta": [], "psi": [],
         "chi": [[]]}))
    assert run(["equivalent", str(zero_base), str(zero_base)]) == 0
    assert capsys.readouterr().out == "equivalent\ngamma: [[]]\n"


def test_twosys_commands(corpus, tmp_path, capsys):
    assert run(["check-2sys", path(corpus, "skel2sys.json")]) == 0
    assert run(["check-n2sys", path(corpus, "skel2sys.json")]) == 0
    assert run(["check-n2sys", path(corpus, "strict2sys.json")]) == 0
    capsys.readouterr()

    stripped = json.loads((corpus / "strict2sys.json").read_text())
    for key in ("N0", "N1", "N2"):
        stripped.pop(key, None)
    plain = tmp_path / "plain2sys.json"
    plain.write_text(json.dumps(stripped))
    assert run(["check-2sys", str(plain)]) == 0
    assert run(["check-n2sys", str(plain)]) == 2


def test_skeletal_cocycle_round_trip(corpus, tmp_path, capsys):
    assert run(["skeletal-to-cocycle", path(corpus, "skel2sys.json")]) == 0
    bundle = tmp_path / "bundle.json"
    bundle.write_text(capsys.readouterr().out)
    assert run(["cocycle-to-skeletal", str(bundle)]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == json.loads((corpus / "skel2sys.json").read_text())


def test_crossed_module_commands(corpus, tmp_path, capsys):
    assert run(["check-xmod", path(corpus, "xmodL2.json")]) == 0
    assert run(["check-xmod", path(corpus, "xmod0.json")]) == 0
    capsys.readouterr()

    assert run(["to-xmod", path(corpus, "strict2sys.json")]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted == json.loads((corpus / "xmod0.json").read_text())

    assert run(["from-xmod", path(corpus, "xmodL2.json")]) == 0
    strict = tmp_path / "strictL2.json"
    strict.write_text(capsys.readouterr().out)
    assert run(["to-xmod", str(strict)]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == json.loads((corpus / "xmodL2.json").read_text())


def test_skeletal_conversion_requires_zero_h(corpus, tmp_path, capsys):
    assert run(["from-xmod", path(corpus, "xmodL2.json")]) == 0
    strict = tmp_path / "withh.json"
    strict.write_text(capsys.readouterr().out)
    assert run(["skeletal-to-cocycle", str(strict)]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(corpus):
    done = subprocess.run([sys.executable, "-m", "nlts.cli", "check-lts",
                           path(corpus, "L2.json")],
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.strip() == "ok"
    none = subprocess.run([sys.executable, "-m", "nlts.cli"],
                          capture_output=True, text=True)
    assert none.returncode == 2


def loaded_after(code):
    """The nlts modules a fresh interpreter holds after running code."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'nlts')))"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_commands_load_only_their_layers(corpus):
    """A fresh process is needed: this one has imported every layer."""
    base = {"nlts", "nlts.jsonio", "nlts.linalg", "nlts.lts"}
    assert loaded_after("import nlts.jsonio") == base
    run_cli = "from nlts.cli import run\nrun(%r)"
    assert loaded_after(run_cli % ["check-lts", path(corpus, "L2.json")]) \
        == base | {"nlts.cli"}
    assert loaded_after(run_cli % ["check-nijenhuis", path(corpus, "L2.json"),
                                   path(corpus, "N01.json")]) \
        == base | {"nlts.cli", "nlts.operators"}


# ---------------------------------------------------------------------------
# golden output: (exit, stdout, stderr) of every command below, recorded in
# tests/data/cli_golden.json with the corpus directory written as <corpus>.
# Regenerate with `PYTHONPATH=src python tests/test_cli.py` only when an
# output change is intended.

def call(argv):
    """run(argv) in process, as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def golden_payloads(root):
    """Write the corpus and the derived payloads the golden commands read."""
    call(["corpus", str(root)])
    spoiled = spoiled_pair()
    (root / "notclosed.json").write_text(jsonio.dumps(jsonio.pair_to_obj(
        *spoiled, 3)))
    (root / "notclosed_frac.json").write_text(jsonio.dumps(jsonio.pair_to_obj(
        *(cochain_scale(Fraction(-2, 3), h) for h in spoiled), 3)))
    half = json.loads((root / "cocycle3_L2.json").read_text())
    for entry in half["f"]["entries"] + half["g"]["entries"]:
        entry["out"] = {a: str(Fraction(x) / 2) for a, x in entry["out"].items()}
    (root / "cocycle3_half.json").write_text(json.dumps(half))
    (root / "zeropair.json").write_text(json.dumps(
        {"degree": 3, "f": {"degree": 3, "entries": []},
         "g": {"degree": 1, "entries": []}}))
    l2ctx = [str(root / name) for name in ("L2.json", "N01.json", "adjL2.json")]
    for name, pair in (("ext.json", "cocycle3_L2.json"),
                       ("ext0.json", "zeropair.json")):
        (root / name).write_text(call(
            ["extend", *l2ctx, str(root / pair)])[1])
    (root / "other.json").write_text(call(
        ["extend", str(root / "abelian.json"), str(root / "zeroN.json"),
         str(root / "trivialrep.json"), str(root / "zeropair.json")])[1])
    # psi plus a cochain that is not antisymmetric in its first two slots
    odd = json.loads((root / "ext.json").read_text())
    odd["psi"].append({"args": [0, 0, 0], "out": {"0": "1"}})
    (root / "extodd.json").write_text(json.dumps(odd))
    (root / "garbled.json").write_text("{oops")
    (root / "wrongdim.json").write_text(json.dumps(
        {"dim": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"],
                              ["0", "0", "1"]]}))
    stripped = json.loads((root / "strict2sys.json").read_text())
    for key in ("N0", "N1", "N2"):
        stripped.pop(key)
    (root / "nostructure.json").write_text(json.dumps(stripped))
    badrep = json.loads((root / "adjsolv3.json").read_text())
    badrep["theta"][0][2][1][1] = "1/2"
    (root / "badrep.json").write_text(json.dumps(badrep))
    badxmod = json.loads((root / "xmodL2.json").read_text())
    badxmod["h"][1][0] = "1"
    (root / "badxmod.json").write_text(json.dumps(badxmod))
    # a crossed module that fails all nine conditions: l2 plus
    # [e0,e0,e0] = e1 as base, [a0,a0,a0] = a0 as fiber, h = I
    failxmod = json.loads((root / "xmodL2.json").read_text())
    failxmod["bracket0"].append({"args": [0, 0, 0], "out": {"1": "1"}})
    failxmod["bracket1"] = [{"args": [0, 0, 0], "out": {"0": "1"}}]
    failxmod["N0"] = [["1", "1"], ["0", "1"]]
    failxmod["N1"] = [["0", "1"], ["1", "0"]]
    zero = [["0", "0"], ["0", "0"]]
    failxmod["lambda"] = [[zero, [["1", "0"], ["0", "1"]]],
                          [zero, [["0", "1"], ["0", "0"]]]]
    (root / "failxmod.json").write_text(json.dumps(failxmod))
    # inputs that break antisymmetry and the cyclic sum: a bracket, a
    # degree-3 cochain, the base bracket of a 2-system and its N2
    (root / "asym.json").write_text(json.dumps(
        {"dim": 2, "bracket": [{"i": 0, "j": 1, "k": 1, "out": {"0": "1"}},
                               {"i": 0, "j": 0, "k": 0, "out": {"1": "1/2"}}]}))
    (root / "unconstrained.json").write_text(json.dumps(
        {"degree": 3, "f": {"degree": 3, "entries": [
            {"args": [0, 0, 1], "out": {"0": "1", "1": "-1/2"}}]},
         "g": {"degree": 1, "entries": []}}))
    l3asym = json.loads((root / "strict2sys.json").read_text())
    l3asym["l3_000"].append({"args": [0, 0, 1], "out": {"1": "2"}})
    (root / "l3asym2sys.json").write_text(json.dumps(l3asym))
    n2cyclic = json.loads((root / "skel2sys.json").read_text())
    n2cyclic["N2"].append({"args": [0, 0, 1], "out": {"0": "1/3"}})
    (root / "n2cyclic.json").write_text(json.dumps(n2cyclic))
    for i, case in enumerate(HOSTILE):
        payload = HOSTILE[case][1]
        if payload is not None:
            (root / ("hostile%d.json" % i)).write_text(json.dumps(payload))
    for name, payload in schema_payloads(root).items():
        (root / name).write_text(json.dumps(payload))
    # repeated object keys, which json.dumps cannot write
    (root / "twicedim.json").write_text('{"dim": 2, "dim": 1, "bracket": []}')
    (root / "twicematrix.json").write_text(
        '{"dim": 2, "matrix": [["0", "1"], ["0", "0"]],'
        ' "matrix": [["1", "0"], ["0", "1"]]}')
    # a skeletal structure over a 0-dimensional base and its bundle
    (root / "zero2sys.json").write_text(json.dumps(
        {"dim0": 0, "dim1": 1, "N0": [], "N1": [["1"]], "N2": []}))
    (root / "zerobundle.json").write_text(call(
        ["skeletal-to-cocycle", str(root / "zero2sys.json")])[1])
    # degree-5 inputs over l2 adjoint: a skeletal 2-system whose l5 is a
    # basis cochain off the delta-cocycles (L11 fails), one whose N2 is a
    # kernel companion plus a basis cochain off the partial-cocycles
    # (condition (f) fails), and both added to a kernel pair in fractions
    # as a degree-5 pair
    cx = Complex(l2(), adjoint_rep(l2()), N01, N01)
    f5, g5 = cx.kernel_pairs(5)[0]
    off5 = next(b for b in cx.cochain_basis(5)
                if not cochain_iszero(cx.delta(b, 5)))
    off3 = next(b for b in cx.cochain_basis(3)
                if not cochain_iszero(cx.partial(b, 3)))
    for name, pair in (("l5open2sys.json", (off5, zero_cochain(2, 2, 3))),
                       ("fopen2sys.json", (f5, cochain_add(g5, off3)))):
        (root / name).write_text(jsonio.dumps(jsonio.twosys_to_obj(
            *cocycle_to_skeletal(cx, *pair))))
    (root / "notclosed5_frac.json").write_text(jsonio.dumps(jsonio.pair_to_obj(
        cochain_scale(Fraction(-2, 3), cochain_add(f5, off5)),
        cochain_add(cochain_scale(Fraction(-2, 3), g5),
                    cochain_scale(Fraction(1, 2), off3)), 5)))
    # fraction inputs: a bracket that fails only the five-term identity,
    # l2+l2 halved, and an operator that is Nijenhuis on neither l2+l2
    (root / "fracbracket.json").write_text(json.dumps(
        {"dim": 2, "bracket": [
            {"i": 0, "j": 1, "k": 0, "out": {"0": "1/3"}},
            {"i": 1, "j": 0, "k": 0, "out": {"0": "-1/3"}},
            {"i": 0, "j": 1, "k": 1, "out": {"0": "1/2", "1": "-2/3"}},
            {"i": 1, "j": 0, "k": 1, "out": {"0": "-1/2", "1": "2/3"}}]}))
    halfpair = json.loads((root / "l2pair.json").read_text())
    for entry in halfpair["bracket"]:
        entry["out"] = {a: str(Fraction(x) / 2) for a, x in entry["out"].items()}
    (root / "halfpair.json").write_text(json.dumps(halfpair))
    (root / "fracN.json").write_text(json.dumps(
        {"dim": 4, "matrix": [["-3/2", "-2", "0", "2/3"], ["-3", "3/4", "0", "3"],
                              ["-3", "-1", "-2/3", "3"], ["2", "-2", "3", "-1/2"]]}))


def schema_payloads(root):
    """Payloads that break the key schema of their kind: booleans for
    integers, keys no reader reads, repeated sparse entries, index keys
    that are not str(i), and a companion on a degree-1 pair."""
    def load(name):
        return json.loads((root / name).read_text())

    def typo(name, *path):
        obj = load(name)
        node = obj
        for key in path:
            node = node[key]
        node["typo"] = 1
        return obj

    out = {"booldim.json": {"dim": True, "bracket": []},
           "booldims2sys.json": {"dim0": True, "dim1": True},
           "booldegree.json": {"degree": True,
                               "f": {"degree": True, "entries": []}}}
    for name, source, path in (
            ("typoN.json", "N01.json", ()), ("typorep.json", "adjL2.json", ()),
            ("typopair.json", "cocycle3_L2.json", ()),
            ("typocochain.json", "cocycle3_L2.json", ("f",)),
            ("typoxmod.json", "xmodL2.json", ()),
            ("typoext.json", "ext.json", ()),
            ("typofiber.json", "ext.json", ("fiber",)),
            ("typoentry.json", "L2.json", ("bracket", 0))):
        out[name] = typo(source, *path)
    twice = load("L2.json")
    twice["bracket"].append(dict(twice["bracket"][0], out={"1": "5"}))
    out["twiceL2.json"] = twice
    pair = load("cocycle3_L2.json")
    first = pair["f"]["entries"][0]
    pair["f"]["entries"].append(dict(first, out={k: "5" for k in first["out"]}))
    out["twicepair.json"] = pair
    for i, key in enumerate(("+1", " 1", "0_1", "\u0661")):
        alias = load("cocycle3_L2.json")
        alias["f"]["entries"][0]["out"] = {key: "1"}
        out["alias%d.json" % i] = alias
    degree1 = load("cocycle1_L2.json")
    degree1["g"] = {"degree": 1, "entries": []}
    out["g1pair.json"] = degree1
    return out


SUBCOMMANDS = (
    "check-lts", "check-nijenhuis", "check-rb", "check-mrb",
    "induced-bracket", "search", "check-rep", "check-nrep", "induce-rep",
    "cohomology", "cocycle-check", "extend", "extract", "equivalent",
    "check-2sys", "check-n2sys", "skeletal-to-cocycle", "cocycle-to-skeletal",
    "check-xmod", "to-xmod", "from-xmod", "corpus",
)


def golden_commands():
    """The golden argv lists, with corpus paths as <corpus>/name."""
    C = lambda name: "<corpus>/" + name
    L2, N01f, ADJ = C("L2.json"), C("N01.json"), C("adjL2.json")
    S3, S3N, S3ADJ = C("solv3lts.json"), C("solv3N.json"), C("adjsolv3.json")
    verify = [
        ["check-lts", L2], ["check-lts", C("sl2lts.json")],
        ["check-lts", S3], ["check-lts", C("l2pair.json")],
        ["check-nijenhuis", L2, N01f], ["check-nijenhuis", S3, S3N],
        ["check-nijenhuis", C("l2pair.json"), C("l2pairN.json")],
        ["check-rb", L2, C("rb0N.json")],
        ["check-mrb", L2, C("projN.json")],
        ["check-mrb", L2, C("idN.json"), "--weight", "-1"],
        ["check-mrb", L2, N01f, "--weight", "-1"],
        ["check-rep", L2, ADJ], ["check-rep", S3, S3ADJ],
        ["check-rep", C("abelian.json"), C("trivialrep.json")],
        ["check-rep", S3, C("badrep.json")],
        ["check-nrep", L2, N01f, ADJ], ["check-nrep", S3, S3N, S3ADJ],
        ["check-nrep", L2, C("idN.json"), ADJ],
        ["cocycle-check", L2, N01f, ADJ, C("cocycle1_L2.json")],
        ["cocycle-check", L2, N01f, ADJ, C("cocycle3_L2.json")],
        ["cocycle-check", L2, N01f, ADJ, C("notclosed.json")],
        ["cocycle-check", L2, N01f, ADJ, C("cocycle3_half.json")],
        ["cocycle-check", L2, N01f, ADJ, C("notclosed_frac.json")],
        ["equivalent", C("ext.json"), C("ext.json")],
        ["equivalent", C("ext.json"), C("ext0.json")],
        ["equivalent", C("ext.json"), C("extodd.json")],
        ["check-2sys", C("skel2sys.json")], ["check-2sys", C("strict2sys.json")],
        ["check-n2sys", C("skel2sys.json")],
        ["check-n2sys", C("strict2sys.json")],
        ["check-xmod", C("xmodL2.json")], ["check-xmod", C("xmod0.json")],
        ["check-xmod", C("badxmod.json")],
        ["check-lts", C("asym.json")],
        ["cocycle-check", L2, N01f, ADJ, C("unconstrained.json")],
        ["check-2sys", C("l3asym2sys.json")],
        ["check-n2sys", C("n2cyclic.json")],
        ["check-rb", L2, C("idN.json")], ["check-xmod", C("failxmod.json")],
        ["check-2sys", C("l5open2sys.json")],
        ["check-n2sys", C("fopen2sys.json")],
        ["cocycle-check", L2, N01f, ADJ, C("notclosed5_frac.json"),
         "--degree", "5"],
    ]
    cohomology = [["cohomology", *ctx, "--degree", str(degree)]
                  for ctx in ((L2, N01f, ADJ), (S3, S3N, S3ADJ))
                  for degree in (1, 3, 5)]
    emit = [
        ["induced-bracket", L2, N01f], ["induce-rep", L2, N01f, ADJ],
        ["extend", L2, N01f, ADJ, C("cocycle3_L2.json")],
        ["extend", L2, N01f, ADJ, C("notclosed.json")],
        ["extract", C("ext.json")],
        ["skeletal-to-cocycle", C("skel2sys.json")],
        ["to-xmod", C("strict2sys.json")], ["from-xmod", C("xmodL2.json")],
    ]
    hostile = [
        ["check-lts", C("absent.json")], ["check-lts", C("garbled.json")],
        ["check-lts", C("ext.json")],
        ["check-nijenhuis", L2, C("wrongdim.json")],
        ["search", C("l2pair.json"), "--grid=-1,0,1", "--budget", "100"],
        ["search", L2, "--grid", "a,b"],
        ["check-n2sys", C("nostructure.json")],
        ["equivalent", C("ext.json"), C("other.json")],
        ["cohomology", L2, N01f, ADJ, "--degree", "4"],
    ]
    for i, case in enumerate(HOSTILE):
        argv = HOSTILE[case][0]
        hostile.append([C("hostile%d.json" % i) if a == "@op"
                        else C(a) if a.endswith(".json") else a
                        for a in argv])
    hostile += [["check-n2sys", C("xmodL2.json")],
                ["to-xmod", C("xmodL2.json")],
                ["check-nijenhuis", N01f, C("idN.json")]]
    helps = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    pair = ["cocycle-check", L2, N01f, ADJ]
    schema = [
        ["check-lts", C("booldim.json")], ["check-2sys", C("booldims2sys.json")],
        pair + [C("booldegree.json")],
        ["check-nijenhuis", L2, C("typoN.json")],
        ["check-rep", L2, C("typorep.json")],
        pair + [C("typopair.json")], pair + [C("typocochain.json")],
        ["check-xmod", C("typoxmod.json")],
        ["extract", C("typoext.json")], ["extract", C("typofiber.json")],
        ["check-lts", C("typoentry.json")],
        ["check-lts", C("twiceL2.json")], pair + [C("twicepair.json")],
        *(pair + [C("alias%d.json" % i)] for i in range(4)),
        pair + [C("g1pair.json")],
        ["check-lts", C("twicedim.json")],
        ["check-nijenhuis", L2, C("twicematrix.json")],
    ]
    zero_base = [["skeletal-to-cocycle", C("zero2sys.json")],
                 ["cocycle-to-skeletal", C("zerobundle.json")]]
    fractions = [["check-lts", C("fracbracket.json")],
                 ["check-nijenhuis", C("l2pair.json"), C("fracN.json")],
                 ["check-nijenhuis", C("halfpair.json"), C("fracN.json")],
                 ["extend", L2, N01f, ADJ, C("notclosed_frac.json")]]
    modes = ([], ["--json"], ["--witness"])
    return ([mode + argv for mode in modes for argv in verify]
            + [mode + argv for mode in ([], ["--json"]) for argv in cohomology]
            + [["--json"] + argv for argv in emit]
            + hostile + helps + schema + zero_base
            + [mode + argv for mode in modes for argv in fractions])


def golden_records(root):
    """(argv, exit, stdout, stderr) of every golden command, run on the
    payloads in root, with root written as <corpus>.  Help text is
    wrapped at COLUMNS, so it is pinned to 80."""
    golden_payloads(root)
    records = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in golden_commands():
            code, out, err = call([a.replace("<corpus>", str(root))
                                   for a in argv])
            records.append({"argv": argv, "exit": code,
                            "stdout": out.replace(str(root), "<corpus>"),
                            "stderr": err.replace(str(root), "<corpus>")})
    return records


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in golden] == golden_commands()
    for got, want in zip(golden_records(tmp_path), golden):
        assert got == want, want["argv"]


def test_cached_parser_carries_no_state(corpus, tmp_path):
    assert build_parser() is build_parser()
    L2, N01f = path(corpus, "L2.json"), path(corpus, "N01.json")
    assert call(["--json", "check-mrb", L2, N01f, "--weight", "-1"])[0] == 1
    # N01 satisfies the weight-0 identity only, so a -1 left over fails it
    weight0 = tmp_path / "N01weight0.json"
    weight0.write_text(json.dumps({"dim": 2, "matrix": [["0", "1"], ["0", "1"]],
                                   "weight": "0"}))
    assert call(["check-mrb", L2, str(weight0)])[0] == 0
    assert call(["check-mrb", L2, path(corpus, "projN.json")])[0] == 0
    assert call(["cohomology", L2, N01f, path(corpus, "adjL2.json"),
                 "--degree", "4"])[0] == 2
    assert call(["check-lts", L2]) == (0, "ok\n", "")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden_records(pathlib.Path(scratch)),
                                     indent=1) + "\n")
