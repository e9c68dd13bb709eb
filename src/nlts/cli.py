"""Command-line interface.

Every subcommand is a thin shell over one library call: it loads JSON
payloads, invokes the library, prints a deterministic report, and exits
0 when the verdict is positive, 1 when it is negative, and 2 when an
input is malformed or ill-typed.  ``--json`` switches to machine output
and ``--witness`` adds the failing values to text output.

The parser is built once per process, and each command imports the
layers past ``lts`` when it runs, so ``check-lts`` loads none of them.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import jsonio
from .jsonio import InputError, dumps, load_json
from .linalg import format_rational, ident, parse_rational, zeros
from .lts import (
    Report,
    abelian,
    adjoint_rep,
    check_lts,
    check_representation,
    direct_sum,
    l2,
    lts_from_lie_algebra,
    sl2_lie,
    solv3_lie,
    trivial_rep,
)


def jsonable(x):
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else format_rational(x)
    return x


def _print_report(report, args):
    if args.json:
        sys.stdout.write(dumps(jsonable(report.to_dict())))
    else:
        if report.ok:
            print("ok")
        else:
            shown = report.violations if args.witness else report.violations[:5]
            for item in shown:
                name = item.get("axiom") or item.get("identity") \
                    or item.get("condition") or item.get("constraint") \
                    or item.get("component") or "violation"
                where = item.get("at")
                line = "violation: %s" % name
                if where is not None:
                    line += " at %s" % (where,)
                if args.witness:
                    detail = {k: v for k, v in item.items()
                              if k in ("lhs", "rhs", "value")}
                    if detail:
                        line += "  " + "  ".join(
                            "%s=%s" % (k, jsonable(v))
                            for k, v in sorted(detail.items()))
                print(line)
            if not args.witness and len(report.violations) > 5:
                print("(%d violations total)" % len(report.violations))
        for note in report.warnings:
            print("warning: %s" % note, file=sys.stderr)
    return 0 if report.ok else 1


def _emit_obj(obj):
    sys.stdout.write(dumps(obj))


def _read(reader, path, *given):
    """The payload in the file at path, read by a jsonio reader."""
    return reader(load_json(path), *given, path)


def _inputs(args):
    """(system, N, weight, rep, Nv) from the command's system, operator and
    representation files, read in that order; a file it lacks gives None."""
    system = _read(jsonio.system_from_obj, args.system)
    N, weight = (_read(jsonio.operator_from_obj, args.operator, system.dim)
                 if "operator" in args else (None, None))
    rep, Nv = (_read(jsonio.rep_from_obj, args.representation, system)
               if "representation" in args else (None, None))
    return system, N, weight, rep, Nv


def _refusing(call, *args):
    """call(*args), reporting a ValueError it raises as unusable input."""
    try:
        return call(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _weight(args, file_weight):
    if args.weight is None:
        return 0 if file_weight is None else file_weight
    try:
        return parse_rational(args.weight)
    except ValueError as exc:
        raise InputError("bad --weight value: %s" % exc) from exc


# ---------------------------------------------------------------------------
# structure commands

def cmd_check_lts(args):
    return _print_report(check_lts(_inputs(args)[0]), args)


def cmd_check_nijenhuis(args):
    from .operators import is_nijenhuis
    system, N, *_ = _inputs(args)
    return _print_report(is_nijenhuis(system, N), args)


def cmd_check_rb_family(args):
    from .operators import check_rb_family
    system, R, w, *_ = _inputs(args)
    return _print_report(check_rb_family(system, R, args.identity,
                                         _weight(args, w)), args)


def cmd_induced_bracket(args):
    from .operators import induced_bracket
    system, N, *_ = _inputs(args)
    deformed, report = induced_bracket(system, N)
    obj = jsonio.system_to_obj(deformed)
    if args.json:
        payload = {"system": obj, "ok": report.ok}
        payload.update(jsonable(report.data))
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(dumps(obj))
        for note in report.warnings:
            print("warning: %s" % note, file=sys.stderr)
    return 0 if report.ok else 1


def cmd_search(args):
    from .operators import grid_search_nijenhuis
    system = _inputs(args)[0]
    try:
        values = [parse_rational(v) for v in args.grid.split(",") if v != ""]
    except ValueError as exc:
        raise InputError("bad --grid value: %s" % exc) from exc
    found = _refusing(grid_search_nijenhuis, system, values, args.budget)
    if args.json:
        payload = {"count": len(found),
                   "matrices": [jsonable(N) for N in found]}
        sys.stdout.write(dumps(payload))
    else:
        print("count: %d" % len(found))
        for N in found:
            print(" ".join("[" + ", ".join(format_rational(x) for x in row)
                           + "]" for row in N))
    return 0


def cmd_check_rep(args):
    return _print_report(check_representation(_inputs(args)[3]), args)


def cmd_check_nrep(args):
    from .nrep import check_nijenhuis_rep
    _, N, _, rep, Nv = _inputs(args)
    return _print_report(check_nijenhuis_rep(rep, N, Nv), args)


def cmd_induce_rep(args):
    from .nrep import induce_rep
    _, N, _, rep, Nv = _inputs(args)
    _emit_obj(jsonio.rep_to_obj(induce_rep(rep, N, Nv), Nv))
    return 0


# ---------------------------------------------------------------------------
# cohomology commands

def _load_complex(args):
    from .cohomology import Complex
    system, N, _, rep, Nv = _inputs(args)
    return Complex(system, rep, N, Nv)


def cmd_cohomology(args):
    cx = _load_complex(args)
    report = cx.cohomology_dim(args.degree)
    if args.json:
        sys.stdout.write(dumps(jsonable(report)))
    else:
        for key in ("degree", "dim_cochains", "dim_cocycles",
                    "dim_coboundaries", "dim_H"):
            print("%s: %s" % (key, report[key]))
    return 0


def cmd_cocycle_check(args):
    cx = _load_complex(args)
    f, g, degree = _read(jsonio.pair_from_obj, args.pair, cx.n, cx.m,
                         args.degree)
    return _print_report(cx.is_cocycle(f, g, degree), args)


# ---------------------------------------------------------------------------
# extension commands

def cmd_extend(args):
    from .cohomology import zero_cochain
    from .extensions import build_extension, cochain_to_chi
    cx = _load_complex(args)
    f, g, _ = _read(jsonio.pair_from_obj, args.pair, cx.n, cx.m, 3)
    if g is None:
        g = zero_cochain(cx.n, cx.m, 1)
    ext, report = build_extension(cx, f, cochain_to_chi(g, cx.n, cx.m))
    obj = jsonio.extension_to_obj(ext)
    if args.json:
        payload = jsonable(report.to_dict())
        payload["extension"] = obj
        sys.stdout.write(dumps(payload))
        return 0 if report.ok else 1
    sys.stdout.write(dumps(obj))
    for note in report.warnings:
        print("warning: %s" % note, file=sys.stderr)
    if not report.ok:
        print("invalid: the pair is not a cocycle; the assembled structure "
              "fails %d identities" % len(report.violations), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_extract(args):
    from .extensions import chi_to_cochain, extract_cocycle
    ext = _read(jsonio.extension_from_obj, args.extension)
    psi, chi = extract_cocycle(ext)
    _emit_obj(jsonio.pair_to_obj(psi, chi_to_cochain(chi, ext.n, ext.m), 3))
    return 0


def cmd_equivalent(args):
    from .extensions import extensions_equivalent
    ext1, ext2 = (_read(jsonio.extension_from_obj, p)
                  for p in (args.extension1, args.extension2))
    payload = _refusing(extensions_equivalent, ext1, ext2).data
    if args.json:
        sys.stdout.write(dumps(jsonable(payload)))
    else:
        print("equivalent" if payload["equivalent"] else "not equivalent")
        if payload["gamma"] is not None:
            print("gamma: %s" % (jsonable(payload["gamma"]),))
    return 0 if payload["equivalent"] else 1


# ---------------------------------------------------------------------------
# 2-system and crossed-module commands

def _load_twosys(path, need_structure):
    sys2, nstr = _read(jsonio.twosys_from_obj, path)
    if need_structure and nstr is None:
        raise InputError("%s carries no Nijenhuis structure (N0, N1, N2)"
                         % path)
    return sys2, nstr


def cmd_check_2sys(args):
    from .twosys import check_2system
    sys2, _ = _load_twosys(args.file, False)
    return _print_report(check_2system(sys2), args)


def cmd_check_n2sys(args):
    from .twosys import check_2system, check_nijenhuis_2system
    sys2, nstr = _load_twosys(args.file, True)
    base = check_2system(sys2)
    struct = check_nijenhuis_2system(sys2, nstr)
    combined = Report(base.ok and struct.ok,
                      base.violations + struct.violations,
                      base.warnings + struct.warnings,
                      dict(base.data, **struct.data))
    return _print_report(combined, args)


def cmd_skeletal_to_cocycle(args):
    from .twosys import skeletal_to_cocycle
    sys2, nstr = _load_twosys(args.file, True)
    cx, f, g = _refusing(skeletal_to_cocycle, sys2, nstr)
    _emit_obj(jsonio.bundle_to_obj(cx, f, g))
    return 0


def cmd_cocycle_to_skeletal(args):
    from .twosys import cocycle_to_skeletal
    cx, f, g = _read(jsonio.bundle_from_obj, args.file)
    sys2, nstr = cocycle_to_skeletal(cx, f, g)
    _emit_obj(jsonio.twosys_to_obj(sys2, nstr))
    return 0


def cmd_check_xmod(args):
    from .twosys import check_crossed_module
    xm = _read(jsonio.xmod_from_obj, args.file)
    return _print_report(check_crossed_module(xm), args)


def cmd_to_xmod(args):
    from .twosys import strict_to_crossed_module
    sys2, nstr = _load_twosys(args.file, True)
    xm = _refusing(strict_to_crossed_module, sys2, nstr)
    _emit_obj(jsonio.xmod_to_obj(xm))
    return 0


def cmd_from_xmod(args):
    from .twosys import crossed_module_to_strict
    xm = _read(jsonio.xmod_from_obj, args.file)
    sys2, nstr = crossed_module_to_strict(xm)
    _emit_obj(jsonio.twosys_to_obj(sys2, nstr))
    return 0


# ---------------------------------------------------------------------------
# corpus

SOLV3_N = ((0, 0, 0), (0, 0, 0), (0, 1, 0))

L2PAIR_BAD_N = ((-3, -2, 0, 2), (-3, 3, 0, 3), (-3, -1, -2, 3), (2, -2, 3, -2))


def emit_corpus(target):
    """Write the example payloads into a directory.

    Returns the sorted list of file names written.  Each file is listed
    with its payload and the checks it must pass, and nothing is written
    unless every check passes.
    """
    from .operators import is_nijenhuis
    from .nrep import check_nijenhuis_rep
    from .cohomology import Complex, zero_cochain
    from .twosys import (CrossedModule, check_2system, check_crossed_module,
                         check_nijenhuis_2system, cocycle_to_skeletal,
                         strict_to_crossed_module)

    sys_l2 = l2()
    sys_ab1, sys_ab2, sys_ab3 = abelian(1), abelian(2), abelian(3)
    sys_sl2 = lts_from_lie_algebra(sl2_lie())
    sys_solv3 = lts_from_lie_algebra(solv3_lie())
    sys_pair = direct_sum(l2(), l2())
    systems = {
        "L2.json": sys_l2,
        "abelian.json": sys_ab2,
        "abelian1.json": sys_ab1,
        "abelian2.json": sys_ab2,
        "abelian3.json": sys_ab3,
        "sl2lts.json": sys_sl2,
        "solv3lts.json": sys_solv3,
        "l2pair.json": sys_pair,
    }
    files = {name: (jsonio.system_to_obj(system), [check_lts(system)])
             for name, system in systems.items()}

    N01 = ((0, 1), (0, 1))
    operators = {
        "N01.json": (sys_l2, N01, None),
        "zeroN.json": (sys_ab2, zeros(2), None),
        "idN.json": (sys_l2, ident(2), None),
        "rb0N.json": (sys_l2, ((0, 1), (0, 0)), 0),
        "projN.json": (sys_l2, ((1, 0), (0, 0)), -1),
        "solv3N.json": (sys_solv3, SOLV3_N, None),
    }
    for name, (system, N, weight) in operators.items():
        files[name] = (jsonio.operator_to_obj(N, weight),
                       [is_nijenhuis(system, N)])
    files["l2pairN.json"] = (jsonio.operator_to_obj(L2PAIR_BAD_N),
                             [not is_nijenhuis(sys_pair, L2PAIR_BAD_N)])

    rep_l2 = adjoint_rep(sys_l2)
    reps = {
        "adjL2.json": (rep_l2, N01, N01),
        "adjsolv3.json": (adjoint_rep(sys_solv3), SOLV3_N, SOLV3_N),
        "trivialrep.json": (trivial_rep(sys_ab2, 1), zeros(2), zeros(1)),
    }
    for name, (rep, N, Nv) in reps.items():
        files[name] = (jsonio.rep_to_obj(rep, Nv),
                       [check_representation(rep),
                        check_nijenhuis_rep(rep, N, Nv)])

    cx = Complex(sys_l2, rep_l2, N01, N01)
    k1, k3, k5 = (cx.kernel_pairs(degree) for degree in (1, 3, 5))

    def closed(pairs, degree):
        return [cx.is_cocycle(f, g if degree > 1 else None, degree)
                for f, g in pairs]

    files["cocycle1_L2.json"] = (jsonio.pair_to_obj(k1[0][0], None, 1),
                                 closed(k1, 1))
    files["cocycle3_L2.json"] = (jsonio.pair_to_obj(*k3[0], 3), closed(k3, 3))
    skel = cocycle_to_skeletal(cx, *k5[0])
    strict = cocycle_to_skeletal(cx, zero_cochain(2, 2, 5),
                                 zero_cochain(2, 2, 3))
    for name, (sys2, nstr), more in (("skel2sys.json", skel, closed(k5, 5)),
                                     ("strict2sys.json", strict, [])):
        files[name] = (jsonio.twosys_to_obj(sys2, nstr),
                       more + [check_2system(sys2),
                               check_nijenhuis_2system(sys2, nstr)])

    for name, xm in (
            ("xmodL2.json", CrossedModule(sys_l2, N01, 2, sys_l2.table,
                                          ident(2), rep_l2.theta, N01)),
            ("xmod0.json", strict_to_crossed_module(*strict))):
        files[name] = (jsonio.xmod_to_obj(xm), [check_crossed_module(xm)])

    for name, (_, checks) in files.items():
        if not all(checks):
            raise RuntimeError("corpus payload %s fails its checks" % name)
    os.makedirs(target, exist_ok=True)
    for name in sorted(files):
        jsonio.dump_json(files[name][0], os.path.join(target, name))
    return sorted(files)


def cmd_corpus(args):
    names = emit_corpus(args.directory)
    for name in names:
        print(name)
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlts",
        description="Exact checks and constructions for Nijenhuis operators "
                    "on Lie triple systems.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--witness", action="store_true",
                        help="include all failing values in text output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *specs, **kwargs):
        p = sub.add_parser(name, **kwargs)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.set_defaults(func=func)
        return p

    sys_arg = (["system"], {"help": "triple-system JSON file"})
    op_arg = (["operator"], {"help": "operator JSON file"})
    rep_arg = (["representation"], {"help": "representation JSON file"})
    weight_opt = (["--weight"], {"default": None,
                                 "help": "exact rational weight, like -1 or 1/2"})

    add("check-lts", cmd_check_lts, sys_arg,
        help="verify the triple-system axioms")
    add("check-nijenhuis", cmd_check_nijenhuis, sys_arg, op_arg,
        help="verify the Nijenhuis identity")
    add("check-rb", cmd_check_rb_family, sys_arg, op_arg, weight_opt,
        help="verify the Rota-Baxter identity of a weight"
        ).set_defaults(identity="rota-baxter")
    add("check-mrb", cmd_check_rb_family, sys_arg, op_arg, weight_opt,
        help="verify the modified Rota-Baxter identity of a weight"
        ).set_defaults(identity="modified-rota-baxter")
    add("induced-bracket", cmd_induced_bracket, sys_arg, op_arg,
        help="emit the deformed bracket of an operator")
    add("search", cmd_search, sys_arg,
        (["--grid"], {"required": True,
                      "help": "comma-separated entry values; use the "
                              "--grid=-1,0,1 form when the first value "
                              "is negative"}),
        (["--budget"], {"type": int, "default": 1_000_000,
                        "help": "largest grid size to scan"}),
        help="list all Nijenhuis operators over an entry grid")
    add("check-rep", cmd_check_rep, sys_arg, rep_arg,
        help="verify the representation identities")
    add("check-nrep", cmd_check_nrep, sys_arg, op_arg, rep_arg,
        help="verify the operator compatibility of a representation")
    add("induce-rep", cmd_induce_rep, sys_arg, op_arg, rep_arg,
        help="emit the deformed representation")
    add("cohomology", cmd_cohomology, sys_arg, op_arg, rep_arg,
        (["--degree"], {"type": int, "choices": (1, 3, 5), "required": True}),
        help="dimensions of cochains, cocycles, coboundaries, and cohomology")
    add("cocycle-check", cmd_cocycle_check, sys_arg, op_arg, rep_arg,
        (["pair"], {"help": "cochain pair JSON file"}),
        (["--degree"], {"type": int, "choices": (1, 3, 5), "default": None}),
        help="verify that a cochain pair is closed")
    add("extend", cmd_extend, sys_arg, op_arg, rep_arg,
        (["pair"], {"help": "degree-3 cochain pair JSON file"}),
        help="build the abelian extension of a cochain pair")
    add("extract", cmd_extract,
        (["extension"], {"help": "extension JSON file"}),
        help="read the cochain pair off an extension")
    add("equivalent", cmd_equivalent,
        (["extension1"], {"help": "first extension JSON file"}),
        (["extension2"], {"help": "second extension JSON file"}),
        help="decide equivalence of two extensions and emit the witness")
    add("check-2sys", cmd_check_2sys,
        (["file"], {"help": "2-system JSON file"}),
        help="verify the coherence conditions of a 2-system")
    add("check-n2sys", cmd_check_n2sys,
        (["file"], {"help": "2-system JSON file with N0, N1, N2"}),
        help="verify a Nijenhuis structure on a 2-system")
    add("skeletal-to-cocycle", cmd_skeletal_to_cocycle,
        (["file"], {"help": "skeletal 2-system JSON file"}),
        help="repackage a skeletal structure as a degree-5 pair")
    add("cocycle-to-skeletal", cmd_cocycle_to_skeletal,
        (["file"], {"help": "cocycle bundle JSON file"}),
        help="repackage a degree-5 pair as a skeletal structure")
    add("check-xmod", cmd_check_xmod,
        (["file"], {"help": "crossed-module JSON file"}),
        help="verify the crossed-module conditions")
    add("to-xmod", cmd_to_xmod,
        (["file"], {"help": "strict 2-system JSON file"}),
        help="repackage a strict structure as a crossed module")
    add("from-xmod", cmd_from_xmod,
        (["file"], {"help": "crossed-module JSON file"}),
        help="repackage a crossed module as a strict structure")
    add("corpus", cmd_corpus,
        (["directory"], {"nargs": "?", "default": "corpus"}),
        help="write the validated example payloads")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
