"""JSON payloads for every object the command-line tools exchange.

Scalars travel as exact strings "p" or "p/q" (plain integers are also
accepted on input).  Sparse tensors are lists of entries
``{"args": [...], "out": {"index": "p/q", ...}}`` with omitted entries
equal to zero.  Serialization is deterministic: keys are sorted and the
layout is fixed, so identical objects produce identical bytes.

Readers import the layer of the object they build when called, so
reading a system or an operator loads no cochain or 2-system code.
"""

import json

from .linalg import format_rational, parse_rational
from .lts import LieTripleSystem, Representation


class InputError(ValueError):
    """Malformed or ill-typed payload; command-line tools exit 2 on it."""


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from exc


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _scalar(value, where):
    try:
        return parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise InputError("bad rational %r in %s" % (value, where)) from exc


def _is_index(a):
    """JSON integers only: ``true`` and ``false`` are not indices."""
    return isinstance(a, int) and not isinstance(a, bool)


def _matrix_out(M):
    return [[format_rational(x) for x in row] for row in M]


def _matrix_in(obj, rows, cols, where):
    if not isinstance(obj, list) or len(obj) != rows:
        raise InputError("%s must be a list of %d rows" % (where, rows))
    out = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError("%s row %d must have %d entries" % (where, r, cols))
        out.append(tuple(_scalar(x, "%s[%d]" % (where, r)) for x in row))
    return tuple(out)


def _theta_out(theta, n):
    """The matrices theta(e_i, e_j) of an action as an n-by-n array."""
    return [[_matrix_out(theta[(i, j)]) for j in range(n)] for i in range(n)]


def _vec_out(v):
    return {str(i): format_rational(x) for i, x in enumerate(v) if x != 0}


def _vec_in(obj, length, where):
    if not isinstance(obj, dict):
        raise InputError("%s must be an object of index: value" % where)
    out = [0] * length
    for key, value in obj.items():
        try:
            i = int(key)
        except ValueError as exc:
            raise InputError("bad index %r in %s" % (key, where)) from exc
        if not 0 <= i < length:
            raise InputError("index %d out of range in %s" % (i, where))
        out[i] = _scalar(value, where)
    return tuple(out)


def _entries_out(table):
    entries = []
    for key in sorted(table):
        v = table[key]
        if any(x != 0 for x in v):
            entries.append({"args": list(key), "out": _vec_out(v)})
    return entries


def _entries_in(obj, shape, outdim, where):
    if not isinstance(obj, list):
        raise InputError("%s must be a list of entries" % where)
    table = {}
    for c, entry in enumerate(obj):
        label = "%s[%d]" % (where, c)
        if not isinstance(entry, dict) or "args" not in entry or "out" not in entry:
            raise InputError('%s must be {"args": [...], "out": {...}}' % label)
        args = entry["args"]
        if (not isinstance(args, list) or len(args) != len(shape)
                or not all(_is_index(a) for a in args)):
            raise InputError("%s args must list %d indices" % (label, len(shape)))
        key = tuple(args)
        for a, s in zip(key, shape):
            if not 0 <= a < s:
                raise InputError("index %d out of range in %s" % (a, label))
        table[key] = _vec_in(entry["out"], outdim, label)
    return table


# ---------------------------------------------------------------------------
# triple systems

def system_to_obj(system):
    bracket = []
    for (i, j, k) in sorted(system.table):
        bracket.append({"i": i, "j": j, "k": k,
                        "out": _vec_out(system.table[(i, j, k)])})
    return {"dim": system.dim, "bracket": bracket}


def system_from_obj(obj, where="system"):
    if not isinstance(obj, dict) or "dim" not in obj:
        raise InputError('%s must be {"dim": n, "bracket": [...]}' % where)
    unknown = sorted(obj.keys() - {"dim", "bracket"})
    if unknown:
        raise InputError("%s has keys outside the system schema: %s"
                         % (where, ", ".join(unknown)))
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 0:
        raise InputError("%s dim must be a nonnegative integer" % where)
    table = {}
    for c, entry in enumerate(obj.get("bracket", [])):
        label = "%s.bracket[%d]" % (where, c)
        if not isinstance(entry, dict):
            raise InputError("%s must be an object" % label)
        try:
            key = (entry["i"], entry["j"], entry["k"])
        except KeyError as exc:
            raise InputError("%s needs i, j, k" % label) from exc
        if not all(_is_index(a) and 0 <= a < dim for a in key):
            raise InputError("%s indices out of range" % label)
        table[key] = _vec_in(entry.get("out", {}), dim, label)
    try:
        return LieTripleSystem(dim, table)
    except ValueError as exc:
        raise InputError("%s: %s" % (where, exc)) from exc


# ---------------------------------------------------------------------------
# operators

def operator_to_obj(matrix, weight=None):
    obj = {"dim": len(matrix), "matrix": _matrix_out(matrix)}
    if weight is not None:
        obj["weight"] = format_rational(weight)
    return obj


def operator_from_obj(obj, dim=None, where="operator"):
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise InputError('%s must be {"dim": n, "matrix": [...]}' % where)
    n = obj.get("dim", dim)
    if not isinstance(n, int) or n < 0:
        raise InputError("%s dim must be a nonnegative integer" % where)
    if dim is not None and n != dim:
        raise InputError("%s has dim %d, expected %d" % (where, n, dim))
    matrix = _matrix_in(obj["matrix"], n, n, "%s.matrix" % where)
    weight = None
    if "weight" in obj:
        weight = _scalar(obj["weight"], "%s.weight" % where)
    return matrix, weight


# ---------------------------------------------------------------------------
# representations with fiber operator

def rep_to_obj(rep, Nv):
    return {"theta": _theta_out(rep.theta, rep.base.dim),
            "Nv": _matrix_out(Nv)}


def rep_from_obj(obj, base, where="representation"):
    if not isinstance(obj, dict) or "theta" not in obj or "Nv" not in obj:
        raise InputError('%s must be {"theta": [...], "Nv": [...]}' % where)
    n = base.dim
    theta_obj = obj["theta"]
    if not isinstance(theta_obj, list) or len(theta_obj) != n or any(
            not isinstance(row, list) or len(row) != n for row in theta_obj):
        raise InputError("%s.theta must be an %d-by-%d array of matrices"
                         % (where, n, n))
    if n == 0:
        raise InputError("%s needs a positive-dimensional base" % where)
    first = theta_obj[0][0]
    if not isinstance(first, list) or not first:
        raise InputError("%s.theta entries must be matrices" % where)
    m = len(first)
    theta = {}
    for i in range(n):
        for j in range(n):
            theta[(i, j)] = _matrix_in(theta_obj[i][j], m, m,
                                       "%s.theta[%d][%d]" % (where, i, j))
    Nv = _matrix_in(obj["Nv"], m, m, "%s.Nv" % where)
    return Representation(base, m, theta), Nv


# ---------------------------------------------------------------------------
# cochains

def cochain_to_obj(f, degree):
    return {"degree": degree, "entries": _entries_out(f)}


def cochain_from_obj(obj, dim, vdim, degree=None, where="cochain"):
    from .cohomology import normalize_cochain
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputError('%s must be {"degree": d, "entries": [...]}' % where)
    d = obj.get("degree", degree)
    if not isinstance(d, int) or d < 1 or d % 2 == 0:
        raise InputError("%s degree must be an odd positive integer" % where)
    if degree is not None and d != degree:
        raise InputError("%s has degree %d, expected %d" % (where, d, degree))
    table = _entries_in(obj["entries"], (dim,) * d, vdim, "%s.entries" % where)
    return normalize_cochain(table, dim, vdim, d), d


def pair_to_obj(f, g, degree):
    obj = {"degree": degree, "f": cochain_to_obj(f, degree)}
    obj["g"] = None if g is None else cochain_to_obj(g, degree - 2)
    return obj


def pair_from_obj(obj, dim, vdim, degree=None, where="cochain pair"):
    if not isinstance(obj, dict) or "f" not in obj:
        raise InputError('%s must be {"degree": d, "f": {...}, "g": {...}}'
                         % where)
    d = obj.get("degree", degree)
    if not isinstance(d, int) or d not in (1, 3, 5):
        raise InputError("%s degree must be 1, 3, or 5" % where)
    if degree is not None and d != degree:
        raise InputError("%s has degree %d, expected %d" % (where, d, degree))
    f, _ = cochain_from_obj(obj["f"], dim, vdim, d, "%s.f" % where)
    g = None
    if d > 1:
        gobj = obj.get("g")
        if gobj is not None:
            g, _ = cochain_from_obj(gobj, dim, vdim, d - 2, "%s.g" % where)
    return f, g, d


# ---------------------------------------------------------------------------
# extensions

def extension_to_obj(ext):
    base = system_to_obj(ext.base)
    base["N"] = _matrix_out(ext.N)
    return {
        "base": base,
        "fiber": {"vdim": ext.m, "Nv": _matrix_out(ext.Nv)},
        "theta": _theta_out(ext.rep.theta, ext.n),
        "psi": _entries_out(ext.psi),
        "chi": _matrix_out(ext.chi),
    }


def extension_from_obj(obj, where="extension"):
    from .extensions import AbelianExtension
    if not isinstance(obj, dict) or "base" not in obj or "fiber" not in obj:
        raise InputError('%s must have "base", "fiber", "theta", "psi", "chi"'
                         % where)
    base_obj = obj["base"]
    if isinstance(base_obj, dict):
        base_obj = {k: v for k, v in base_obj.items() if k != "N"}
    base = system_from_obj(base_obj, "%s.base" % where)
    n = base.dim
    if "N" not in obj["base"]:
        raise InputError("%s.base needs an operator under N" % where)
    N = _matrix_in(obj["base"]["N"], n, n, "%s.base.N" % where)
    fiber = obj["fiber"]
    if not isinstance(fiber, dict) or "vdim" not in fiber or "Nv" not in fiber:
        raise InputError('%s.fiber must be {"vdim": m, "Nv": [...]}' % where)
    m = fiber["vdim"]
    if not isinstance(m, int) or m < 1:
        raise InputError("%s.fiber.vdim must be a positive integer" % where)
    Nv = _matrix_in(fiber["Nv"], m, m, "%s.fiber.Nv" % where)
    rep, _ = rep_from_obj({"theta": obj.get("theta"), "Nv": fiber["Nv"]},
                          base, "%s" % where)
    if rep.vdim != m:
        raise InputError("%s.theta acts on dimension %d, fiber says %d"
                         % (where, rep.vdim, m))
    psi = _entries_in(obj.get("psi", []), (n, n, n), m, "%s.psi" % where)
    chi = _matrix_in(obj.get("chi", [[0] * n for _ in range(m)]), m, n,
                     "%s.chi" % where)
    try:
        return AbelianExtension(base, rep, N, Nv, psi, chi)
    except ValueError as exc:
        raise InputError("%s: %s" % (where, exc)) from exc


# ---------------------------------------------------------------------------
# 2-systems

def twosys_to_obj(sys2, nstr=None):
    obj = {
        "dim0": sys2.n0,
        "dim1": sys2.n1,
        "h": _matrix_out(sys2.h),
        "l3_000": _entries_out(sys2.l3_000),
        "l3_t1slot0": _entries_out(sys2.l3_100),
        "l3_t1slot1": _entries_out(sys2.l3_010),
        "l3_t1slot2": _entries_out(sys2.l3_001),
        "l5": _entries_out(sys2.l5),
    }
    if nstr is not None:
        obj["N0"] = _matrix_out(nstr.N0)
        obj["N1"] = _matrix_out(nstr.N1)
        obj["N2"] = _entries_out(nstr.N2)
    return obj


_TWOSYS_KEYS = {"dim0", "dim1", "h", "l3_000", "l3_t1slot0", "l3_t1slot1",
                "l3_t1slot2", "l5", "N0", "N1", "N2"}


def twosys_from_obj(obj, where="2-system"):
    from .twosys import LieTriple2System, Nijenhuis2Structure
    if not isinstance(obj, dict) or "dim0" not in obj or "dim1" not in obj:
        raise InputError('%s must carry "dim0" and "dim1"' % where)
    unknown = sorted(obj.keys() - _TWOSYS_KEYS)
    if unknown:
        raise InputError("%s has keys outside the 2-system schema: %s"
                         % (where, ", ".join(unknown)))
    n0, n1 = obj["dim0"], obj["dim1"]
    if not (isinstance(n0, int) and isinstance(n1, int) and n0 >= 0 and n1 >= 0):
        raise InputError("%s dims must be nonnegative integers" % where)
    h = _matrix_in(obj.get("h", [[0] * n1 for _ in range(n0)]), n0, n1,
                   "%s.h" % where)
    l3_000 = _entries_in(obj.get("l3_000", []), (n0, n0, n0), n0,
                         "%s.l3_000" % where)
    l3_100 = _entries_in(obj.get("l3_t1slot0", []), (n1, n0, n0), n1,
                         "%s.l3_t1slot0" % where)
    l3_010 = _entries_in(obj.get("l3_t1slot1", []), (n0, n1, n0), n1,
                         "%s.l3_t1slot1" % where)
    l3_001 = _entries_in(obj.get("l3_t1slot2", []), (n0, n0, n1), n1,
                         "%s.l3_t1slot2" % where)
    l5 = _entries_in(obj.get("l5", []), (n0,) * 5, n1, "%s.l5" % where)
    try:
        sys2 = LieTriple2System(n0, n1, h, l3_000, l3_100, l3_010, l3_001, l5)
    except ValueError as exc:
        raise InputError("%s: %s" % (where, exc)) from exc
    nstr = None
    if "N0" in obj or "N1" in obj or "N2" in obj:
        if "N0" not in obj or "N1" not in obj:
            raise InputError("%s needs both N0 and N1 for a Nijenhuis "
                             "structure" % where)
        N0 = _matrix_in(obj["N0"], n0, n0, "%s.N0" % where)
        N1 = _matrix_in(obj["N1"], n1, n1, "%s.N1" % where)
        N2 = _entries_in(obj.get("N2", []), (n0,) * 3, n1, "%s.N2" % where)
        try:
            nstr = Nijenhuis2Structure(n0, n1, N0, N1, N2)
        except ValueError as exc:
            raise InputError("%s: %s" % (where, exc)) from exc
    return sys2, nstr


# ---------------------------------------------------------------------------
# crossed modules

def xmod_to_obj(xm):
    return {
        "dim0": xm.n0,
        "dim1": xm.n1,
        "bracket0": _entries_out(xm.base.table),
        "bracket1": _entries_out(xm.fiber.table),
        "h": _matrix_out(xm.h),
        "lambda": _theta_out(xm.action.theta, xm.n0),
        "N0": _matrix_out(xm.N0),
        "N1": _matrix_out(xm.N1),
    }


def xmod_from_obj(obj, where="crossed module"):
    from .twosys import CrossedModule
    if not isinstance(obj, dict) or "dim0" not in obj or "dim1" not in obj:
        raise InputError('%s must carry "dim0" and "dim1"' % where)
    n0, n1 = obj["dim0"], obj["dim1"]
    if not (isinstance(n0, int) and isinstance(n1, int) and n0 >= 0 and n1 >= 0):
        raise InputError("%s dims must be nonnegative integers" % where)
    base_table = _entries_in(obj.get("bracket0", []), (n0,) * 3, n0,
                             "%s.bracket0" % where)
    fiber_table = _entries_in(obj.get("bracket1", []), (n1,) * 3, n1,
                              "%s.bracket1" % where)
    base = LieTripleSystem(n0, base_table)
    h = _matrix_in(obj.get("h", [[0] * n1 for _ in range(n0)]), n0, n1,
                   "%s.h" % where)
    N0 = _matrix_in(obj.get("N0", [[0] * n0 for _ in range(n0)]), n0, n0,
                    "%s.N0" % where)
    N1 = _matrix_in(obj.get("N1", [[0] * n1 for _ in range(n1)]), n1, n1,
                    "%s.N1" % where)
    lam_obj = obj.get("lambda")
    if (not isinstance(lam_obj, list) or len(lam_obj) != n0 or any(
            not isinstance(row, list) or len(row) != n0 for row in lam_obj)):
        raise InputError("%s.lambda must be an %d-by-%d array of matrices"
                         % (where, n0, n0))
    action = {}
    for i in range(n0):
        for j in range(n0):
            action[(i, j)] = _matrix_in(lam_obj[i][j], n1, n1,
                                        "%s.lambda[%d][%d]" % (where, i, j))
    try:
        return CrossedModule(base, N0, n1, fiber_table, h, action, N1)
    except ValueError as exc:
        raise InputError("%s: %s" % (where, exc)) from exc


# ---------------------------------------------------------------------------
# bundles for the conversion commands

def bundle_to_obj(complex_, f, g):
    """Context plus degree-5 pair, as one payload."""
    return {
        "system": system_to_obj(complex_.system),
        "N": _matrix_out(complex_.N),
        "theta": _theta_out(complex_.rep.theta, complex_.n),
        "Nv": _matrix_out(complex_.Nv),
        "f": cochain_to_obj(f, 5),
        "g": cochain_to_obj(g, 3),
    }


def bundle_from_obj(obj, where="cocycle bundle"):
    from .cohomology import Complex
    if not isinstance(obj, dict) or "system" not in obj:
        raise InputError('%s must carry "system", "N", "theta", "Nv", '
                         '"f", "g"' % where)
    base = system_from_obj(obj["system"], "%s.system" % where)
    n = base.dim
    N = _matrix_in(obj.get("N", [[0] * n for _ in range(n)]), n, n,
                   "%s.N" % where)
    rep, Nv = rep_from_obj({"theta": obj.get("theta"), "Nv": obj.get("Nv")},
                           base, where)
    cx = Complex(base, rep, N, Nv)
    f, _ = cochain_from_obj(obj["f"], n, rep.vdim, 5, "%s.f" % where)
    g, _ = cochain_from_obj(obj["g"], n, rep.vdim, 3, "%s.g" % where)
    return cx, f, g
