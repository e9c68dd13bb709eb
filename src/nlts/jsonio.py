"""JSON payloads for every object the command-line tools exchange.

Scalars travel as exact strings "p" or "p/q" (plain integers are also
accepted on input).  Sparse tensors are lists of entries
``{"args": [...], "out": {"index": "p/q", ...}}`` with omitted entries
equal to zero.  Serialization is deterministic: keys are sorted and the
layout is fixed, so identical objects produce identical bytes.

Each payload kind is one key table, read by ``_walk``: a missing required
key, then a key outside the table, is refused; each key is then read in
order, its path named in every message.  Absent optional keys are zero.

Readers import the layer of the object they build when called, so
reading a system or an operator loads no cochain or 2-system code.
"""

import json
import sys

from .linalg import format_rational, parse_rational
from .lts import LieTripleSystem, Representation


class InputError(ValueError):
    """Malformed or ill-typed payload; command-line tools exit 2 on it."""


_ABSENT = object()


def _unique_keys(pairs):
    """A JSON object; a repeated key is refused (json.load keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k in obj if sum(q == k for q, _ in pairs) > 1)
        raise InputError("repeated key %s" % json.dumps(key))
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _DECODER.decode(fh.read())
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from exc
    except InputError as exc:
        raise InputError("%s in %s" % (exc, path)) from exc


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _scalar(value, where, got=None):
    if value is _ABSENT:
        return None
    try:
        return parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise InputError("bad rational %r in %s" % (value, where)) from exc


def _is_index(a):
    """JSON integers only: ``true`` and ``false`` are not indices."""
    return type(a) is int


def _matrix_out(M):
    return [[format_rational(x) for x in row] for row in M]


def _theta_out(theta, n):
    """The matrices theta(e_i, e_j) of an action as an n-by-n array."""
    return [[_matrix_out(theta[(i, j)]) for j in range(n)] for i in range(n)]


def _vec_out(v):
    return {str(i): format_rational(x) for i, x in enumerate(v) if x != 0}


def _entries_out(table):
    entries = []
    for key in sorted(table):
        v = table[key]
        if any(x != 0 for x in v):
            entries.append({"args": list(key), "out": _vec_out(v)})
    return entries


# ---------------------------------------------------------------------------
# the walker and its readers

def _walk(obj, where, got, kind, must, rows):
    """Read obj by its kind's key table into a copy of got, what the caller
    knows.  rows maps each key to (required, reader, *args), and
    reader(value, path, got, *args) sees the keys read before it, so _walk
    reads nested kinds; with no reader the value is taken as it is.  A key
    given in got may be omitted, and must agree where present."""
    got = dict(got)
    if not isinstance(obj, dict) or (obj.keys() != rows.keys() and any(
            row[0] and key not in obj and got.get(key) is None
            for key, row in rows.items())):
        raise InputError("%s must %s" % (where, must))
    unknown = obj.keys() - rows.keys()
    if unknown:
        raise InputError("%s has keys outside the %s schema: %s"
                         % (where, kind, ", ".join(sorted(unknown))))
    for key, row in rows.items():
        given = got.get(key)
        if key in obj or given is None:
            value = obj.get(key, _ABSENT)
            if row[1]:
                value = row[1](value, "%s.%s" % (where, key), got, *row[2:])
            if given is not None and value != given:
                raise InputError("%s has %s %d, expected %d"
                                 % (where, key, value, given))
            got[key] = value
    return got


def _size(spec, got):
    """A size in a table: a path into got, a function of it, or a number."""
    if isinstance(spec, str):
        for key in spec.split("."):
            got = got[key]
        return got
    return spec(got) if callable(spec) else spec


def _count(value, where, got, text="a nonnegative integer", ok=None):
    if not (_is_index(value) and value >= 0 and (ok is None or ok(value))):
        raise InputError("%s must be %s" % (where, text))
    if value > sys.maxsize:
        raise InputError("%s must be at most %d" % (where, sys.maxsize))
    return value


def _matrix(obj, where, got, rows, cols, cell=_scalar):
    """A rows-by-cols matrix, zero when absent, each entry read by cell."""
    rows, cols = _size(rows, got), _size(cols, got)
    if obj is _ABSENT:
        return ((0,) * cols,) * rows
    if not isinstance(obj, list) or len(obj) != rows:
        raise InputError("%s must be a list of %d rows" % (where, rows))
    out = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError("%s row %d must have %d entries" % (where, r, cols))
        out.append(tuple(cell(x, "%s[%d]" % (where, r)) for x in row))
    return tuple(out)


def _theta(obj, where, got, n, m=None):
    """n-by-n matrices of size m, keyed (i, j); m defaults to the first's."""
    cells = _matrix(obj, where, got, n, n, lambda cell, path: cell)
    if m is None and cells:
        if not isinstance(cells[0][0], list) or not cells[0][0]:
            raise InputError("%s must hold nonempty matrices" % where)
        m = len(cells[0][0])
    return {(i, j): _matrix(M, "%s[%d][%d]" % (where, i, j), got, m, m)
            for i, row in enumerate(cells) for j, M in enumerate(row)}


def _vec(obj, length, where):
    """An {"index": value} object, each index key written as str(i)."""
    out = [0] * length
    if obj is _ABSENT:
        return tuple(out)
    if not isinstance(obj, dict):
        raise InputError("%s must be an object of index: value" % where)
    for key, value in obj.items():
        try:
            i = int(key)
        except ValueError:
            i = -1
        if key != str(i) or not 0 <= i < length:
            raise InputError("bad index %r in %s" % (key, where))
        out[i] = _scalar(value, where)
    return tuple(out)


def _entries(obj, where, got, shape, outdim, entry=(
        "entry", 'be {"args": [...], "out": {...}}',
        {"args": (True, None), "out": (True, None)})):
    """A list of entries, each index tuple of the given shape at most once."""
    if obj is _ABSENT:
        return {}
    if not isinstance(obj, list):
        raise InputError("%s must be a list of entries" % where)
    dims = [_size(s, got) for s in _size(shape, got)]
    length = _size(outdim, got)
    table = {}
    for c, item in enumerate(obj):
        label = "%s[%d]" % (where, c)
        # an entry with exactly the keys of its table reads as itself
        e = (item if type(item) is dict and item.keys() == entry[2].keys()
             else _walk(item, label, {}, *entry))
        key = e.get("args", (e.get("i"), e.get("j"), e.get("k")))
        if "args" in e and not (isinstance(key, list) and len(key) == len(dims)
                                and all(_is_index(a) for a in key)):
            raise InputError("%s args must list %d indices" % (label, len(dims)))
        key = tuple(key)
        if not all(_is_index(a) and 0 <= a < s for a, s in zip(key, dims)):
            raise InputError("%s indices out of range" % label)
        if key in table:
            raise InputError("%s repeats the entry at %r" % (label, key))
        table[key] = _vec(e["out"], length, label + ".out")
    return table


def _cochain(obj, where, got, degree, dim="dim", vdim="vdim"):
    return cochain_from_obj(obj, _size(dim, got), _size(vdim, got),
                            _size(degree, got), where)[0]


def _companion(obj, where, got):
    """The g of a pair: two degrees below f; in degree 1 nothing reads it."""
    if obj is _ABSENT or obj is None:
        return None
    if got["degree"] == 1:
        raise InputError("%s must be null in degree 1" % where)
    return _cochain(obj, where, got, got["degree"] - 2)


def _fiber_operator(obj, where, got):
    """Nv, m by m for the size m of the theta matrices; over a 0-dimensional
    base there are none, and Nv's row count is m."""
    if got["theta"]:
        m = len(got["theta"][(0, 0)])
    elif isinstance(obj, list):
        m = len(obj)
    else:
        raise InputError("%s must be a square matrix" % where)
    return _matrix(obj, where, got, m, m)


def _vdim(got):
    return len(got["Nv"])


# ---------------------------------------------------------------------------
# triple systems

def system_to_obj(system):
    bracket = []
    for (i, j, k) in sorted(system.table):
        bracket.append({"i": i, "j": j, "k": k,
                        "out": _vec_out(system.table[(i, j, k)])})
    return {"dim": system.dim, "bracket": bracket}


_SYSTEM = ("system", 'be {"dim": n, "bracket": [...]}', {
    "dim": (True, _count),
    "bracket": (False, _entries, ("dim",) * 3, "dim", (
        "bracket entry", 'be {"i": i, "j": j, "k": k, "out": {...}}',
        {"i": (True, None), "j": (True, None), "k": (True, None),
         "out": (False, None)}))})


def system_from_obj(obj, where="system"):
    got = _walk(obj, where, {}, *_SYSTEM)
    return LieTripleSystem(got["dim"], got["bracket"])


# ---------------------------------------------------------------------------
# operators

def operator_to_obj(matrix, weight=None):
    obj = {"dim": len(matrix), "matrix": _matrix_out(matrix)}
    if weight is not None:
        obj["weight"] = format_rational(weight)
    return obj


def operator_from_obj(obj, dim=None, where="operator"):
    got = _walk(obj, where, {"dim": dim}, "operator",
                'be {"dim": n, "matrix": [...]}',
                {"dim": (True, _count),
                 "matrix": (True, _matrix, "dim", "dim"),
                 "weight": (False, _scalar)})
    return got["matrix"], got["weight"]


# ---------------------------------------------------------------------------
# representations with fiber operator

def rep_to_obj(rep, Nv):
    return {"theta": _theta_out(rep.theta, rep.base.dim),
            "Nv": _matrix_out(Nv)}


def rep_from_obj(obj, base, where="representation"):
    got = _walk(obj, where, {"dim": base.dim}, "representation",
                'be {"theta": [...], "Nv": [...]}',
                {"theta": (True, _theta, "dim"),
                 "Nv": (True, _fiber_operator)})
    return Representation(base, len(got["Nv"]), got["theta"]), got["Nv"]


# ---------------------------------------------------------------------------
# cochains

def cochain_to_obj(f, degree):
    return {"degree": degree, "entries": _entries_out(f)}


def cochain_from_obj(obj, dim, vdim, degree=None, where="cochain"):
    from .cohomology import normalize_cochain
    got = _walk(obj, where, {"degree": degree}, "cochain",
                'be {"degree": d, "entries": [...]}',
                {"degree": (True, _count, "an odd positive integer",
                            lambda d: d % 2),
                 "entries": (True, _entries,
                             lambda got: (dim,) * got["degree"], vdim)})
    d = got["degree"]
    return normalize_cochain(got["entries"], dim, vdim, d), d


def pair_to_obj(f, g, degree):
    obj = {"degree": degree, "f": cochain_to_obj(f, degree)}
    obj["g"] = None if g is None else cochain_to_obj(g, degree - 2)
    return obj


def pair_from_obj(obj, dim, vdim, degree=None, where="cochain pair"):
    got = _walk(obj, where, {"dim": dim, "vdim": vdim, "degree": degree},
                "cochain pair", 'be {"degree": d, "f": {...}, "g": {...}}',
                {"degree": (True, _count, "1, 3, or 5", lambda d: d in (1, 3, 5)),
                 "f": (True, _cochain, "degree"),
                 "g": (False, _companion)})
    return got["f"], got["g"], got["degree"]


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
    got = _walk(obj, where, {}, "extension",
                'have "base", "fiber", "theta", "psi", "chi"',
                {"base": (True, _walk, "extension base",
                          'be {"dim": n, "bracket": [...], "N": [...]}',
                          {**_SYSTEM[2], "N": (True, _matrix, "dim", "dim")}),
                 "fiber": (True, _walk, "fiber", 'be {"vdim": m, "Nv": [...]}',
                           {"vdim": (True, _count, "a positive integer", bool),
                            "Nv": (True, _matrix, "vdim", "vdim")}),
                 "theta": (True, _theta, "base.dim", "fiber.vdim"),
                 "psi": (False, _entries, ("base.dim",) * 3, "fiber.vdim"),
                 "chi": (False, _matrix, "fiber.vdim", "base.dim")})
    base, fiber = got["base"], got["fiber"]
    system = LieTripleSystem(base["dim"], base["bracket"])
    rep = Representation(system, fiber["vdim"], got["theta"])
    return AbelianExtension(system, rep, base["N"], fiber["Nv"], got["psi"],
                            got["chi"])


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


def twosys_from_obj(obj, where="2-system"):
    from .twosys import LieTriple2System, Nijenhuis2Structure
    got = _walk(obj, where, {}, "2-system", 'carry "dim0" and "dim1"', {
        "dim0": (True, _count), "dim1": (True, _count),
        "h": (False, _matrix, "dim0", "dim1"),
        "l3_000": (False, _entries, ("dim0",) * 3, "dim0"),
        "l3_t1slot0": (False, _entries, ("dim1", "dim0", "dim0"), "dim1"),
        "l3_t1slot1": (False, _entries, ("dim0", "dim1", "dim0"), "dim1"),
        "l3_t1slot2": (False, _entries, ("dim0", "dim0", "dim1"), "dim1"),
        "l5": (False, _entries, ("dim0",) * 5, "dim1"),
        "N0": (False, _matrix, "dim0", "dim0"),
        "N1": (False, _matrix, "dim1", "dim1"),
        "N2": (False, _entries, ("dim0",) * 3, "dim1")})
    n0, n1 = got["dim0"], got["dim1"]
    sys2 = LieTriple2System(n0, n1, got["h"], got["l3_000"], got["l3_t1slot0"],
                            got["l3_t1slot1"], got["l3_t1slot2"], got["l5"])
    if not {"N0", "N1", "N2"} & obj.keys():
        return sys2, None
    if not {"N0", "N1"} <= obj.keys():
        raise InputError("%s needs both N0 and N1 for a Nijenhuis "
                         "structure" % where)
    return sys2, Nijenhuis2Structure(n0, n1, got["N0"], got["N1"], got["N2"])


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
    got = _walk(obj, where, {}, "crossed module",
                'carry "dim0", "dim1" and "lambda"', {
        "dim0": (True, _count), "dim1": (True, _count),
        "bracket0": (False, _entries, ("dim0",) * 3, "dim0"),
        "bracket1": (False, _entries, ("dim1",) * 3, "dim1"),
        "h": (False, _matrix, "dim0", "dim1"),
        "N0": (False, _matrix, "dim0", "dim0"),
        "N1": (False, _matrix, "dim1", "dim1"),
        "lambda": (True, _theta, "dim0", "dim1")})
    return CrossedModule(LieTripleSystem(got["dim0"], got["bracket0"]),
                         got["N0"], got["dim1"], got["bracket1"], got["h"],
                         got["lambda"], got["N1"])


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
    got = _walk(obj, where, {}, "cocycle bundle",
                'carry "system", "N", "theta", "Nv", "f", "g"', {
                    "system": (True, _walk, *_SYSTEM),
                    "N": (False, _matrix, "system.dim", "system.dim"),
                    "theta": (True, _theta, "system.dim"),
                    "Nv": (True, _fiber_operator),
                    "f": (True, _cochain, 5, "system.dim", _vdim),
                    "g": (True, _cochain, 3, "system.dim", _vdim)})
    system = LieTripleSystem(got["system"]["dim"], got["system"]["bracket"])
    rep = Representation(system, len(got["Nv"]), got["theta"])
    return Complex(system, rep, got["N"], got["Nv"]), got["f"], got["g"]
