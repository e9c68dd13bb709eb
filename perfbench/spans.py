"""In-memory span tracer that wraps nlts entry points from the outside.

``Tracer.install(nlts)`` replaces every public function listed in
``FUNCTIONS`` at each name an ``nlts`` module binds it under (so
``nlts.cohomology.rank`` and ``nlts.linalg.rank`` both record
``linalg.rank``), and the listed ``Complex`` methods on the class;
``Tracer.uninstall()`` puts the originals back.  A
span is ``[name, start, end, parent, job]``; spans stay in a list until
the run ends.  ``LieTripleSystem.bracket`` is too hot for a span per
call, so it only bumps a counter.
"""

import os
import time
from collections import defaultdict

# (module, function) -> layer span name.  Conversions share one name.
FUNCTIONS = {
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "kernel_basis"): "linalg.kernel_basis",
    ("linalg", "solve_linear"): "linalg.solve_linear",
    ("lts", "check_lts"): "lts.check_lts",
    ("lts", "check_representation"): "lts.check_representation",
    ("operators", "nijenhuis_defect"): "operators.nijenhuis_defect",
    ("operators", "is_nijenhuis"): "operators.is_nijenhuis",
    ("operators", "induced_bracket"): "operators.induced_bracket",
    ("operators", "classify_by_square"): "operators.classify_by_square",
    ("operators", "grid_search_nijenhuis"): "operators.grid",
    ("nrep", "check_nijenhuis_rep"): "nrep.check_nijenhuis_rep",
    ("nrep", "deformed_theta"): "nrep.deformed_theta",
    ("extensions", "build_extension"): "extensions.build_extension",
    ("extensions", "validate_extension"): "extensions.validate_extension",
    ("extensions", "extensions_equivalent"): "extensions.extensions_equivalent",
    ("twosys", "check_2system"): "twosys.check_2system",
    ("twosys", "check_nijenhuis_2system"): "twosys.check_nijenhuis_2system",
    ("twosys", "check_crossed_module"): "twosys.check_crossed_module",
    ("twosys", "skeletal_to_cocycle"): "twosys.convert",
    ("twosys", "cocycle_to_skeletal"): "twosys.convert",
    ("twosys", "strict_to_crossed_module"): "twosys.convert",
    ("twosys", "crossed_module_to_strict"): "twosys.convert",
    ("jsonio", "load_json"): "jsonio.load",
    ("jsonio", "dumps"): "jsonio.dump",
    ("jsonio", "dump_json"): "jsonio.dump",
    ("cli", "run"): "cli.run",
}

# Complex methods that take a degree: (position of the degree among the
# arguments, shift to the degree of the d-matrix the call assembles).
DEGREE_METHODS = {
    "d_rank": (1, 0),
    "kernel_pairs": (1, 0),
    "cohomology_dim": (1, 0),
    "is_coboundary": (3, -2),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.patches = []   # (owner, attribute, original, wrapper)

    # -- recording ----------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn, note=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                note(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, nlts):
        """Wrap the entry points of every nlts module in place."""
        if not self.patches:
            self.patches = self._patches(nlts)
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _patches(self, nlts):
        import importlib
        modules = {m: importlib.import_module("nlts." + m)
                   for m in ("linalg", "lts", "operators", "nrep", "cohomology",
                             "extensions", "twosys", "jsonio", "cli")}
        modules[""] = nlts
        wrapped = {}
        for (mod, fname), span in FUNCTIONS.items():
            fn = getattr(modules[mod], fname)
            wrapped[id(fn)] = self._span(span, fn, self._noter(span))
        jsonio = modules["jsonio"]
        for fname in dir(jsonio):
            fn = getattr(jsonio, fname)
            if fname.endswith("_from_obj"):
                wrapped[id(fn)] = self._span("jsonio.load", fn)
            elif fname.endswith("_to_obj"):
                wrapped[id(fn)] = self._span("jsonio.dump", fn)
        patches = []
        for module in modules.values():
            for attr, value in vars(module).items():
                if id(value) in wrapped and callable(value):
                    patches.append((module, attr, value, wrapped[id(value)]))

        Complex = modules["cohomology"].Complex
        for meth, name in (("__init__", "cohomology.complex_init"),
                           ("is_cocycle", "cohomology.is_cocycle")):
            fn = getattr(Complex, meth)
            patches.append((Complex, meth, fn, self._span(name, fn)))
        for meth, (pos, shift) in DEGREE_METHODS.items():
            def label(args, kwargs, meth=meth, pos=pos, shift=shift):
                deg = args[pos] if len(args) > pos else kwargs["degree"]
                return "cohomology.%s.deg%d" % (meth, deg + shift)
            fn = getattr(Complex, meth)
            patches.append((Complex, meth, fn, self._span(
                label, fn, self._matrix_noter(meth))))

        LTS = modules["lts"].LieTripleSystem
        plain = LTS.bracket
        counts = self.counts
        tracer = self

        def bracket(self_, x, y, z):
            if tracer.on:
                counts["lts.bracket.calls"] += 1
            return plain(self_, x, y, z)

        patches.append((LTS, "bracket", plain, bracket))
        return patches

    def _noter(self, span):
        counts = self.counts
        if span.startswith("linalg."):
            def note(args, out):
                rows = args[0]
                counts["linalg.entries"] += len(rows) * (len(rows[0]) if rows else 0)
            return note
        if span == "operators.grid":
            def note(args, out):
                system, values = args[0], args[1]
                counts["operators.grid.candidates"] += (
                    len(set(values)) ** (system.dim * system.dim))
                counts["operators.grid.hits"] += len(out)
            return note
        if span == "extensions.build_extension":
            def note(args, out):
                counts["extensions.valid"] += out[1].ok
            return note
        if span == "jsonio.load":
            def note(args, out):
                counts["jsonio.bytes"] += os.path.getsize(args[0])
            return note
        if span == "jsonio.dump":
            def note(args, out):
                if isinstance(out, str):
                    counts["jsonio.bytes"] += len(out.encode("utf-8"))
            return note
        return None

    def _matrix_noter(self, meth):
        """Shape and rank of the d-matrix, from public dimensions only."""
        if meth not in ("d_rank", "kernel_pairs"):
            return None
        counts = self.counts
        from nlts.cohomology import cochain_space_dim

        def note(args, out):
            cx, deg = args[0], args[1]

            def space(d):
                return cochain_space_dim(cx.n, cx.m, d) if d >= 1 else 0
            cols = space(deg) + space(deg - 2)
            rows = space(deg + 2) + space(deg)
            rank = out if meth == "d_rank" else cols - len(out)
            key = "cohomology.matrix.deg%d." % deg
            counts[key + "rows"] += rows
            counts[key + "cols"] += cols
            counts[key + "rank"] += rank
        return note

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]
