"""Exact computer algebra for Nijenhuis operators on Lie triple systems.

Everything runs over the rationals with `fractions.Fraction`, so every
verdict is exact: axiom checks, deformed brackets, the operator cochain
complex and its cohomology dimensions, abelian extensions and their
classification, and the translations between skeletal 2-systems,
degree-5 cocycle pairs, and crossed modules.

Each submodule is imported the first time one of its names (or the
submodule itself) is looked up on the package, so a program that only
checks operator identities never loads the cohomology or 2-system code.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "linalg": (
        "Rational", "format_rational", "parse_rational",
        "ident", "zeros", "matmul", "matvec",
        "rank", "kernel_basis", "solve_linear",
    ),
    "lts": (
        "Report", "LieTripleSystem", "LieAlgebra", "Representation",
        "check_lts", "check_lie_algebra", "check_representation",
        "lts_from_lie_algebra", "adjoint_rep", "trivial_rep",
        "l2", "abelian", "sl2_lie", "solv3_lie", "direct_sum",
    ),
    "operators": (
        "BudgetExceeded", "nijenhuis_defect", "is_nijenhuis",
        "is_rota_baxter", "is_modified_rb", "rb_to_modified",
        "induced_bracket", "is_morphism", "classify_by_square",
        "grid_search_nijenhuis",
    ),
    "nrep": (
        "check_nijenhuis_rep", "deformed_theta", "induce_rep",
        "is_trivial_action",
    ),
    "cohomology": (
        "Complex", "cochain_space_dim", "zero_cochain", "normalize_cochain",
        "validate_cochain",
    ),
    "extensions": (
        "AbelianExtension", "build_extension", "validate_extension",
        "extract_cocycle", "induced_representation", "extensions_equivalent",
    ),
    "twosys": (
        "LieTriple2System", "Nijenhuis2Structure", "CrossedModule",
        "check_2system", "check_nijenhuis_2system",
        "skeletal_to_cocycle", "cocycle_to_skeletal",
        "check_crossed_module", "strict_to_crossed_module",
        "crossed_module_to_strict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        module = importlib.import_module("." + _HOME[name], __name__)
        return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
