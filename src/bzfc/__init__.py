"""Four-valued logic and finite non-classical set computation.

Truth values separate assertability from deniability; sets may contain
elements inconsistently or incompletely; sizes compare four-valuedly
and live in a three-component cardinal arithmetic that extends to
rational para-real numbers.

Importing the package imports none of its modules: the first use of a
name below imports the module that defines it (PEP 562), so a caller
pays only for the modules it touches.
"""

import importlib

_EXPORTS = {
    "cardinal": ("Aleph", "B_UNIT", "Cardinal", "ClassicalCard", "N_UNIT", "ONE",
                 "ZERO", "card_of", "eval_arith", "finite_lattice", "lattice_dot"),
    "checker": ("Model", "eval_prop", "evaluate", "valid_prop"),
    "formula": ("Formula", "desugar", "parse", "render"),
    "numerosity": ("cong_tv", "preceq_tv"),
    "oracle": ("cong_brute", "enumerate_countings", "preceq_brute"),
    "parareal": ("ParaReal",),
    "sets": ("Atom", "ClassicalFn", "Element", "Nat", "NCSet", "Pair", "Tag", "parse_ncset"),
    "truth": ("ALL_VALUES", "B", "F", "N", "T", "TruthValue", "amp", "bang", "circ", "cneg",
              "conj", "disj", "iff", "imp", "neg", "query", "strong_iff", "strong_imp"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:  # a submodule, or nothing: the import system decides
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
