"""Four-valued logic and finite non-classical set computation.

Truth values separate assertability from deniability; sets may contain
elements inconsistently or incompletely; sizes compare four-valuedly
and live in a three-component cardinal arithmetic that extends to
rational para-real numbers.
"""

from .cardinal import (Aleph, B_UNIT, Cardinal, ClassicalCard, Fin, N_UNIT, ONE,
                       ZERO, card_of, eval_arith, finite_lattice, lattice_dot)
from .checker import Model, eval_prop, evaluate, valid_prop
from .formula import Formula, desugar, parse, render
from .numerosity import cong_tv, preceq_tv
from .oracle import PebblePool, cong_brute, enumerate_countings, preceq_brute
from .parareal import ParaReal
from .sets import (Atom, ClassicalFn, Element, EMPTY, Nat, NCSet, Pair, Tag,
                   parse_element, parse_ncset, render_ncset)
from .truth import (ALL_VALUES, B, F, N, T, TruthValue, amp, bang, circ, cneg,
                    conj, disj, iff, imp, neg, query, strong_iff, strong_imp)

__all__ = [
    "ALL_VALUES", "Aleph", "Atom", "B", "B_UNIT", "Cardinal", "ClassicalCard",
    "ClassicalFn", "EMPTY", "Element", "F", "Fin", "Formula", "Model", "N",
    "N_UNIT", "NCSet", "Nat", "ONE", "Pair", "ParaReal", "PebblePool", "T",
    "Tag", "TruthValue", "ZERO", "amp", "bang", "card_of", "circ", "cneg",
    "cong_brute", "cong_tv", "conj", "desugar", "disj", "enumerate_countings",
    "eval_arith", "eval_prop", "evaluate", "finite_lattice", "iff", "imp",
    "lattice_dot", "neg", "parse", "parse_element", "parse_ncset",
    "preceq_brute", "preceq_tv", "query", "render", "render_ncset",
    "strong_iff", "strong_imp", "valid_prop",
]
