"""Four-valued evaluation of formulas over finite models.

A model carries a finite ordered universe (elements and/or sets) and a
name environment.  Quantifiers range over the declared universe, not
over everything there is; this makes evaluation total and testable and
is the one deliberate departure from the intended class-sized domain.

``valid_prop`` decides propositional validity by exhausting all
assignments of the four truth values to the letters.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Union

from . import formula as fm
from .errors import EmptyUniverse, GuardExceeded, NotPropositional, UnresolvedName
from .sets import Element, NCSet
from .truth import ALL_VALUES, F, T, TruthValue, amp, bang, circ, cneg, conj, disj, iff, imp, neg, query, strong_iff, strong_imp
from .value import Value

DomainValue = Union[Element, NCSet]

MAX_PROP_LETTERS = 10

_UNARY_OPS = {fm.Neg: neg, fm.CNeg: cneg, fm.Bang: bang, fm.Query: query, fm.Circ: circ}
_BINARY_OPS = {fm.Conj: conj, fm.Amp: amp, fm.Disj: disj, fm.Imp: imp,
               fm.StrongImp: strong_imp, fm.Iff: iff, fm.StrongIff: strong_iff}


class Model(Value):
    """A finite structure: ordered universe plus constant bindings."""

    __slots__ = ("universe", "env")

    def __init__(self, universe: Iterable[DomainValue] = (),
                 env: Mapping[str, DomainValue] | None = None):
        object.__setattr__(self, "universe", tuple(universe))
        object.__setattr__(self, "env", dict(env or {}))


def evaluate(f: fm.Formula, model: Model) -> TruthValue:
    """The truth value of a closed formula in the model."""
    return _eval(fm.desugar(f), model, {})


def _resolve(term: fm.Term, model: Model, bound: dict[str, DomainValue]) -> DomainValue:
    if term.name in bound:
        return bound[term.name]
    if term.name in model.env:
        return model.env[term.name]
    raise UnresolvedName(term.name)


def _eval(f: fm.Formula, model: Model, bound: dict[str, DomainValue]) -> TruthValue:
    if isinstance(f, fm.Bottom):
        return F
    if isinstance(f, fm.Prop):
        raise UnresolvedName(f.name)
    if isinstance(f, fm.Membership):
        left = _resolve(f.left, model, bound)
        right = _resolve(f.right, model, bound)
        if isinstance(right, NCSet) and isinstance(left, Element):
            return right.member_tv(left)
        return F  # only sets have members, and only elements are members
    if isinstance(f, fm.Equality):
        left = _resolve(f.left, model, bound)
        right = _resolve(f.right, model, bound)
        if isinstance(left, Element) and isinstance(right, Element):
            return T if left == right else F
        if isinstance(left, NCSet) and isinstance(right, NCSet):
            return left.eq_tv(right)
        return F  # an element is plainly not a set
    op = _UNARY_OPS.get(type(f))
    if op is not None:
        return op(_eval(f.body, model, bound))
    op = _BINARY_OPS.get(type(f))
    if op is not None:
        return op(_eval(f.left, model, bound), _eval(f.right, model, bound))
    if isinstance(f, (fm.Forall, fm.Exists)):
        if not model.universe:
            raise EmptyUniverse()
        instances = []
        for value in model.universe:
            inner = dict(bound)
            inner[f.var] = value
            instances.append(_eval(f.body, model, inner))
        if isinstance(f, fm.Forall):
            return TruthValue(all(tv.assertable for tv in instances),
                              any(tv.deniable for tv in instances))
        return TruthValue(any(tv.assertable for tv in instances),
                          all(tv.deniable for tv in instances))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Propositional validity


def eval_prop(f: fm.Formula, assignment: Mapping[str, TruthValue]) -> TruthValue:
    """Evaluate a propositional formula under a letter assignment."""
    if isinstance(f, fm.Prop):
        return assignment[f.name]
    if isinstance(f, fm.Bottom):
        return F
    op = _UNARY_OPS.get(type(f))
    if op is not None:
        return op(eval_prop(f.body, assignment))
    op = _BINARY_OPS.get(type(f))
    if op is not None:
        return op(eval_prop(f.left, assignment), eval_prop(f.right, assignment))
    raise NotPropositional(type(f).__name__)


def valid_prop(f: fm.Formula) -> tuple[bool, dict[str, TruthValue] | None]:
    """Whether f is assertable under every assignment; if not, one that
    falsifies it."""
    letters = fm.prop_letters(f)
    if len(letters) > MAX_PROP_LETTERS:
        raise GuardExceeded(
            f"{len(letters)} letters would need 4**{len(letters)} assignments "
            f"(limit {MAX_PROP_LETTERS})")
    for values in itertools.product(ALL_VALUES, repeat=len(letters)):
        assignment = dict(zip(letters, values))
        if not eval_prop(f, assignment).is_designated:
            return False, assignment
    return True, None
