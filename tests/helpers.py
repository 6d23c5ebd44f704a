"""Shared generators and independent reference recursions for the tests.

The satisfaction recursion here follows the two-relation truth/falsity
clauses directly on booleans and never touches the TruthValue
connective functions, so it can serve as an oracle for the evaluator.
"""

from __future__ import annotations

import random

from bzfc import formula as fm, selfcheck
from bzfc.checker import Model
from bzfc.sets import Atom, Element, NCSet
from bzfc.truth import TruthValue

ATOMS = tuple(Atom(ch) for ch in "abcdefgh")


def random_ncset(rng: random.Random, max_realm: int = 4, pool=ATOMS) -> NCSet:
    return selfcheck.random_ncset(rng, max_realm, pool)


# ---------------------------------------------------------------------------
# Random formulas


_UNARY = (fm.Neg, fm.CNeg, fm.Bang, fm.Query, fm.Circ)
_BINARY = (fm.Conj, fm.Amp, fm.Disj, fm.Imp, fm.StrongImp, fm.Iff, fm.StrongIff)


def random_formula(rng: random.Random, depth: int = 4,
                   var_names=("x", "y", "z"), const_names=("A", "B", "c")) -> fm.Formula:
    """A random formula over the given names; may contain written-out
    restricted binders and proposition letters.  Meant for parser
    round-trip tests."""
    names = list(var_names) + list(const_names)

    def term() -> str:
        return rng.choice(names)

    def go(d: int) -> fm.Formula:
        if d == 0:
            kind = rng.randrange(4)
            if kind == 0:
                return fm.Membership(term(), term())
            if kind == 1:
                return fm.Equality(term(), term())
            if kind == 2:
                return fm.Bottom()
            return fm.Prop(rng.choice(var_names))
        kind = rng.randrange(8)
        if kind < 2:
            return rng.choice(_UNARY)(go(d - 1))
        if kind < 5:
            return rng.choice(_BINARY)(go(d - 1), go(d - 1))
        if kind == 5:
            return go(0)
        var = rng.choice(var_names)
        binder = rng.randrange(4)
        if binder == 0:
            return fm.Forall(var, go(d - 1))
        if binder == 1:
            return fm.Exists(var, go(d - 1))
        bound = rng.choice(const_names)
        return fm.desugar(fm.Forall if binder == 2 else fm.Exists, var, bound, go(d - 1))

    return go(depth)


def random_closed_formula(rng: random.Random, model_names: list[str],
                          depth: int = 3) -> fm.Formula:
    """A random formula whose free names all resolve in the model."""

    def go(d: int, scope: tuple[str, ...]) -> fm.Formula:
        usable = list(model_names) + list(scope)

        def term() -> str:
            return rng.choice(usable)

        if d == 0 or rng.random() < 0.25:
            if rng.randrange(5) == 0:
                return fm.Bottom()
            if rng.randrange(2) == 0:
                return fm.Membership(term(), term())
            return fm.Equality(term(), term())
        kind = rng.randrange(7)
        if kind < 2:
            return rng.choice(_UNARY)(go(d - 1, scope))
        if kind < 5:
            return rng.choice(_BINARY)(go(d - 1, scope), go(d - 1, scope))
        var = rng.choice(("u", "v", "w"))
        inner = go(d - 1, scope + (var,))
        return fm.Forall(var, inner) if kind == 5 else fm.Exists(var, inner)

    return go(depth, ())


def random_model(rng: random.Random) -> Model:
    """A small model: some atoms and a couple of sets, all named."""
    pool = ATOMS[:4]
    env: dict[str, Element | NCSet] = {atom.name: atom for atom in pool}
    env["A"] = random_ncset(rng, 3, pool)
    env["B"] = random_ncset(rng, 3, pool)
    universe: list[Element | NCSet] = list(pool)
    if rng.random() < 0.5:
        universe.append(env["A"])
    return Model(universe, env)


# ---------------------------------------------------------------------------
# Independent two-relation satisfaction (the evaluator's oracle)


def expand_defined(f: fm.Formula) -> fm.Formula:
    """Rewrite every defined connective into the primitive ones via its
    defining abbreviation."""
    e = expand_defined
    if isinstance(f, (fm.Prop, fm.Membership, fm.Equality, fm.Bottom)):
        return f
    if isinstance(f, fm.Neg):
        return fm.Neg(e(f.body))
    if isinstance(f, fm.CNeg):
        return fm.Imp(e(f.body), fm.Bottom())
    if isinstance(f, fm.Bang):
        return fm.Neg(e(fm.CNeg(f.body)))
    if isinstance(f, fm.Query):
        return e(fm.CNeg(fm.Neg(f.body)))
    if isinstance(f, fm.Circ):
        return fm.Iff(e(fm.Bang(f.body)), e(fm.Query(f.body)))
    if isinstance(f, fm.Amp):
        return fm.Neg(fm.Imp(e(f.left), fm.Neg(e(f.right))))
    if isinstance(f, fm.StrongImp):
        return fm.Conj(fm.Imp(e(f.left), e(f.right)),
                       fm.Imp(fm.Neg(e(f.right)), fm.Neg(e(f.left))))
    if isinstance(f, fm.StrongIff):
        return fm.Conj(fm.Iff(e(f.left), e(f.right)),
                       fm.Iff(fm.Neg(e(f.left)), fm.Neg(e(f.right))))
    if isinstance(f, (fm.Conj, fm.Disj, fm.Imp, fm.Iff)):
        return type(f)(e(f.left), e(f.right))
    if isinstance(f, fm.Forall):
        return fm.Forall(f.var, e(f.body))
    if isinstance(f, fm.Exists):
        return fm.Exists(f.var, e(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _resolve(name: str, model: Model, bound: dict):
    if name in bound:
        return bound[name]
    return model.env[name]


def sat_pos(f: fm.Formula, model: Model, bound: dict | None = None) -> bool:
    bound = bound or {}
    if isinstance(f, fm.Bottom):
        return False
    if isinstance(f, fm.Membership):
        left = _resolve(f.left, model, bound)
        right = _resolve(f.right, model, bound)
        return isinstance(right, NCSet) and isinstance(left, Element) and left in right.bang_ext
    if isinstance(f, fm.Equality):
        left = _resolve(f.left, model, bound)
        right = _resolve(f.right, model, bound)
        if isinstance(left, NCSet) and isinstance(right, NCSet):
            return left.bang_ext == right.bang_ext and left.query_ext == right.query_ext
        if isinstance(left, Element) and isinstance(right, Element):
            return left == right
        return False
    if isinstance(f, fm.Neg):
        return sat_neg(f.body, model, bound)
    if isinstance(f, fm.Conj):
        return sat_pos(f.left, model, bound) and sat_pos(f.right, model, bound)
    if isinstance(f, fm.Disj):
        return sat_pos(f.left, model, bound) or sat_pos(f.right, model, bound)
    if isinstance(f, fm.Imp):
        return (not sat_pos(f.left, model, bound)) or sat_pos(f.right, model, bound)
    if isinstance(f, fm.Iff):
        return sat_pos(f.left, model, bound) == sat_pos(f.right, model, bound)
    if isinstance(f, fm.Forall):
        return all(sat_pos(f.body, model, {**bound, f.var: v}) for v in model.universe)
    if isinstance(f, fm.Exists):
        return any(sat_pos(f.body, model, {**bound, f.var: v}) for v in model.universe)
    raise TypeError(f"not primitive: {f!r}")


def sat_neg(f: fm.Formula, model: Model, bound: dict | None = None) -> bool:
    bound = bound or {}
    if isinstance(f, fm.Bottom):
        return True
    if isinstance(f, fm.Membership):
        left = _resolve(f.left, model, bound)
        right = _resolve(f.right, model, bound)
        if isinstance(right, NCSet) and isinstance(left, Element):
            return left not in right.query_ext
        return True
    if isinstance(f, fm.Equality):
        left = _resolve(f.left, model, bound)
        right = _resolve(f.right, model, bound)
        if isinstance(left, NCSet) and isinstance(right, NCSet):
            return not (left.bang_ext <= right.query_ext
                        and right.bang_ext <= left.query_ext)
        if isinstance(left, Element) and isinstance(right, Element):
            return left != right
        return True
    if isinstance(f, fm.Neg):
        return sat_pos(f.body, model, bound)
    if isinstance(f, fm.Conj):
        return sat_neg(f.left, model, bound) or sat_neg(f.right, model, bound)
    if isinstance(f, fm.Disj):
        return sat_neg(f.left, model, bound) and sat_neg(f.right, model, bound)
    if isinstance(f, fm.Imp):
        return sat_pos(f.left, model, bound) and sat_neg(f.right, model, bound)
    if isinstance(f, fm.Iff):
        return ((sat_pos(f.left, model, bound) and sat_neg(f.right, model, bound))
                or (sat_neg(f.left, model, bound) and sat_pos(f.right, model, bound)))
    if isinstance(f, fm.Forall):
        return any(sat_neg(f.body, model, {**bound, f.var: v}) for v in model.universe)
    if isinstance(f, fm.Exists):
        return all(sat_neg(f.body, model, {**bound, f.var: v}) for v in model.universe)
    raise TypeError(f"not primitive: {f!r}")


def truth_value_by_satisfaction(f: fm.Formula, model: Model) -> TruthValue:
    g = expand_defined(f)
    return TruthValue(sat_pos(g, model), sat_neg(g, model))
