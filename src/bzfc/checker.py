"""Four-valued evaluation of formulas over finite models.

A model is a finite ordered universe (elements and/or sets) and a name
environment.  Quantifiers range over the declared universe only; this makes
evaluation total, the one deliberate departure from the class-sized domain.

One engine serves ``evaluate``, ``eval_prop`` and ``valid_prop``.  ``_compile``
turns a formula, once per call, into a node over an environment of slots:
letter i takes slot i, and a bound variable the slot of its binder depth,
holding its entry's position in the universe.  Nodes compute codes, a truth
value's index in ``ALL_VALUES`` (t, b, n, f = 0-3; below 2 is assertable),
by tables built from ``truth``.  One rule shapes them: what reads no slot is
computed once, and what reads one slot once per value of it.  So a node is a
constant code, a row ``(slot, codes)`` (a letter, or an atom over one bound
variable) or a closure.  Connectives map constants and rows through their
tables and merge two rows on one slot; a quantifier, the idempotent meet or
join of its instances, keeps a constant or a row over an outer slot and
reduces a row over its own.  A closure reads rows inline and skips its right
operand when the left code fixes the result (``_FIXED``), as McCarthy's
conditional and/or do.  ``MAX_WORK`` bounds the work: each node is charged,
before any folding, the most times it can run (4^k under ``valid_prop``,
|U|^d below d binders; for an atom over two bound variables, times the
longest entry's printed length).  An unresolved name, an empty universe or
work past the limit raises as it is compiled, the first one a walk of the
tree meets, so the compiled formula raises nothing.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from . import formula as fm
from .errors import GuardError, GuardExceeded, NotPropositional, UnresolvedName
from .sets import Element, NCSet
from .truth import ALL_VALUES, F, T, TruthValue, amp, bang, circ, cneg, conj, disj, iff, imp, neg, query, strong_iff, strong_imp
from .value import Value

DomainValue = Union[Element, NCSet]
Node = Union[int, tuple, Callable[[Any], int]]  # a code, a (slot, codes) row or a closure

MAX_WORK = 2 ** 23  # node runs; the slowest shape takes about 2 s on a 2-core VM (README)

_ATOMS = (fm.Membership, fm.Equality)
_CODE = {value: code for code, value in enumerate(ALL_VALUES)}
_T, _F = _CODE[T], _CODE[F]
_LETTER = (0, 1, 2, 3)  # a letter's row: its own code
_UNARY = {kind: tuple([_CODE[op(x)] for x in ALL_VALUES]) for kind, op in {
    fm.Neg: neg, fm.CNeg: cneg, fm.Bang: bang, fm.Query: query, fm.Circ: circ}.items()}
_BINARY = {kind: tuple([tuple([_CODE[op(x, y)] for y in ALL_VALUES]) for x in ALL_VALUES]) for kind, op in {
    fm.Conj: conj, fm.Amp: amp, fm.Disj: disj, fm.Imp: imp, fm.StrongImp: strong_imp,
    fm.Iff: iff, fm.StrongIff: strong_iff}.items()}
# For each left code, the result it fixes whatever the right code (a constant row), else None.
_FIXED = {kind: tuple([row[0] if len(set(row)) == 1 else None for row in table])
          for kind, table in _BINARY.items()}


class Model(Value):
    """A finite structure: ordered universe plus constant bindings."""

    __slots__ = ("universe", "env")

    def __init__(self, universe: Iterable[DomainValue] = (),
                 env: Mapping[str, DomainValue] | None = None):
        self._assign(tuple(universe), dict(env or {}))


def evaluate(f: fm.Formula, model: Model) -> TruthValue:
    """The truth value of a closed formula in the model."""
    node = _compile(f, model, (), 1, [0])  # no row: a closed formula reads no slot of its own
    return ALL_VALUES[node if isinstance(node, int) else node([])]


def eval_prop(f: fm.Formula, assignment: Mapping[str, TruthValue]) -> TruthValue:
    """Evaluate a propositional formula under a letter assignment."""
    codes = tuple([_CODE[value] for value in assignment.values()])
    node = _compile(f, None, tuple(assignment), 1, [0])
    if isinstance(node, tuple):
        node = node[1][codes[node[0]]]
    return ALL_VALUES[node if isinstance(node, int) else node(codes)]


def valid_prop(f: fm.Formula) -> tuple[bool, dict[str, TruthValue] | None]:
    """Whether f is assertable under every assignment; if not, the first
    one, in ``itertools.product`` order over t, b, n, f, that falsifies it."""
    letters = fm.prop_letters(f)
    value = _compile(f, None, letters, 4 ** len(letters), [0])
    if not callable(value):  # it reads one letter or none, so the first failure sets the rest t
        slot, row = value if isinstance(value, tuple) else (0, (value,))
        return next(((False, {name: ALL_VALUES[code if i == slot else 0] for i, name in enumerate(letters)})
                     for code, x in enumerate(row) if x > 1), (True, None))
    for codes in itertools.product(range(4), repeat=len(letters)):
        if value(codes) > 1:
            return False, dict(zip(letters, [ALL_VALUES[code] for code in codes]))
    return True, None


def _compile(f: fm.Formula, model: Model | None, scope: Sequence[str],
             runs: int, spent: list[int]) -> Node:
    """``f`` as a node over the environment, to be run ``runs`` times.  ``scope``
    names the slots, which are the letters when ``model`` is None (a
    propositional formula); ``spent[0]`` is the work charged so far."""
    spent[0] += runs * _weight(f, model, scope, spent) if isinstance(f, _ATOMS) else runs
    if spent[0] > MAX_WORK:
        raise GuardExceeded(f"the formula needs more than {MAX_WORK:,} node evaluations "
                            "(the work limit)")
    table = _UNARY.get(type(f))
    if table is not None:
        return _map(table, _compile(f.body, model, scope, runs, spent))
    table = _BINARY.get(type(f))
    if table is not None:  # a map when an operand is a constant; rows on one slot merge
        left = _compile(f.left, model, scope, runs, spent)
        right = _compile(f.right, model, scope, runs, spent)
        if isinstance(left, int):
            return _map(table[left], right)
        if isinstance(right, int):
            return _map(tuple([row[right] for row in table]), left)
        fixed = _FIXED[type(f)]
        if isinstance(left, tuple):
            i, x = left
            if isinstance(right, tuple):
                j, y = right
                if i == j:
                    return _row(i, tuple([table[a][b] for a, b in zip(x, y)]))
                return lambda env: table[x[env[i]]][y[env[j]]]
            return lambda env: table[c][right(env)] if fixed[c := x[env[i]]] is None else fixed[c]
        if isinstance(right, tuple):
            j, y = right
            return lambda env: table[left(env)][y[env[j]]]
        return lambda env: table[c][right(env)] if fixed[c := left(env)] is None else fixed[c]
    if isinstance(f, fm.Bottom):
        return _F
    if isinstance(f, fm.Prop):
        if model is None:
            slot = _slot(scope, f.name)
            if slot is None:
                raise KeyError(f.name)
            return slot, _LETTER
        raise UnresolvedName(f.name)
    if model is None:
        raise NotPropositional(type(f).__name__)
    if isinstance(f, fm.Quantifier):
        positions, depth = range(len(model.universe)), len(scope)
        if not positions:
            raise GuardError("quantifier evaluated over an empty universe; declare one")
        body = _compile(f.body, model, (*scope, f.var), runs * len(positions), spent)
        # forall is the /\ of its instances and exists their \/, both idempotent.
        table, start = (_BINARY[fm.Conj], _T) if isinstance(f, fm.Forall) else (_BINARY[fm.Disj], _F)
        if not callable(body):  # the same on every instance, or a row to reduce
            return body if isinstance(body, int) or body[0] < depth else reduce(
                lambda value, code: table[value][code], body[1], start)

        def quantify(env: list) -> int:
            env.append(None)
            value = start
            for position in positions:
                env[depth] = position
                value = table[value][body(env)]
            env.pop()
            return value

        return quantify
    if isinstance(f, _ATOMS):
        return _atom(_member if isinstance(f, fm.Membership) else _equal, f, model, scope)
    raise TypeError(f"not a formula: {f!r}")


def _map(table: tuple[int, ...], node: Node) -> Node:
    """``node`` through a unary connective's table, or a binary one's row or column."""
    if isinstance(node, int):
        return table[node]
    if isinstance(node, tuple):
        slot, row = node
        return _row(slot, table if row is _LETTER else tuple([table[code] for code in row]))
    return table[0] if len(set(table)) == 1 else lambda env: table[node(env)]


def _row(slot: int, codes: tuple[int, ...]) -> Node:
    """A row of codes over ``slot``, or its one code if it holds only one."""
    return codes[0] if len(set(codes)) == 1 else (slot, codes)


def _atom(relate: Callable[[DomainValue, DomainValue], int],
          f: fm.Membership | fm.Equality, model: Model, scope: Sequence[str]) -> Node:
    """``relate`` on the values of the atom's terms: computed here when
    both are constants, tabulated over the universe when they read one
    bound variable, and computed per instance when they read two."""
    terms = f.left, f.right
    left, right = slots = [_slot(scope, name) for name in terms]
    for name, slot in zip(terms, slots):
        if slot is None and name not in model.env:
            raise UnresolvedName(name)
    universe = model.universe
    if None not in slots and left != right:
        return lambda env: relate(universe[env[left]], universe[env[right]])

    def at(u: DomainValue | None) -> int:
        return relate(model.env[terms[0]] if left is None else u,
                      model.env[terms[1]] if right is None else u)

    slot = right if left is None else left
    if slot is None:
        return at(None)
    # Built from a list: from a generator, 20 ``fo-eval`` rounds peaked 0.8 MiB higher (tracemalloc).
    return _row(slot, tuple([at(u) for u in universe]))


def _weight(f: fm.Membership | fm.Equality, model: Model | None, scope: Sequence[str],
            spent: list[int]) -> int:
    """One, or for an atom over two distinct bound variables, which relates two
    universe entries on each run, the printed length of the longest entry.  That
    is rendered once a call, when first needed, and kept as ``spent[1]``."""
    left, right = f.left, f.right
    if model is None or left == right or left not in scope or right not in scope:
        return 1
    if len(spent) == 1:
        spent.append(max(len(str(u)) for u in model.universe))
    return spent[1]


def _slot(scope: Sequence[str], name: str) -> int | None:
    """The slot of the innermost binding of ``name``, or None."""
    return len(scope) - 1 - scope[::-1].index(name) if name in scope else None


def _member(x: DomainValue, s: DomainValue) -> int:
    if isinstance(s, NCSet) and isinstance(x, Element):
        return _CODE[s.member_tv(x)]
    return _F  # only sets have members, and only elements are members


def _equal(x: DomainValue, y: DomainValue) -> int:
    if isinstance(x, Element) and isinstance(y, Element):
        return _T if x == y else _F
    if isinstance(x, NCSet) and isinstance(y, NCSet):
        return _CODE[x.eq_tv(y)]
    return _F  # an element is plainly not a set
