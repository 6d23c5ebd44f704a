"""Four-valued evaluation of formulas over finite models.

A model carries a finite ordered universe (elements and/or sets) and a
name environment.  Quantifiers range over the declared universe, not
over everything there is; this makes evaluation total and testable and
is the one deliberate departure from the intended class-sized domain.

One engine serves ``evaluate``, ``eval_prop`` and ``valid_prop``.
``_compile`` turns a formula, once per call, into nested closures over an
environment indexed by slot: letter i takes slot i, and a bound variable the
slot of its binder depth, where it holds the bound entry's position in the
universe.  The engine runs on codes, a truth value's index in ``ALL_VALUES``
(t, b, n, f = 0, 1, 2, 3, so below 2 is assertable), and turns them back
into truth values only in its results.  Each connective is a table over the
codes, built from ``truth``; each name is looked up once.  An atom is
computed when it is compiled if it reads no bound variable, and tabulated
over the universe if it reads one (``x in A``, ``a = x``, ``x in x``): a
set's two extensions fix its truth value for each entry, so one row of |U|
codes, indexed by position, serves all |U|^d instances of the quantifiers
above it.  Only an atom over two distinct bound variables is computed per
instance; no table outgrows the universe.  One budget, ``MAX_WORK``, bounds
the work: as it is compiled, before its children, each node is charged the
most times it can run (4^k under ``valid_prop``, |U|^d below d binders, once
under ``eval_prop``), times the printed length of the longest entry for an
atom computed per instance, which compares two.  An unresolved name, an
empty universe or work past the limit raises as it is compiled, the first one
a walk of the tree meets, so the compiled formula raises nothing.  At run time
a binary node skips its right operand when the left code fixes the result,
that is, when the left code's row of the table is constant (``_FIXED``: f for
/\\ and =>, t for \\/, n and f for & and ->; none for <-> and <=>), as
McCarthy's conditional and/or do; each quantifier runs its body on every
instance.  ``valid_prop`` calls the compiled formula on each of the 4^k
assignments.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from . import formula as fm
from .errors import GuardError, GuardExceeded, NotPropositional, UnresolvedName
from .sets import Element, NCSet
from .truth import ALL_VALUES, F, T, TruthValue, amp, bang, circ, cneg, conj, disj, iff, imp, neg, query, strong_iff, strong_imp
from .value import Value

DomainValue = Union[Element, NCSet]
Compiled = Callable[[Any], int]  # a code: the index of a value in ALL_VALUES

MAX_WORK = 2 ** 23  # node runs; the slowest shape takes about 2 s on a 2-core VM (README)

_ATOMS = (fm.Membership, fm.Equality)
_CODE = {value: code for code, value in enumerate(ALL_VALUES)}
_T, _F = _CODE[T], _CODE[F]
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
    return ALL_VALUES[_compile(f, model, (), 1, [0])([])]


def eval_prop(f: fm.Formula, assignment: Mapping[str, TruthValue]) -> TruthValue:
    """Evaluate a propositional formula under a letter assignment."""
    codes = tuple([_CODE[value] for value in assignment.values()])
    return ALL_VALUES[_compile(f, None, tuple(assignment), 1, [0])(codes)]


def valid_prop(f: fm.Formula) -> tuple[bool, dict[str, TruthValue] | None]:
    """Whether f is assertable under every assignment; if not, the first
    one, in ``itertools.product`` order over t, b, n, f, that falsifies it."""
    letters = fm.prop_letters(f)
    value = _compile(f, None, letters, 4 ** len(letters), [0])
    for codes in itertools.product(range(4), repeat=len(letters)):
        if value(codes) > 1:
            return False, dict(zip(letters, [ALL_VALUES[code] for code in codes]))
    return True, None


def _compile(f: fm.Formula, model: Model | None, scope: Sequence[str],
             runs: int, spent: list[int]) -> Compiled:
    """``f`` as a function of the environment, to be called ``runs``
    times.  ``scope`` names the slots; ``model`` is None for a
    propositional formula, whose letters are the slots.  ``spent[0]`` is
    the work charged so far."""
    spent[0] += runs * _weight(f, model, scope, spent) if isinstance(f, _ATOMS) else runs
    if spent[0] > MAX_WORK:
        raise GuardExceeded(f"the formula needs more than {MAX_WORK:,} node evaluations "
                            "(the work limit)")
    table = _UNARY.get(type(f))
    if table is not None:
        body = _compile(f.body, model, scope, runs, spent)
        return lambda env: table[body(env)]
    table = _BINARY.get(type(f))
    if table is not None:
        left = _compile(f.left, model, scope, runs, spent)
        right = _compile(f.right, model, scope, runs, spent)
        fixed = _FIXED[type(f)]
        return lambda env: table[x][right(env)] if fixed[x := left(env)] is None else fixed[x]
    if isinstance(f, fm.Bottom):
        return lambda env: _F
    if isinstance(f, fm.Prop):
        if model is None:
            slot = _slot(scope, f.name)
            if slot is None:
                raise KeyError(f.name)
            return itemgetter(slot)
        raise UnresolvedName(f.name)
    if model is None:
        raise NotPropositional(type(f).__name__)
    if isinstance(f, fm.Quantifier):
        positions, depth = range(len(model.universe)), len(scope)
        if not positions:
            raise GuardError("quantifier evaluated over an empty universe; declare one")
        body = _compile(f.body, model, (*scope, f.var), runs * len(positions), spent)
        # forall is the /\ of its instances and exists their \/.
        table, start = (_BINARY[fm.Conj], _T) if isinstance(f, fm.Forall) else (_BINARY[fm.Disj], _F)

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


def _atom(relate: Callable[[DomainValue, DomainValue], int],
          f: fm.Membership | fm.Equality, model: Model, scope: Sequence[str]) -> Compiled:
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
        value = at(None)
        return lambda env: value
    # Built from a list: from a generator, 20 ``fo-eval`` rounds peaked 0.8 MiB higher (tracemalloc).
    row = tuple([at(u) for u in universe])
    return lambda env: row[env[slot]]


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
    return max((slot for slot, bound in enumerate(scope) if bound == name), default=None)


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
