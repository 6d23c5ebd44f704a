"""Syntax trees and concrete syntax for the first-order language.

The signature is membership, equality, and falsum, over named terms.
Concrete syntax (tightest first):

    prefix   ~  -  !  ?  o
    and      &  /\\           (left associative, one level)
    or       \\/              (left associative)
    implies  ->  =>           (right associative, one level)
    iff      <->  <=>         (non-associative)
    atoms    x in A   x notin A   x = y   x != y   false   p
    binders  forall x . ...   exists x in A . ...  (body extends right)

Each connective and binder class declares its ``symbol`` and its
``level`` on the ladder above; the parser and the renderer read both
there.  ``notin`` and ``!=`` parse as the negated atoms.  Restricted
binders are abbreviations, which the parser writes out (``desugar``):
``exists x in A . p`` is ``exists x . x in A & p`` and
``forall x in A . p`` is ``forall x . x in A -> p``.  A name in term
position is a ``str``, whatever its case: a quantifier or the session
may bind it.  A bare name in formula position is a propositional letter.
"""

from __future__ import annotations

from functools import partial

from .errors import GuardExceeded
from .scan import MAX_NESTING, Cursor
from .value import Value


# ---------------------------------------------------------------------------
# Formulas; each shape of node has one constructor.  ``level`` is how
# tightly a node binds: atoms 6, prefix connectives 5, binary ones 4 to 1,
# binders 0.


class Formula(Value):
    __slots__ = ()
    level = 6


class Prop(Formula):
    __slots__ = ("name",)


class Bottom(Formula):
    __slots__ = ()


class Unary(Formula):
    __slots__ = ("body",)
    level = 5


class Binary(Formula):
    __slots__ = ("left", "right")


class Membership(Formula):
    __slots__ = ("left", "right")


class Equality(Formula):
    __slots__ = ("left", "right")


class Neg(Unary):
    __slots__ = ()
    symbol = "~"


class CNeg(Unary):
    __slots__ = ()
    symbol = "-"


class Bang(Unary):
    __slots__ = ()
    symbol = "!"


class Query(Unary):
    __slots__ = ()
    symbol = "?"


class Circ(Unary):
    __slots__ = ()
    symbol = "o"


class Conj(Binary):
    __slots__ = ()
    symbol, level = "/\\", 4


class Amp(Binary):
    __slots__ = ()
    symbol, level = "&", 4


class Disj(Binary):
    __slots__ = ()
    symbol, level = "\\/", 3


class Imp(Binary):
    __slots__ = ()
    symbol, level = "->", 2


class StrongImp(Binary):
    __slots__ = ()
    symbol, level = "=>", 2


class Iff(Binary):
    __slots__ = ()
    symbol, level = "<->", 1


class StrongIff(Binary):
    __slots__ = ()
    symbol, level = "<=>", 1


class Quantifier(Formula):
    __slots__ = ("var", "body")
    level = 0


class Forall(Quantifier):
    __slots__ = ()
    symbol = "forall"


class Exists(Quantifier):
    __slots__ = ()
    symbol = "exists"


CONNECTIVES = {node.symbol: node for node in (Neg, CNeg, Bang, Query, Circ, Conj, Amp, Disj,
                                              Imp, StrongImp, Iff, StrongIff, Forall, Exists)}
# The words that are tokens of their own, so no name can be one of them.
KEYWORDS = frozenset({"in", "notin", "false", *filter(str.isalpha, CONNECTIVES)})


def desugar(kind: type, var: str, bound: str, body: Formula) -> Formula:
    """The restricted binder ``kind var in bound . body`` written out:
    ``kind`` is Forall (over ->) or Exists (over &)."""
    member = Membership(var, bound)
    return Forall(var, Imp(member, body)) if kind is Forall else Exists(var, Amp(member, body))


def prop_letters(f: Formula) -> tuple[str, ...]:
    """All propositional letters, sorted."""
    found: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            found.add(g.name)
        elif isinstance(g, Binary):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Unary, Quantifier)):
            walk(g.body)

    walk(f)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Parser (recursive descent, climbing the levels of the connectives)


class _Parser(Cursor):
    symbols = (*(s for s in CONNECTIVES if s not in KEYWORDS), "!=", "(", ")", ".", "=")
    keywords = KEYWORDS
    what = "formula"

    def formula(self, level: int = Iff.level) -> Formula:
        """A formula whose binary connectives outside parentheses and
        binders are of ``level`` or tighter (precedence climbing)."""
        left = self.unary()
        while level <= (node := CONNECTIVES.get(self.kind, Formula)).level < Unary.level:
            self.advance()
            if node.level == Imp.level:  # -> and => group right
                right = self.nested(partial(self.formula, node.level))
            else:
                right = self.formula(node.level + 1)
            left = node(left, right)
            if node.level == Iff.level == CONNECTIVES.get(self.kind, Formula).level:  # no chains
                raise self.fail({"')'", "end of input"},
                                "equivalences do not chain; parenthesize")
        return left

    def unary(self) -> Formula:
        node = CONNECTIVES.get(self.kind)
        if node is None or issubclass(node, Binary):
            return self.atom()
        self.advance()
        if issubclass(node, Unary):
            return node(self.nested(self.unary))
        var = self.expect("name", "variable name")
        bound: str | None = None
        if self.kind == "in":
            self.advance()
            bound = self.expect("name", "set name")
        self.expect(".")
        body = self.nested(self.formula)
        return node(var, body) if bound is None else desugar(node, var, bound, body)

    def atom(self) -> Formula:
        kind = self.kind
        if kind == "false":
            self.advance()
            return Bottom()
        if kind == "(":
            self.advance()
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        if kind == "name":
            left = self.advance()
            rel = self.kind
            if rel in ("in", "notin", "=", "!="):
                self.advance()
                right = self.expect("name", "term")
                atom = Membership(left, right) if rel in ("in", "notin") else Equality(left, right)
                return Neg(atom) if rel in ("notin", "!=") else atom
            return Prop(left)
        raise self.fail({"formula"})


# The deepest a parsed formula may nest: the parser admits no atom inside
# more than MAX_NESTING parentheses, prefix connectives, binders and right
# operands of -> or =>, and ``_check_depth`` none below more than MAX_NESTING
# tree nodes.  Every recursive walk of the tree takes at most 2 frames a level.
def parse(text: str) -> Formula:
    """Parse; raises ParseError with position and expectations,
    and GuardExceeded for a formula nested more than MAX_NESTING deep."""
    parser = _Parser(text)
    f = parser.end(parser.formula())
    if len(parser.kinds) > MAX_NESTING:  # each level of the tree takes a token
        _check_depth(f)
    return f


def _check_depth(f: Formula) -> None:
    stack = [(f, 0)]
    while stack:
        g, depth = stack.pop()
        if depth > MAX_NESTING:
            raise GuardExceeded(f"formula nested more than {MAX_NESTING} deep")
        if isinstance(g, Binary):
            stack += (g.left, depth + 1), (g.right, depth + 1)
        elif isinstance(g, (Unary, Quantifier)):
            stack.append((g.body, depth + 1))


# ---------------------------------------------------------------------------
# Renderer


def render(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(render(f)) == f."""
    return _render(f, 0)


def _render(f: Formula, outer: int) -> str:
    """``f``, in parentheses if it binds looser than ``outer``."""
    text = _render_node(f)
    return f"({text})" if f.level < outer else text


def _render_node(f: Formula) -> str:
    if isinstance(f, Binary):
        # -> and => group right, <-> and <=> do not chain, the rest group left.
        left = _render(f.left, f.level + (f.level <= Imp.level))
        right = _render(f.right, f.level + (f.level != Imp.level))
        return f"{left} {f.symbol} {right}"
    if isinstance(f, Neg) and isinstance(f.body, Membership):
        return f"{f.body.left} notin {f.body.right}"
    if isinstance(f, Neg) and isinstance(f.body, Equality):
        return f"{f.body.left} != {f.body.right}"
    if isinstance(f, Unary):
        space = " " if f.symbol.isalpha() else ""  # o p, not the name op
        return f.symbol + space + _render(f.body, f.level)
    if isinstance(f, Quantifier):
        return f"{f.symbol} {f.var} . {_render(f.body, 0)}"
    if isinstance(f, Membership):
        return f"{f.left} in {f.right}"
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    raise TypeError(f"not a formula: {f!r}")
