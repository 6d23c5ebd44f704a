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

``notin`` and ``!=`` parse as the negated atoms.  Restricted binders are
sugar: ``exists x in A . p`` stands for ``exists x . x in A & p`` and
``forall x in A . p`` for ``forall x . x in A -> p``; ``parse`` returns
the desugared tree.  Names starting with a lowercase letter are
variables, all others constants; a bare name in formula position is a
propositional letter.
"""

from __future__ import annotations

from .errors import GuardExceeded
from .scan import MAX_NESTING, Cursor
from .value import Value

# The deepest a parsed formula may nest: no atom lies inside more than
# MAX_NESTING parentheses, prefix connectives, binders and right operands
# of -> or =>, or below more than MAX_NESTING tree nodes.  Every recursive
# walk of the tree takes at most 2 frames a level.


# ---------------------------------------------------------------------------
# Terms


class Term(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        return self.name


class Var(Term):
    __slots__ = ()


class Const(Term):
    __slots__ = ()


def term_for(name: str) -> Term:
    return Var(name) if name[0].islower() else Const(name)


# ---------------------------------------------------------------------------
# Formulas; each shape of node has one constructor.


class Formula(Value):
    __slots__ = ()


class Prop(Formula):
    __slots__ = ("name",)
    __init__ = Term.__init__


class Bottom(Formula):
    __slots__ = ()


class Unary(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        object.__setattr__(self, "body", body)


class Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Membership(Formula):
    __slots__ = ("left", "right")
    __init__ = Binary.__init__


class Equality(Formula):
    __slots__ = ("left", "right")
    __init__ = Binary.__init__


class Neg(Unary):
    __slots__ = ()


class CNeg(Unary):
    __slots__ = ()


class Bang(Unary):
    __slots__ = ()


class Query(Unary):
    __slots__ = ()


class Circ(Unary):
    __slots__ = ()


class Conj(Binary):
    __slots__ = ()


class Amp(Binary):
    __slots__ = ()


class Disj(Binary):
    __slots__ = ()


class Imp(Binary):
    __slots__ = ()


class StrongImp(Binary):
    __slots__ = ()


class Iff(Binary):
    __slots__ = ()


class StrongIff(Binary):
    __slots__ = ()


class Quantifier(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


class Forall(Quantifier):
    __slots__ = ()


class Exists(Quantifier):
    __slots__ = ()


class RestrictedQuantifier(Formula):
    __slots__ = ("var", "bound", "body")

    def __init__(self, var: str, bound: Term, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "body", body)


class ForallIn(RestrictedQuantifier):
    __slots__ = ()


class ExistsIn(RestrictedQuantifier):
    __slots__ = ()


_UNARY = {Neg: "~", CNeg: "-", Bang: "!", Query: "?", Circ: "o "}
_BINARY = {Conj: "/\\", Amp: "&", Disj: "\\/", Imp: "->", StrongImp: "=>",
           Iff: "<->", StrongIff: "<=>"}


def desugar(f: Formula) -> Formula:
    """Eliminate restricted binders in favor of & and ->."""
    if isinstance(f, (Prop, Membership, Equality, Bottom)):
        return f
    if isinstance(f, Unary):
        return type(f)(desugar(f.body))
    if isinstance(f, Binary):
        return type(f)(desugar(f.left), desugar(f.right))
    if isinstance(f, Quantifier):
        return type(f)(f.var, desugar(f.body))
    if isinstance(f, RestrictedQuantifier):
        return _unrestricted(type(f), f.var, f.bound, desugar(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _unrestricted(kind: type, var: str, bound: Term, body: Formula) -> Formula:
    """The restricted binder ``kind`` written out over a desugared body."""
    member = Membership(Var(var), bound)
    return Forall(var, Imp(member, body)) if kind is ForallIn else Exists(var, Amp(member, body))


def prop_letters(f: Formula) -> tuple[str, ...]:
    """All propositional letters, sorted."""
    found: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            found.add(g.name)
        elif isinstance(g, Binary):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Unary, Quantifier, RestrictedQuantifier)):
            walk(g.body)

    walk(f)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Parser (recursive descent following the precedence ladder)


class _Parser(Cursor):
    symbols = ("<->", "<=>", "->", "=>", "/\\", "\\/", "!=",
               "~", "-", "!", "?", "(", ")", ".", "=", "&")
    keywords = frozenset({"in", "notin", "false", "forall", "exists", "o"})
    what = "formula"

    def formula(self) -> Formula:
        left = self.implication()
        if self.kind in ("<->", "<=>"):
            op = self.advance()
            right = self.implication()
            if self.kind in ("<->", "<=>"):
                raise self.fail({"')'", "end of input"},
                                "equivalences do not chain; parenthesize")
            return Iff(left, right) if op == "<->" else StrongIff(left, right)
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.kind in ("->", "=>"):
            op = self.advance()
            right = self.nested(self.implication)
            return Imp(left, right) if op == "->" else StrongImp(left, right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.kind == "\\/":
            self.advance()
            left = Disj(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.kind in ("/\\", "&"):
            op = self.advance()
            right = self.unary()
            left = Conj(left, right) if op == "/\\" else Amp(left, right)
        return left

    def unary(self) -> Formula:
        kind = self.kind
        if kind in ("~", "-", "!", "?", "o"):
            self.advance()
            body = self.nested(self.unary)
            node = {"~": Neg, "-": CNeg, "!": Bang, "?": Query, "o": Circ}[kind]
            return node(body)
        if kind in ("forall", "exists"):
            return self.binder()
        return self.atom()

    def binder(self) -> Formula:
        which = self.advance()
        var = self.expect("name", "variable name")
        bound: Term | None = None
        if self.kind == "in":
            self.advance()
            bound = term_for(self.expect("name", "set name"))
        self.expect(".")
        body = self.nested(self.formula)
        if bound is None:
            return Forall(var, body) if which == "forall" else Exists(var, body)
        return _unrestricted(ForallIn if which == "forall" else ExistsIn, var, bound, body)

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
            left = term_for(self.advance())
            rel = self.kind
            if rel in ("in", "notin", "=", "!="):
                self.advance()
                right = term_for(self.expect("name", "term"))
                atom = Membership(left, right) if rel in ("in", "notin") else Equality(left, right)
                return Neg(atom) if rel in ("notin", "!=") else atom
            return Prop(left.name)
        raise self.fail({"formula"})


def parse(text: str) -> Formula:
    """Parse and desugar; raises ParseError with position and expectations,
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

_PREC = {Forall: 0, Exists: 0, ForallIn: 0, ExistsIn: 0,
         Iff: 1, StrongIff: 1, Imp: 2, StrongImp: 2, Disj: 3,
         Conj: 4, Amp: 4, Neg: 5, CNeg: 5, Bang: 5, Query: 5, Circ: 5,
         Prop: 6, Membership: 6, Equality: 6, Bottom: 6}


def render(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(render(f)) == desugar(f)."""
    return _render(f, 0)


def _render(f: Formula, min_prec: int) -> str:
    prec = _PREC[type(f)]
    text = _render_node(f, prec)
    if prec < min_prec:
        return f"({text})"
    return text


def _render_node(f: Formula, prec: int) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Membership):
        return f"{f.left} in {f.right}"
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}"
    if isinstance(f, Neg):
        if isinstance(f.body, Membership):
            return f"{f.body.left} notin {f.body.right}"
        if isinstance(f.body, Equality):
            return f"{f.body.left} != {f.body.right}"
        return "~" + _render(f.body, prec)
    if isinstance(f, (CNeg, Bang, Query, Circ)):
        return _UNARY[type(f)] + _render(f.body, prec)
    if isinstance(f, (Conj, Amp, Disj)):
        return f"{_render(f.left, prec)} {_BINARY[type(f)]} {_render(f.right, prec + 1)}"
    if isinstance(f, (Imp, StrongImp)):
        return f"{_render(f.left, prec + 1)} {_BINARY[type(f)]} {_render(f.right, prec)}"
    if isinstance(f, (Iff, StrongIff)):
        return f"{_render(f.left, prec + 1)} {_BINARY[type(f)]} {_render(f.right, prec + 1)}"
    if isinstance(f, (Forall, Exists)):
        word = "forall" if isinstance(f, Forall) else "exists"
        return f"{word} {f.var} . {_render(f.body, 0)}"
    if isinstance(f, (ForallIn, ExistsIn)):
        word = "forall" if isinstance(f, ForallIn) else "exists"
        return f"{word} {f.var} in {f.bound} . {_render(f.body, 0)}"
    raise TypeError(f"not a formula: {f!r}")
