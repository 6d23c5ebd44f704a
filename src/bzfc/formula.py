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

from dataclasses import dataclass

from .scan import Cursor


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    name: str

    def __str__(self) -> str:
        return self.name


def term_for(name: str) -> Term:
    return Var(name) if name[0].islower() else Const(name)


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Membership(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Equality(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True)
class CNeg(Formula):
    body: Formula


@dataclass(frozen=True)
class Bang(Formula):
    body: Formula


@dataclass(frozen=True)
class Query(Formula):
    body: Formula


@dataclass(frozen=True)
class Circ(Formula):
    body: Formula


@dataclass(frozen=True)
class Conj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Amp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Disj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class StrongImp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class StrongIff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallIn(Formula):
    var: str
    bound: Term
    body: Formula


@dataclass(frozen=True)
class ExistsIn(Formula):
    var: str
    bound: Term
    body: Formula


_UNARY = {Neg: "~", CNeg: "-", Bang: "!", Query: "?", Circ: "o "}
_BINARY = {Conj: "/\\", Amp: "&", Disj: "\\/", Imp: "->", StrongImp: "=>",
           Iff: "<->", StrongIff: "<=>"}


def desugar(f: Formula) -> Formula:
    """Eliminate restricted binders in favor of & and ->."""
    if isinstance(f, (Prop, Membership, Equality, Bottom)):
        return f
    if isinstance(f, tuple(_UNARY)):
        return type(f)(desugar(f.body))
    if isinstance(f, tuple(_BINARY)):
        return type(f)(desugar(f.left), desugar(f.right))
    if isinstance(f, Forall):
        return Forall(f.var, desugar(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, desugar(f.body))
    if isinstance(f, ForallIn):
        return Forall(f.var, Imp(Membership(Var(f.var), f.bound), desugar(f.body)))
    if isinstance(f, ExistsIn):
        return Exists(f.var, Amp(Membership(Var(f.var), f.bound), desugar(f.body)))
    raise TypeError(f"not a formula: {f!r}")


def prop_letters(f: Formula) -> tuple[str, ...]:
    """All propositional letters, sorted."""
    found: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            found.add(g.name)
        elif isinstance(g, tuple(_UNARY)):
            walk(g.body)
        elif isinstance(g, tuple(_BINARY)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists, ForallIn, ExistsIn)):
            walk(g.body)

    walk(f)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Parser (recursive descent following the precedence ladder)


class _Parser(Cursor):
    symbols = ("<->", "<=>", "->", "=>", "/\\", "\\/", "!=",
               "~", "-", "!", "?", "(", ")", ".", "=", "&")
    keywords = frozenset({"in", "notin", "false", "forall", "exists", "o"})

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
            right = self.implication()
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
            body = self.unary()
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
        body = self.formula()
        if bound is None:
            return Forall(var, body) if which == "forall" else Exists(var, body)
        sugar = ForallIn(var, bound, body) if which == "forall" else ExistsIn(var, bound, body)
        return desugar(sugar)

    def atom(self) -> Formula:
        kind = self.kind
        if kind == "false":
            self.advance()
            return Bottom()
        if kind == "(":
            self.advance()
            inner = self.formula()
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
    """Parse and desugar; raises ParseError with position and expectations."""
    parser = _Parser(text)
    return parser.end(parser.formula())


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
