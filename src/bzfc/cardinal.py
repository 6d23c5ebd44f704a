"""Cardinal numbers for finite non-classical sets.

A classical cardinal is a natural number, held as a plain ``int``, or
an ``Aleph``, a symbolic aleph with a small index; sums and products
with an infinite operand follow the usual absorption rule (the maximum,
except that a zero factor kills a product), which ``Aleph`` carries.

A ``Cardinal`` is a triple (kt, kb, kn) of classical cardinals, read as
kt + kb*b + kn*n where b and n are the sizes of the one-element purely
inconsistent and purely incomplete sets.  Addition is componentwise;
multiplication is ``parareal.product``'s rule b*b = b, n*n = n, b*n = 0,
and ``parareal.Linear`` holds the literal syntax of cardinals and para-reals.
Comparison is four-valued, through ``numerosity``'s closed forms on the
coefficients, and at the first infinite cardinal stops being
antisymmetric.

``eval_arith`` reads cardinal expressions such as ``aleph0 + 2b`` and,
in real mode, para-real ones such as ``3/2 - 1/3 b``; every cardinal and
para-real this package prints reads back to itself.
"""

from __future__ import annotations

from functools import cache

from .errors import GuardExceeded
from .numerosity import at_most, part_sizes, same_size
from .parareal import Linear, ParaReal, product
from .scan import NATURAL, Cursor, natural
from .sets import NCSet
from .truth import TruthValue
from .value import Value

MAX_ALEPH_INDEX = 15
MAX_LATTICE_BOUND = 6


class Aleph(Value):
    """An infinite classical cardinal, above every ``int``.  It alone holds
    the absorption rule: a sum is its larger operand, and so is a product,
    unless the other factor is 0.  Between ``int``s, arithmetic is Python's."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if not 0 <= index <= MAX_ALEPH_INDEX:
            raise ValueError(f"aleph index must be in 0..{MAX_ALEPH_INDEX}: {index}")
        self._assign(index)

    def __le__(self, other: "ClassicalCard") -> bool:
        return isinstance(other, Aleph) and self.index <= other.index

    def __ge__(self, other: "ClassicalCard") -> bool:
        return not isinstance(other, Aleph) or self.index >= other.index

    def __add__(self, other: "ClassicalCard") -> "ClassicalCard":
        return self if self >= other else other

    def __mul__(self, other: "ClassicalCard") -> "ClassicalCard":
        return 0 if other == 0 else self + other

    __radd__, __rmul__ = __add__, __mul__

    def __str__(self) -> str:
        return f"aleph{self.index}"


ClassicalCard = int | Aleph


class Cardinal(Linear):
    __slots__ = ("kt", "kb", "kn")

    def __init__(self, kt: ClassicalCard = 0, kb: ClassicalCard = 0, kn: ClassicalCard = 0):
        for k in (kt, kb, kn):
            if not 0 <= k:
                raise ValueError(f"a cardinal cannot be negative: {k}")
        self._assign(kt, kb, kn)

    def decompose(self) -> tuple[ClassicalCard, ClassicalCard, ClassicalCard]:
        return (self.kt, self.kb, self.kn)

    def __add__(self, other: "Cardinal") -> "Cardinal":
        return Cardinal(self.kt + other.kt, self.kb + other.kb, self.kn + other.kn)

    def __mul__(self, other: "Cardinal") -> "Cardinal":
        return Cardinal(*product(self.decompose(), other.decompose()))

    def le_tv(self, other: "Cardinal") -> TruthValue:
        return at_most(self.decompose(), other.decompose())

    def eq_tv(self, other: "Cardinal") -> TruthValue:
        return same_size(self.decompose(), other.decompose())


ZERO = Cardinal(0, 0, 0)
ONE = Cardinal(1, 0, 0)


def card_of(a: NCSet) -> Cardinal:
    """The cardinal of a finite set: its three part sizes."""
    return Cardinal(*part_sizes(a))


# ---------------------------------------------------------------------------
# Cardinal and para-real expressions

_UNITS = frozenset({"b", "n"})


class _ArithParser(Cursor):
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor | unit)*        unit: juxtaposed b or n
    factor := '-' factor | NAT | ALEPH | 'b' | 'n' | '(' expr ')'
    Subtraction, division, and unary minus exist only in real mode."""

    symbols = ("+", "-", "*", "/", "(", ")")
    keywords = _UNITS
    what = "expression"

    def __init__(self, text: str, real: bool):
        super().__init__(text)
        self.number = ParaReal if real else Cardinal

    def _real_only(self) -> None:
        if self.number is Cardinal:
            lacks = "division" if self.kind == "/" else "subtraction"
            raise self.fail((), f"{self.word!r} needs --real (cardinals have no {lacks})")

    def expr(self):
        value = self.term()
        while self.kind in ("+", "-"):
            if self.kind == "-":
                self._real_only()
            op = self.advance()
            right = self.term()
            value = value - right if op == "-" else value + right
        return value

    def term(self):
        value = self.factor()
        while True:
            kind = self.kind
            if kind in ("*", "/"):
                if kind == "/":
                    self._real_only()
                self.advance()
                right = self.factor()
                value = value / right if kind == "/" else value * right
            elif kind in _UNITS:
                value = value * self._unit()
            else:
                return value

    def factor(self):
        kind = self.kind
        if kind == "-":
            self._real_only()
            self.advance()
            return -self.nested(self.factor)
        if kind == "(":
            self.advance()
            value = self.nested(self.expr)
            self.expect(")")
            return value
        if kind == "nat":
            return self.number(self.nat())
        if kind in _UNITS:
            return self._unit()
        word = self.word
        if kind == "name" and word.startswith("aleph") and NATURAL.fullmatch(word, 5):
            if self.number is ParaReal:
                raise self.fail((), "alephs are cardinals, not para-reals")
            index = natural(word[5:])
            if index > MAX_ALEPH_INDEX:
                raise GuardExceeded(f"aleph index above {MAX_ALEPH_INDEX}", self.pos)
            self.advance()
            return Cardinal(Aleph(index))
        raise self.fail({"number", "'b'", "'n'", "'('"})

    def _unit(self):
        return self.number(0, 1, 0) if self.advance() == "b" else self.number(0, 0, 1)


def eval_arith(text: str, real: bool = False) -> Cardinal | ParaReal:
    """Evaluate a cardinal (or, with real=True, para-real) expression.

    Raises ParseError on malformed text, and GuardExceeded for an aleph
    index above MAX_ALEPH_INDEX or a natural with more digits than
    ``int`` converts."""
    parser = _ArithParser(text, real)
    return parser.end(parser.expr())


# ---------------------------------------------------------------------------
# The finite order diagram


def finite_lattice(bounds: tuple[int, int, int]) -> tuple[list[Cardinal], list[tuple[Cardinal, Cardinal]]]:
    """All finite cardinals within the componentwise bounds, with the
    single-step order edges: +1 along one coordinate, or the diagonal
    trading one inconsistent/incomplete unit for a classical one.
    Reachability along these edges is exactly the assertable side of
    ``le_tv`` within the grid.  Nodes come sorted by (t, b, n) and edges
    by (source, target).
    """
    bt, bb, bn = bounds
    if min(bounds) < 0 or max(bounds) > MAX_LATTICE_BOUND:
        raise GuardExceeded(f"lattice bounds must be within 0..{MAX_LATTICE_BOUND}: {bounds}")
    grid = {(t, b, n): Cardinal(t, b, n)
            for t in range(bt + 1) for b in range(bb + 1) for n in range(bn + 1)}
    edges: list[tuple[Cardinal, Cardinal]] = []
    for (t, b, n), src in grid.items():
        # The steps in target order; one that leaves the grid has no node.
        for step in ((t, b, n + 1), (t, b + 1, n), (t + 1, b - 1, n), (t + 1, b, n - 1),
                     (t + 1, b, n)):
            dst = grid.get(step)
            if dst is not None:
                edges.append((src, dst))
    return list(grid.values()), edges


def lattice_dot(bounds: tuple[int, int, int]) -> str:
    """The order diagram as DOT text; node labels are cardinal literals."""
    nodes, edges = finite_lattice(bounds)
    label = cache('"{}"'.format)  # each cardinal is rendered once
    lines = ["digraph cardinal_order {"]
    for node in nodes:
        lines.append(f"  {label(node)};")
    for src, dst in edges:
        lines.append(f"  {label(src)} -> {label(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
