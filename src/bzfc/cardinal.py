"""Cardinal numbers for finite non-classical sets.

A classical cardinal is a natural number or a symbolic aleph with a
small index; sums and products with an infinite operand follow the
usual absorption rule (the maximum, except that a zero factor kills a
product).

A ``Cardinal`` is a triple (kt, kb, kn) of classical cardinals, read as
kt + kb*b + kn*n where b and n are the sizes of the one-element purely
inconsistent and purely incomplete sets.  Addition is componentwise;
multiplication follows from b*b = b, n*n = n, and b*n = 0.  Comparison
is four-valued and, at the first infinite cardinal, stops being
antisymmetric.

``eval_arith`` reads cardinal expressions such as ``aleph0 + 2b`` and,
in real mode, para-real ones such as ``3/2 - 1/3 b``; every cardinal and
para-real this package prints reads back to itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded
from .parareal import ParaReal
from .scan import NATURAL, Cursor, natural
from .sets import NCSet
from .truth import TruthValue

MAX_ALEPH_INDEX = 15
MAX_LATTICE_BOUND = 6


class ClassicalCard:
    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return isinstance(self, Fin)

    def __le__(self, other: "ClassicalCard") -> bool:
        if isinstance(self, Fin):
            return not isinstance(other, Fin) or self.n <= other.n
        if isinstance(other, Fin):
            return False
        assert isinstance(self, Aleph) and isinstance(other, Aleph)
        return self.index <= other.index

    def __lt__(self, other: "ClassicalCard") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "ClassicalCard") -> bool:
        return other <= self

    def __gt__(self, other: "ClassicalCard") -> bool:
        return other < self

    def __add__(self, other: "ClassicalCard") -> "ClassicalCard":
        if isinstance(self, Fin) and isinstance(other, Fin):
            return Fin(self.n + other.n)
        return self if other <= self else other

    def __mul__(self, other: "ClassicalCard") -> "ClassicalCard":
        if self == Fin(0) or other == Fin(0):
            return Fin(0)
        if isinstance(self, Fin) and isinstance(other, Fin):
            return Fin(self.n * other.n)
        return self if other <= self else other


@dataclass(frozen=True)
class Fin(ClassicalCard):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"a cardinal cannot be negative: {self.n}")

    def __str__(self) -> str:
        return str(self.n)


@dataclass(frozen=True)
class Aleph(ClassicalCard):
    index: int

    def __post_init__(self):
        if not 0 <= self.index <= MAX_ALEPH_INDEX:
            raise ValueError(f"aleph index must be in 0..{MAX_ALEPH_INDEX}: {self.index}")

    def __str__(self) -> str:
        return f"aleph{self.index}"


@dataclass(frozen=True)
class Cardinal:
    kt: ClassicalCard
    kb: ClassicalCard
    kn: ClassicalCard

    @classmethod
    def finite(cls, t: int, b: int, n: int) -> "Cardinal":
        return cls(Fin(t), Fin(b), Fin(n))

    @property
    def is_finite(self) -> bool:
        return self.kt.is_finite and self.kb.is_finite and self.kn.is_finite

    def decompose(self) -> tuple[ClassicalCard, ClassicalCard, ClassicalCard]:
        return (self.kt, self.kb, self.kn)

    def __add__(self, other: "Cardinal") -> "Cardinal":
        return Cardinal(self.kt + other.kt, self.kb + other.kb, self.kn + other.kn)

    def __mul__(self, other: "Cardinal") -> "Cardinal":
        return Cardinal(
            self.kt * other.kt,
            self.kt * other.kb + self.kb * other.kt + self.kb * other.kb,
            self.kt * other.kn + self.kn * other.kt + self.kn * other.kn,
        )

    def le_tv(self, other: "Cardinal") -> TruthValue:
        """At-most comparison: true needs all four size constraints of the
        witnessing subset; false exactly when members outnumber possible
        members (kt+kb beyond other's kt+kn)."""
        assertable = (self.kt + self.kb + self.kn <= other.kt + other.kb + other.kn
                      and self.kt + self.kb <= other.kt + other.kb
                      and self.kt + self.kn <= other.kt + other.kn
                      and self.kt <= other.kt)
        deniable = not self.kt + self.kb <= other.kt + other.kn
        return TruthValue(assertable, deniable)

    def eq_tv(self, other: "Cardinal") -> TruthValue:
        """Equality: true iff componentwise equal; false when either
        direction's members cannot all be possible members of the other,
        or an inconsistent part cannot hide in the other's incomplete part."""
        assertable = self.decompose() == other.decompose()
        deniable = (not self.kt + self.kb <= other.kt + other.kn
                    or not other.kt + other.kb <= self.kt + self.kn
                    or not self.kb <= other.kn
                    or not other.kb <= self.kn)
        return TruthValue(assertable, deniable)

    def __str__(self) -> str:
        parts = []
        if self.kt != Fin(0):
            parts.append(str(self.kt))
        for coeff, unit in ((self.kb, "b"), (self.kn, "n")):
            if coeff == Fin(0):
                continue
            if coeff == Fin(1):
                parts.append(unit)
            elif coeff.is_finite:
                parts.append(f"{coeff}{unit}")
            else:
                parts.append(f"{coeff} {unit}")
        return " + ".join(parts) if parts else "0"


ZERO = Cardinal.finite(0, 0, 0)
ONE = Cardinal.finite(1, 0, 0)
B_UNIT = Cardinal.finite(0, 1, 0)
N_UNIT = Cardinal.finite(0, 0, 1)


def card_of(a: NCSet) -> Cardinal:
    """The cardinal of a finite set: its three part sizes."""
    return Cardinal.finite(len(a.tpart), len(a.bpart), len(a.npart))


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

    def __init__(self, text: str, real: bool):
        super().__init__(text)
        self.real = real

    def _real_only(self) -> None:
        if not self.real:
            raise self.fail((), f"{self.word!r} needs --real (cardinals have no subtraction)")

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
            return -self.factor()
        if kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if kind == "nat":
            n = self.nat()
            return ParaReal(n) if self.real else Cardinal.finite(n, 0, 0)
        if kind in _UNITS:
            return self._unit()
        word = self.word
        if kind == "name" and word.startswith("aleph") and NATURAL.fullmatch(word, 5):
            if self.real:
                raise self.fail((), "alephs are cardinals, not para-reals")
            index = natural(word[5:])
            if index > MAX_ALEPH_INDEX:
                raise GuardExceeded(f"aleph index above {MAX_ALEPH_INDEX} at position {self.pos}")
            self.advance()
            return Cardinal(Aleph(index), Fin(0), Fin(0))
        raise self.fail({"number", "'b'", "'n'", "'('"})

    def _unit(self):
        b = self.advance() == "b"
        if self.real:
            return ParaReal(0, 1, 0) if b else ParaReal(0, 0, 1)
        return B_UNIT if b else N_UNIT


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
    ``le_tv`` within the grid.
    """
    bt, bb, bn = bounds
    if min(bounds) < 0 or max(bounds) > MAX_LATTICE_BOUND:
        raise GuardExceeded(f"lattice bounds must be within 0..{MAX_LATTICE_BOUND}: {bounds}")
    nodes = [Cardinal.finite(t, b, n)
             for t in range(bt + 1) for b in range(bb + 1) for n in range(bn + 1)]
    edges: list[tuple[Cardinal, Cardinal]] = []
    for t in range(bt + 1):
        for b in range(bb + 1):
            for n in range(bn + 1):
                src = Cardinal.finite(t, b, n)
                if t + 1 <= bt:
                    edges.append((src, Cardinal.finite(t + 1, b, n)))
                if b + 1 <= bb:
                    edges.append((src, Cardinal.finite(t, b + 1, n)))
                if n + 1 <= bn:
                    edges.append((src, Cardinal.finite(t, b, n + 1)))
                if t + 1 <= bt and b >= 1:
                    edges.append((src, Cardinal.finite(t + 1, b - 1, n)))
                if t + 1 <= bt and n >= 1:
                    edges.append((src, Cardinal.finite(t + 1, b, n - 1)))
    key = _grid_key
    nodes.sort(key=key)
    edges.sort(key=lambda e: (key(e[0]), key(e[1])))
    return nodes, edges


def _grid_key(k: Cardinal) -> tuple[int, int, int]:
    assert isinstance(k.kt, Fin) and isinstance(k.kb, Fin) and isinstance(k.kn, Fin)
    return (k.kt.n, k.kb.n, k.kn.n)


def lattice_dot(bounds: tuple[int, int, int]) -> str:
    """The order diagram as DOT text; node labels are cardinal literals."""
    nodes, edges = finite_lattice(bounds)
    lines = ["digraph cardinal_order {"]
    for node in nodes:
        lines.append(f'  "{node}";')
    for src, dst in edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
