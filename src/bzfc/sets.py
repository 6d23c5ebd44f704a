"""Finite non-classical sets.

An ``NCSet`` is determined by three pairwise-disjoint classical parts:
the elements whose membership is both true and false (``bpart``), just
true (``tpart``), and neither (``npart``).  Everything not in any part
is plainly a non-member.  Realm elements are ``Element`` values with
ordinary structural identity; sets never contain other sets here.

The module also provides classical (single-valued) functions between
elements, images of sets under them, and the text literal syntax
``<{a,b}|{c}|{d}>`` used by the CLI and session files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DisjointnessViolation, DomainError
from .scan import Cursor
from .truth import B, F, N, T, TruthValue, conj, disj


# ---------------------------------------------------------------------------
# Elements


class Element:
    """Base class for realm members: atoms, naturals, pairs, tags."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Element):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Nat(Element):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Pair(Element):
    left: Element
    right: Element

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


@dataclass(frozen=True)
class Tag(Element):
    value: Element
    index: int

    def __str__(self) -> str:
        return f"{self.value}@{self.index}"


def _element_key(x: Element) -> str:
    return str(x)


# ---------------------------------------------------------------------------
# Non-classical sets


@dataclass(frozen=True)
class NCSet:
    """A finite set with four-valued membership, given by its three parts."""

    bpart: frozenset[Element]
    tpart: frozenset[Element]
    npart: frozenset[Element]

    def __init__(self, bpart: Iterable[Element] = (), tpart: Iterable[Element] = (),
                 npart: Iterable[Element] = ()):
        object.__setattr__(self, "bpart", frozenset(bpart))
        object.__setattr__(self, "tpart", frozenset(tpart))
        object.__setattr__(self, "npart", frozenset(npart))
        overlap = (self.bpart & self.tpart) | (self.bpart & self.npart) | (self.tpart & self.npart)
        if overlap:
            raise DisjointnessViolation(min(overlap, key=_element_key))

    @classmethod
    def from_extensions(cls, bang_ext: Iterable[Element], query_ext: Iterable[Element]) -> "NCSet":
        """Build the unique set with the given !-extension and ?-extension."""
        x, y = frozenset(bang_ext), frozenset(query_ext)
        return cls(bpart=x - y, tpart=x & y, npart=y - x)

    @property
    def bang_ext(self) -> frozenset[Element]:
        """The !-extension: elements whose membership is true."""
        return self.bpart | self.tpart

    @property
    def query_ext(self) -> frozenset[Element]:
        """The ?-extension: elements whose membership is not false."""
        return self.tpart | self.npart

    @property
    def realm(self) -> frozenset[Element]:
        """The smallest classical set containing this one."""
        return self.bpart | self.tpart | self.npart

    def member_tv(self, x: Element) -> TruthValue:
        if x in self.tpart:
            return T
        if x in self.bpart:
            return B
        if x in self.npart:
            return N
        return F

    def subset_tv(self, other: "NCSet") -> TruthValue:
        return TruthValue(
            self.bang_ext <= other.bang_ext and self.query_ext <= other.query_ext,
            not self.bang_ext <= other.query_ext,
        )

    def eq_tv(self, other: "NCSet") -> TruthValue:
        return TruthValue(
            self.bang_ext == other.bang_ext and self.query_ext == other.query_ext,
            not (self.bang_ext <= other.query_ext and other.bang_ext <= self.query_ext),
        )

    def union(self, other: "NCSet") -> "NCSet":
        return NCSet.from_extensions(self.bang_ext | other.bang_ext,
                                     self.query_ext | other.query_ext)

    def intersection(self, other: "NCSet") -> "NCSet":
        return NCSet.from_extensions(self.bang_ext & other.bang_ext,
                                     self.query_ext & other.query_ext)

    def difference(self, other: "NCSet") -> "NCSet":
        # Pointwise this is x in self /\ ~(x in other); on extensions the
        # removed sets cross over: members of the result must not be
        # possible members of `other`, possible members must not be members.
        return NCSet.from_extensions(self.bang_ext - other.query_ext,
                                     self.query_ext - other.bang_ext)

    def product(self, other: "NCSet") -> "NCSet":
        """Cartesian product: membership of (x,y) is the conjunction."""
        bp, tp, np = set(), set(), set()
        for x in self.realm:
            for y in other.realm:
                tv = conj(self.member_tv(x), other.member_tv(y))
                if tv == B:
                    bp.add(Pair(x, y))
                elif tv == T:
                    tp.add(Pair(x, y))
                elif tv == N:
                    np.add(Pair(x, y))
        return NCSet(bp, tp, np)

    def disjoint_union(self, other: "NCSet") -> "NCSet":
        """Tagged sum: x@0 carries membership in self, y@1 in other."""
        return NCSet(
            bpart={Tag(x, 0) for x in self.bpart} | {Tag(y, 1) for y in other.bpart},
            tpart={Tag(x, 0) for x in self.tpart} | {Tag(y, 1) for y in other.tpart},
            npart={Tag(x, 0) for x in self.npart} | {Tag(y, 1) for y in other.npart},
        )

    def __str__(self) -> str:
        return render_ncset(self)


EMPTY = NCSet()


# ---------------------------------------------------------------------------
# Classical functions


class ClassicalFn:
    """A finite single-valued map between elements."""

    def __init__(self, graph: Mapping[Element, Element] | Iterable[tuple[Element, Element]]):
        self.graph = dict(graph)

    def __call__(self, x: Element) -> Element:
        return self.graph[x]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassicalFn) and self.graph == other.graph

    def __repr__(self) -> str:
        rows = ", ".join(f"{k}->{v}" for k, v in sorted(self.graph.items(), key=lambda kv: _element_key(kv[0])))
        return f"ClassicalFn({{{rows}}})"

    @property
    def domain(self) -> frozenset[Element]:
        return frozenset(self.graph)

    def is_injection(self) -> bool:
        return len(set(self.graph.values())) == len(self.graph)

    def image(self, a: NCSet) -> NCSet:
        """The image set: membership of an output is the join of the
        membership values of all its preimages."""
        missing = a.realm - self.domain
        if missing:
            raise DomainError(sorted(missing, key=_element_key))
        joined: dict[Element, TruthValue] = {}
        for x in a.realm:
            y = self.graph[x]
            joined[y] = disj(joined.get(y, F), a.member_tv(x))
        bp = {y for y, tv in joined.items() if tv == B}
        tp = {y for y, tv in joined.items() if tv == T}
        np = {y for y, tv in joined.items() if tv == N}
        return NCSet(bp, tp, np)


# ---------------------------------------------------------------------------
# Text literals


def render_ncset(a: NCSet) -> str:
    def braces(part: frozenset[Element]) -> str:
        return "{" + ",".join(sorted(map(str, part))) + "}"

    return f"<{braces(a.bpart)}|{braces(a.tpart)}|{braces(a.npart)}>"


class _LiteralParser(Cursor):
    """The element and set literal grammar."""

    symbols = ("<", ">", "{", "}", "|", ",", "(", ")", "@")

    def element(self) -> Element:
        kind = self.kind
        if kind == "(":
            self.advance()
            left = self.element()
            self.expect(",")
            right = self.element()
            self.expect(")")
            elem: Element = Pair(left, right)
        elif kind == "nat":
            elem = Nat(self.nat())
        elif kind == "name":
            elem = Atom(self.advance())
        else:
            raise self.fail({"identifier", "natural", "'('"}, "expected an element")
        while self.kind == "@":
            self.advance()
            elem = Tag(elem, self.nat())
        return elem

    def brace_set(self) -> frozenset[Element]:
        self.expect("{")
        items: set[Element] = set()
        if self.kind == "}":
            self.advance()
            return frozenset(items)
        while True:
            items.add(self.element())
            kind = self.kind
            if kind not in (",", "}"):
                raise self.fail({"','", "'}'"})
            self.advance()
            if kind == "}":
                return frozenset(items)

    def ncset(self) -> NCSet:
        self.expect("<")
        first = self.brace_set()
        self.expect("|")
        second = self.brace_set()
        if self.kind == "|":
            self.advance()
            third = self.brace_set()
            self.expect(">")
            return NCSet(first, second, third)
        self.expect(">")
        return NCSet.from_extensions(first, second)


def parse_element(text: str) -> Element:
    parser = _LiteralParser(text)
    return parser.end(parser.element())


def parse_ncset(text: str) -> NCSet:
    """Parse ``<{...}|{...}|{...}>`` (parts) or ``<{...}|{...}>`` (extensions)."""
    parser = _LiteralParser(text)
    return parser.end(parser.ncset())
