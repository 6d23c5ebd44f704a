"""Finite non-classical sets.

An ``NCSet`` is stored as its two classical extensions: the elements
whose membership is true (``bang_ext``) and those whose membership is
not false (``query_ext``).  Any two classical sets make a set, so each
set operation is two classical ones.  The three disjoint parts, both
true and false (``bpart``), just true (``tpart``) and neither
(``npart``), are derived; disjointness is checked only where parts come
in.  Realm elements are hash-consed ``Element`` values: one object per
class and fields, compared and hashed by identity, in C; the table keeps
every distinct element a process builds.  Sets never contain sets here.

The module also provides classical (single-valued) functions between
elements, images of sets under them, and the text literal syntax
``<{a,b}|{c}|{d}>`` used by the CLI and session files.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import DisjointnessViolation, DomainError
from .scan import Cursor
from .truth import _BY_FLAGS, B, F, N, T, TruthValue
from .value import Value

_set = object.__setattr__  # past Value's immutability, as value._assign writes


# ---------------------------------------------------------------------------
# Elements

_ELEMENTS: dict[tuple, "Element"] = {}


class Element(Value):
    """Base class for realm members: atoms, naturals, pairs, tags."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__init__, cls.__eq__, cls.__hash__ = object.__init__, object.__eq__, object.__hash__

    def __new__(cls, *fields: object) -> "Element":
        key = (cls, *fields, *map(type, fields))  # typed: Nat(True) is not Nat(1)
        try:
            return _ELEMENTS[key]
        except KeyError:
            element = object.__new__(cls)
            element._assign(*fields)
            return _ELEMENTS.setdefault(key, element)  # one of two racing threads wins


class Atom(Element):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name


class Nat(Element):
    __slots__ = ("value",)

    def __str__(self) -> str:
        return str(self.value)


class Pair(Element):
    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


class Tag(Element):
    __slots__ = ("value", "index")

    def __str__(self) -> str:
        return f"{self.value}@{self.index}"


# ---------------------------------------------------------------------------
# Non-classical sets


class NCSet(Value):
    """A finite set with four-valued membership, stored as its two extensions."""

    __slots__ = ("bang_ext", "query_ext")

    def __init__(self, bpart: Iterable[Element] = (), tpart: Iterable[Element] = (),
                 npart: Iterable[Element] = ()):
        bpart, tpart, npart = frozenset(bpart), frozenset(tpart), frozenset(npart)
        overlap = (bpart & tpart) | (bpart & npart) | (tpart & npart)
        if overlap:
            raise DisjointnessViolation(min(overlap, key=str))
        self._assign(bpart | tpart, tpart | npart)

    @classmethod
    def from_extensions(cls, bang_ext: Iterable[Element], query_ext: Iterable[Element]) -> "NCSet":
        """Build the unique set with the given !-extension and ?-extension."""
        a = object.__new__(cls)  # every oracle image is built here: no _assign frame
        _set(a, "bang_ext", frozenset(bang_ext))
        _set(a, "query_ext", frozenset(query_ext))
        return a

    def __reduce__(self) -> tuple:
        return self.from_extensions, (self.bang_ext, self.query_ext)

    @property
    def bpart(self) -> frozenset[Element]:
        """Elements whose membership is both true and false."""
        return self.bang_ext - self.query_ext

    @property
    def tpart(self) -> frozenset[Element]:
        """Elements whose membership is just true."""
        return self.bang_ext & self.query_ext

    @property
    def npart(self) -> frozenset[Element]:
        """Elements whose membership is neither true nor false."""
        return self.query_ext - self.bang_ext

    @property
    def realm(self) -> frozenset[Element]:
        """The smallest classical set containing this one."""
        return self.bang_ext | self.query_ext

    def member_tv(self, x: Element) -> TruthValue:
        if x in self.bang_ext:
            return T if x in self.query_ext else B
        return N if x in self.query_ext else F

    # Each relation looks its verdict up by its flags, with no TruthValue.__new__ frame.
    def subset_tv(self, other: "NCSet") -> TruthValue:
        return _BY_FLAGS[
            self.bang_ext <= other.bang_ext and self.query_ext <= other.query_ext,
            not self.bang_ext <= other.query_ext,
        ]

    def eq_tv(self, other: "NCSet") -> TruthValue:
        return _BY_FLAGS[
            self.bang_ext == other.bang_ext and self.query_ext == other.query_ext,
            not (self.bang_ext <= other.query_ext and other.bang_ext <= self.query_ext),
        ]

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
        """Cartesian product: membership of (x,y) is the conjunction, so
        (x,y) is a member when both are and a possible member when both are."""
        return NCSet.from_extensions(
            {Pair(x, y) for x in self.bang_ext for y in other.bang_ext},
            {Pair(x, y) for x in self.query_ext for y in other.query_ext})

    def disjoint_union(self, other: "NCSet") -> "NCSet":
        """Tagged sum: x@0 carries membership in self, y@1 in other."""
        return NCSet.from_extensions(
            {Tag(x, 0) for x in self.bang_ext} | {Tag(y, 1) for y in other.bang_ext},
            {Tag(x, 0) for x in self.query_ext} | {Tag(y, 1) for y in other.query_ext})

    def __str__(self) -> str:
        def braces(part: frozenset[Element]) -> str:
            return "{" + ",".join(sorted(map(str, part))) + "}"

        return f"<{braces(self.bpart)}|{braces(self.tpart)}|{braces(self.npart)}>"


# ---------------------------------------------------------------------------
# Classical functions


class ClassicalFn:
    """A finite single-valued map between elements, held as its ``graph``
    dict in one slot, since the counting oracle makes one per counting."""

    __slots__ = ("graph",)

    def __init__(self, graph: Mapping[Element, Element] | Iterable[tuple[Element, Element]]):
        self.graph = dict(graph)

    def image(self, a: NCSet) -> NCSet:
        """The image set: membership of an output is the join of the
        membership values of all its preimages, so it is true when some
        preimage's is and false when every preimage's is."""
        lookup = self.graph.__getitem__  # the lookups check the domain themselves
        try:
            return NCSet.from_extensions(map(lookup, a.bang_ext), map(lookup, a.query_ext))
        except KeyError:
            raise DomainError(sorted(a.realm.difference(self.graph), key=str)) from None


# ---------------------------------------------------------------------------
# Text literals


class _LiteralParser(Cursor):
    """The element and set literal grammar."""

    symbols = ("<", ">", "{", "}", "|", ",", "(", ")", "@")
    what = "literal"

    def element(self) -> Element:
        kind = self.kind
        if kind == "(":
            self.advance()
            self.enter()
            left = self.element()
            self.expect(",")
            right = self.element()
            self.expect(")")
            self.depth -= 1
            elem: Element = Pair(left, right)
        elif kind == "nat":
            elem = Nat(self.nat())
        elif kind == "name":
            elem = Atom(self.advance())
        else:
            raise self.fail({"identifier", "natural", "'('"}, "expected an element")
        if self.kind == "@":
            depth = self.depth
            while self.kind == "@":  # each tag wraps the element one level deeper
                self.enter()
                self.advance()
                elem = Tag(elem, self.nat())
            self.depth = depth
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

    def elements(self) -> list[Element]:
        """Element literals up to the end of the text."""
        elements = []
        while self.kind != "end":
            elements.append(self.element())
        return elements

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


def parse_ncset(text: str) -> NCSet:
    """Parse ``<{...}|{...}|{...}>`` (parts) or ``<{...}|{...}>`` (extensions)."""
    parser = _LiteralParser(text)
    return parser.end(parser.ncset())
