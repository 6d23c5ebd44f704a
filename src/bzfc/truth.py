"""The four BS4 truth values and their connectives.

A value is a pair of independent flags: whether the statement is
assertable (true) and whether it is deniable (false).  The four
combinations are written t, b, n, f.  Every connective below is
computed from the flag pair, so the familiar truth tables are a
consequence, not an input.
"""

from __future__ import annotations

from .value import Value


class TruthValue(Value):
    """One of T, B, N, F, the only four instances."""

    __slots__ = ("assertable", "deniable")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # __new__ returns one of the four, already set

    def __new__(cls, assertable: bool, deniable: bool) -> "TruthValue":
        return _BY_FLAGS[assertable, deniable]

    @property
    def letter(self) -> str:
        if self.assertable:
            return "b" if self.deniable else "t"
        return "f" if self.deniable else "n"

    @classmethod
    def from_letter(cls, letter: str) -> "TruthValue":
        try:
            return _BY_LETTER[letter]
        except KeyError:
            raise ValueError(f"not a truth value letter: {letter!r}") from None

    def __str__(self) -> str:
        return self.letter

    def __repr__(self) -> str:
        return f"TruthValue.{self.letter}"


_BY_FLAGS: dict[tuple[bool, bool], TruthValue] = {}
for _flags in ((True, False), (True, True), (False, False), (False, True)):
    _BY_FLAGS[_flags] = _value = object.__new__(TruthValue)
    _value._assign(*_flags)
T, B, N, F = _BY_FLAGS.values()

ALL_VALUES = (T, B, N, F)

_BY_LETTER = {"t": T, "b": B, "n": N, "f": F}


def neg(x: TruthValue) -> TruthValue:
    """De Morgan negation ~: swaps assertability and deniability."""
    return TruthValue(x.deniable, x.assertable)


def conj(x: TruthValue, y: TruthValue) -> TruthValue:
    return TruthValue(x.assertable and y.assertable, x.deniable or y.deniable)


def disj(x: TruthValue, y: TruthValue) -> TruthValue:
    return TruthValue(x.assertable or y.assertable, x.deniable and y.deniable)


def imp(x: TruthValue, y: TruthValue) -> TruthValue:
    """Implication ->: assertable when truth of x yields truth of y;
    deniable when x is assertable and y deniable.  Does not contrapose."""
    return TruthValue((not x.assertable) or y.assertable, x.assertable and y.deniable)


def iff(x: TruthValue, y: TruthValue) -> TruthValue:
    return TruthValue(
        x.assertable == y.assertable,
        (x.assertable and y.deniable) or (x.deniable and y.assertable),
    )


def strong_imp(x: TruthValue, y: TruthValue) -> TruthValue:
    """Implication => that also contraposes: (x -> y) /\\ (~y -> ~x)."""
    return conj(imp(x, y), imp(neg(y), neg(x)))


def strong_iff(x: TruthValue, y: TruthValue) -> TruthValue:
    """Equivalence <=> on both flags: (x <-> y) /\\ (~x <-> ~y)."""
    return conj(iff(x, y), iff(neg(x), neg(y)))


def cneg(x: TruthValue) -> TruthValue:
    """Classical negation -: the absence of truth, x -> false."""
    return imp(x, F)


def bang(x: TruthValue) -> TruthValue:
    """!x, a classical value: t exactly when x is assertable."""
    return neg(cneg(x))


def query(x: TruthValue) -> TruthValue:
    """?x, a classical value: f exactly when x is deniable."""
    return cneg(neg(x))


def circ(x: TruthValue) -> TruthValue:
    """ox: t exactly when x itself is classical."""
    return iff(bang(x), query(x))


def amp(x: TruthValue, y: TruthValue) -> TruthValue:
    """x & y, the conjunction ~(x -> ~y): assertable exactly when
    x /\\ y is, but deniable when truth of x yields falsity of y."""
    return neg(imp(x, neg(y)))
