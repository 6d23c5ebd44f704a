"""Numbers of the form xt + xb*b + xn*n over the classical rationals.

Addition and negation are componentwise.  ``Linear`` holds the literal
syntax and ``product`` the rule b*b = b, n*n = n, b*n = 0, each once, for
these numbers and for cardinals.  In the coordinates (xt, xt+xb, xt+xn)
that rule is componentwise, so a number is invertible when no coordinate
is zero and its inverse is the coordinatewise reciprocal; then
y * y.inverse() is exactly 1.  All arithmetic is over
``fractions.Fraction`` so the defining identities hold with no tolerance.

No ordering or inequality is defined: how to read "less than" or
"distinct" for these numbers is an open question (negative coefficients
break the intuitions that work for cardinals, e.g. -2n vs -b).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GuardError
from .value import Value

Rational = Fraction | int | str


def product(x: tuple, y: tuple) -> tuple:
    """The product of (t, b, n) triples under b*b = b, n*n = n, b*n = 0."""
    xt, xb, xn = x
    yt, yb, yn = y
    return (xt * yt, xt * yb + xb * yt + xb * yb, xt * yn + xn * yt + xn * yn)


class Linear(Value):
    """A number t + b*b + n*n, its coefficients given by ``decompose``.  It
    prints as a literal that ``eval_arith`` reads back: an ``int`` coefficient
    sits next to its unit (2b), any other stands apart (1/3 b, aleph0 b)."""

    __slots__ = ()

    def __str__(self) -> str:
        terms = []
        for coeff, unit in zip(self.decompose(), ("", "b", "n")):
            if coeff == 0:
                continue
            if not unit:
                terms.append(str(coeff))
            elif coeff in (1, -1):
                terms.append(unit if coeff == 1 else "-" + unit)
            else:
                terms.append(f"{coeff}{unit}" if isinstance(coeff, int) else f"{coeff} {unit}")
        # A negative term's own sign takes the place of the "+" before it.
        return " + ".join(terms).replace(" + -", " - ") or "0"


class ParaReal(Linear):
    __slots__ = ("xt", "xb", "xn")

    def __init__(self, xt: Rational = 0, xb: Rational = 0, xn: Rational = 0):
        self._assign(Fraction(xt), Fraction(xb), Fraction(xn))

    def decompose(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.xt, self.xb, self.xn)

    def __add__(self, other: "ParaReal") -> "ParaReal":
        return ParaReal(self.xt + other.xt, self.xb + other.xb, self.xn + other.xn)

    def __neg__(self) -> "ParaReal":
        return ParaReal(-self.xt, -self.xb, -self.xn)

    def __sub__(self, other: "ParaReal") -> "ParaReal":
        return self + (-other)

    def __mul__(self, other: "ParaReal") -> "ParaReal":
        return ParaReal(*product(self.decompose(), other.decompose()))

    def inverse(self) -> "ParaReal":
        coords = (self.xt, self.xt + self.xb, self.xt + self.xn)
        failed = [name for name, value in zip(("t component", "t+b sum", "t+n sum"), coords)
                  if value == 0]
        if failed:
            raise GuardError("not invertible: " + " and ".join(failed) + " zero")
        t, tb, tn = (1 / value for value in coords)
        return ParaReal(t, tb - t, tn - t)

    def __truediv__(self, other: "ParaReal") -> "ParaReal":
        return self * other.inverse()


ZERO = ParaReal(0, 0, 0)
ONE = ParaReal(1, 0, 0)
