"""Numbers of the form xt + xb*b + xn*n over the classical rationals.

Addition and negation are componentwise.  ``product`` holds the rule
b*b = b, n*n = n, b*n = 0 once, for these numbers and for cardinals.
In the coordinates (xt, xt+xb, xt+xn) that rule is componentwise, so a
number is invertible when no coordinate is zero and its inverse is the
coordinatewise reciprocal; then y * y.inverse() is exactly 1.  All
arithmetic is over ``fractions.Fraction`` so the defining identities
hold with no tolerance.

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


class ParaReal(Value):
    __slots__ = ("xt", "xb", "xn")

    def __init__(self, xt: Rational = 0, xb: Rational = 0, xn: Rational = 0):
        self._assign(Fraction(xt), Fraction(xb), Fraction(xn))

    def __add__(self, other: "ParaReal") -> "ParaReal":
        return ParaReal(self.xt + other.xt, self.xb + other.xb, self.xn + other.xn)

    def __neg__(self) -> "ParaReal":
        return ParaReal(-self.xt, -self.xb, -self.xn)

    def __sub__(self, other: "ParaReal") -> "ParaReal":
        return self + (-other)

    def __mul__(self, other: "ParaReal") -> "ParaReal":
        return ParaReal(*product((self.xt, self.xb, self.xn), (other.xt, other.xb, other.xn)))

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

    def __str__(self) -> str:
        terms = []
        for coeff, unit in ((self.xt, ""), (self.xb, "b"), (self.xn, "n")):
            if coeff == 0:
                continue
            size = abs(coeff)
            if unit:
                body = unit if size == 1 else f"{size} {unit}"
            else:
                body = str(size)
            terms.append(("-" if coeff < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text


ZERO = ParaReal(0, 0, 0)
ONE = ParaReal(1, 0, 0)
B_UNIT = ParaReal(0, 1, 0)
N_UNIT = ParaReal(0, 0, 1)
