"""Numbers of the form xt + xb*b + xn*n over the classical rationals.

Addition and negation are componentwise; multiplication uses the same
rule as cardinal products.  A number is invertible when xt, xt+xb, and
xt+xn are all nonzero, and then y * y.inverse() is exactly 1.  All
arithmetic is over ``fractions.Fraction`` so the defining identities
hold with no tolerance.

No ordering or inequality is defined: how to read "less than" or
"distinct" for these numbers is an open question (negative coefficients
break the intuitions that work for cardinals, e.g. -2n vs -b).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible
from .value import Value

Rational = Fraction | int | str


class ParaReal(Value):
    __slots__ = ("xt", "xb", "xn")

    def __init__(self, xt: Rational = 0, xb: Rational = 0, xn: Rational = 0):
        object.__setattr__(self, "xt", Fraction(xt))
        object.__setattr__(self, "xb", Fraction(xb))
        object.__setattr__(self, "xn", Fraction(xn))

    def __add__(self, other: "ParaReal") -> "ParaReal":
        return ParaReal(self.xt + other.xt, self.xb + other.xb, self.xn + other.xn)

    def __neg__(self) -> "ParaReal":
        return ParaReal(-self.xt, -self.xb, -self.xn)

    def __sub__(self, other: "ParaReal") -> "ParaReal":
        return self + (-other)

    def __mul__(self, other: "ParaReal") -> "ParaReal":
        return ParaReal(
            self.xt * other.xt,
            self.xt * other.xb + self.xb * other.xt + self.xb * other.xb,
            self.xt * other.xn + self.xn * other.xt + self.xn * other.xn,
        )

    def inverse(self) -> "ParaReal":
        failed = [name for name, value in (("t component", self.xt),
                                           ("t+b sum", self.xt + self.xb),
                                           ("t+n sum", self.xt + self.xn))
                  if value == 0]
        if failed:
            raise NotInvertible(" and ".join(failed) + " zero")
        return ParaReal(
            1 / self.xt,
            -self.xb / (self.xt * (self.xt + self.xb)),
            -self.xn / (self.xt * (self.xt + self.xn)),
        )

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
