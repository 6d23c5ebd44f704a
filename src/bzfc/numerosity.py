"""Same-size and at-most-size comparisons: the only copy of their closed forms.

Both relations are four-valued.  They are defined by quantifying over
countings (injective relabelings of the realm), but reduce to closed
forms over (t, b, n) triples whose coordinates need only ``+`` and
``<=``: ``cong_tv`` and ``preceq_tv`` apply them to the part sizes of
finite sets, ``Cardinal.eq_tv`` and ``le_tv`` to cardinal coefficients.
The definitional search lives in the oracle module and exists to
validate these.
"""

from __future__ import annotations

from .sets import NCSet
from .truth import TruthValue


def part_sizes(a: NCSet) -> tuple[int, int, int]:
    """The (t, b, n) part sizes, from one intersection of the extensions."""
    t = len(a.bang_ext & a.query_ext)
    return (t, len(a.bang_ext) - t, len(a.query_ext) - t)


def same_size(x: tuple, y: tuple) -> TruthValue:
    """True when the triples are equal; false when either's members (t+b)
    outnumber the other's possible members (t+n), or either's b exceeds
    the other's n, so a leftover pebble is forced."""
    xt, xb, xn = x
    yt, yb, yn = y
    deniable = not (xt + xb <= yt + yn and yt + yb <= xt + xn and xb <= yn and yb <= xn)
    return TruthValue(x == y, deniable)


def at_most(x: tuple, y: tuple) -> TruthValue:
    """True when the realm, both extensions and the t part all fit; false
    when x's members outnumber y's possible members."""
    xt, xb, xn = x
    yt, yb, yn = y
    assertable = (xt + xb + xn <= yt + yb + yn and xt + xb <= yt + yb
                  and xt + xn <= yt + yn and xt <= yt)
    return TruthValue(assertable, not xt + xb <= yt + yn)


def cong_tv(a: NCSet, b: NCSet) -> TruthValue:
    return same_size(part_sizes(a), part_sizes(b))


def preceq_tv(a: NCSet, b: NCSet) -> TruthValue:
    return at_most(part_sizes(a), part_sizes(b))
