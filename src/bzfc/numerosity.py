"""Same-size and at-most-size comparisons between finite sets.

Both relations are four-valued.  They are defined by quantifying over
countings (injective relabelings of the realm), but on finite sets they
reduce to comparisons of part sizes; these closed forms are what we
compute.  The definitional search lives in the oracle module and exists
to validate these.
"""

from __future__ import annotations

from .sets import NCSet
from .truth import TruthValue


def cong_tv(a: NCSet, b: NCSet) -> TruthValue:
    """Equinumerosity: true when all three parts match in size; false
    when some extension or part is too big to ever tally inside the
    other's, so a leftover pebble is forced."""
    assertable = (len(a.tpart) == len(b.tpart)
                  and len(a.bpart) == len(b.bpart)
                  and len(a.npart) == len(b.npart))
    deniable = (len(a.bang_ext) > len(b.query_ext)
                or len(b.bang_ext) > len(a.query_ext)
                or len(a.bpart) > len(b.npart)
                or len(b.bpart) > len(a.npart))
    return TruthValue(assertable, deniable)


def preceq_tv(a: NCSet, b: NCSet) -> TruthValue:
    """Size-at-most: true when realm, both extensions, and the classical
    part all fit; false when a's members outnumber b's possible members."""
    assertable = (len(a.realm) <= len(b.realm)
                  and len(a.bang_ext) <= len(b.bang_ext)
                  and len(a.query_ext) <= len(b.query_ext)
                  and len(a.tpart) <= len(b.tpart))
    deniable = len(a.bang_ext) > len(b.query_ext)
    return TruthValue(assertable, deniable)

