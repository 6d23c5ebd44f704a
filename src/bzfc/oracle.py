"""Brute-force reference for the size comparisons.

Same-size and at-most-size are defined by searching for a counting (an
injective relabeling of the realm) whose image equals, or lands inside,
the other set.  The search space is a proper class in principle; here
the codomain is cut down to the other set's realm plus a pool of fresh
pebbles.  Any counting can be relabeled into such a codomain without
changing the equality or inclusion verdicts, so nothing is lost; the
pool-sufficiency check in the test suite probes this empirically.

This module exists to validate the closed forms in ``numerosity`` and
is deliberately naive: no memoization, no symmetry pruning, just the
definitions and a factorial guard.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import GuardExceeded, PoolTooSmall
from .sets import Atom, ClassicalFn, Element, NCSet
from .truth import TruthValue

MAX_REALM_SIZE = 4


def _pebbles(a: NCSet, b: NCSet, extra: int = 0) -> list[Atom]:
    """Fresh atoms p1, p2, ... outside both realms: one for each element
    of the two realms, and ``extra`` more."""
    taken = a.realm | b.realm
    size = len(a.realm) + len(b.realm) + extra
    fresh: list[Atom] = []
    i = 1
    while len(fresh) < size:
        candidate = Atom(f"p{i}")
        if candidate not in taken:
            fresh.append(candidate)
        i += 1
    return fresh


def enumerate_countings(a: NCSet, codomain: Sequence[Element]) -> Iterator[ClassicalFn]:
    """All injections from the realm of ``a`` into the codomain."""
    realm = sorted(a.realm, key=str)
    if len(codomain) < len(realm):
        raise PoolTooSmall(
            f"codomain of {len(codomain)} cannot count a realm of {len(realm)}")
    for chosen in itertools.permutations(codomain, len(realm)):
        yield ClassicalFn(zip(realm, chosen))


def _guard(a: NCSet, b: NCSet) -> None:
    biggest = max(len(a.realm), len(b.realm))
    if biggest > MAX_REALM_SIZE:
        raise GuardExceeded(
            f"realm size {biggest} exceeds brute-force limit {MAX_REALM_SIZE}")


def _search(a: NCSet, b: NCSet, relate, extra_pebbles: int) -> TruthValue:
    _guard(a, b)
    codomain = sorted(b.realm, key=str) + _pebbles(a, b, extra_pebbles)
    assertable = False
    deniable = True
    for counting in enumerate_countings(a, codomain):
        verdict = relate(counting.image(a), b)
        assertable = assertable or verdict.assertable
        deniable = deniable and verdict.deniable
        if assertable and not deniable:
            break
    return TruthValue(assertable, deniable)


def cong_brute(a: NCSet, b: NCSet, extra_pebbles: int = 0) -> TruthValue:
    """Equinumerosity by search: true when some counting of ``a`` tallies
    to exactly ``b``; false when every counting's tally differs."""
    return _search(a, b, NCSet.eq_tv, extra_pebbles)


def preceq_brute(a: NCSet, b: NCSet, extra_pebbles: int = 0) -> TruthValue:
    """Size-at-most by search, with inclusion in place of equality."""
    return _search(a, b, NCSet.subset_tv, extra_pebbles)
