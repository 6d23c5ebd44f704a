"""Brute-force reference for the size comparisons.

Same-size and at-most-size are defined by searching for a counting (an
injective relabeling of the realm) whose image equals, or lands inside,
the other set.  The search space is a proper class in principle; here
the codomain is cut down to the other set's realm plus a pool of fresh
pebbles.  Any counting can be relabeled into such a codomain without
changing the equality or inclusion verdicts, so nothing is lost.  A
pebble is a ``_Pebble``, a class of element that no literal makes, so
no pebble is in either realm.

This module exists to validate the closed forms in ``numerosity`` and
is deliberately naive: no memoization, no symmetry pruning, just the
definitions and a factorial guard.  ``enumerate_countings`` is a C
iterator, so a counting runs Python code only in ``ClassicalFn``'s
constructor, ``ClassicalFn.image``, ``NCSet.from_extensions`` and the
relation, ``NCSet.eq_tv`` or ``NCSet.subset_tv``.
"""

from __future__ import annotations

from itertools import permutations, repeat
from typing import Iterator, Sequence

from .errors import GuardError, GuardExceeded
from .sets import ClassicalFn, Element, NCSet
from .truth import TruthValue

MAX_REALM_SIZE = 4


class _Pebble(Element):
    """A fresh element to count into; it equals only itself."""

    __slots__ = ("index",)


def _pebbles(a: NCSet, b: NCSet) -> list[_Pebble]:
    """One pebble for each element of the two realms."""
    return [_Pebble(i) for i in range(len(a.realm) + len(b.realm))]


def enumerate_countings(a: NCSet, codomain: Sequence[Element]) -> Iterator[ClassicalFn]:
    """All injections from the realm of ``a`` into the codomain, in the
    order of ``permutations``; the guard runs on the call."""
    realm = sorted(a.realm, key=str)
    if len(codomain) < len(realm):
        raise GuardError(
            f"codomain of {len(codomain)} cannot count a realm of {len(realm)}")
    return map(ClassicalFn, map(zip, repeat(realm), permutations(codomain, len(realm))))


def _guard(a: NCSet, b: NCSet) -> None:
    biggest = max(len(a.realm), len(b.realm))
    if biggest > MAX_REALM_SIZE:
        raise GuardExceeded(
            f"realm size {biggest} exceeds brute-force limit {MAX_REALM_SIZE}")


def _search(a: NCSet, b: NCSet, relate) -> TruthValue:
    _guard(a, b)
    codomain = sorted(b.realm, key=str) + _pebbles(a, b)
    assertable = False
    deniable = True
    for counting in enumerate_countings(a, codomain):
        verdict = relate(counting.image(a), b)
        assertable = assertable or verdict.assertable
        deniable = deniable and verdict.deniable
        if assertable and not deniable:
            break
    return TruthValue(assertable, deniable)


def cong_brute(a: NCSet, b: NCSet) -> TruthValue:
    """Equinumerosity by search: true when some counting of ``a`` tallies
    to exactly ``b``; false when every counting's tally differs."""
    return _search(a, b, NCSet.eq_tv)


def preceq_brute(a: NCSet, b: NCSet) -> TruthValue:
    """Size-at-most by search, with inclusion in place of equality."""
    return _search(a, b, NCSet.subset_tv)
