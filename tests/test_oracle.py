"""The brute-force counting search, and its agreement with the closed forms."""

import cProfile
import itertools
import math
import pstats
import random
from pathlib import Path

import pytest

from helpers import random_ncset
from test_numerosity import signature_set
from test_sets import two_atom_family
from bzfc import oracle
from bzfc.errors import GuardError, GuardExceeded
from bzfc.numerosity import cong_tv, preceq_tv
from bzfc.oracle import (MAX_REALM_SIZE, _pebbles, _Pebble, cong_brute,
                         enumerate_countings, preceq_brute)
from bzfc.sets import Atom, ClassicalFn, Element, Nat, NCSet, Pair, Tag
from bzfc.truth import B, T

a, b, c, d = (Atom(ch) for ch in "abcd")


class TestPebblePool:
    """The fresh elements that ``cong_brute`` and ``preceq_brute`` count into."""

    def test_disjoint_from_realms(self):
        s = NCSet({Atom("p1")}, {Atom("p2")}, set())
        t = NCSet(set(), {Atom("p0"), Atom("p3")}, set())
        pool = _pebbles(s, t)
        assert len(set(pool)) == 4
        assert not set(pool) & (s.realm | t.realm)

    def test_default_size_is_realm_sum(self):
        s = NCSet({a}, {b}, set())
        t = NCSet(set(), set(), {c})
        assert len(_pebbles(s, t)) == 3

    def test_a_pebble_equals_only_itself(self):
        first = _Pebble(0)
        assert _Pebble(0) is first
        assert first != _Pebble(1) and first != Nat(0)
        assert len({first, _Pebble(0), _Pebble(1)}) == 2
        assert repr(first) == "_Pebble(index=0)"

    def test_pebbles_hash_by_identity(self):
        assert _Pebble.__hash__ is object.__hash__
        assert _Pebble.__eq__ is object.__eq__


class TestEnumeration:
    def test_empty_realm_has_one_counting(self):
        countings = list(enumerate_countings(NCSet(), [a, b]))
        assert len(countings) == 1
        assert countings[0].graph == {}

    def test_count_is_falling_factorial(self):
        s = NCSet({a}, {b}, set())
        countings = list(enumerate_countings(s, [c, d, Atom("e")]))
        assert len(countings) == 6  # 3 * 2

    def test_counts_on_larger_codomains(self):
        s = NCSet({a}, {b}, {c})
        for size in (3, 4, 5):
            codomain = [Atom(f"q{i}") for i in range(size)]
            got = len(list(enumerate_countings(s, codomain)))
            assert got == math.perm(size, 3)

    def test_every_counting_is_injective_on_the_realm(self):
        s = NCSet({a}, {b}, {c})
        for counting in enumerate_countings(s, [c, d, Atom("e"), Atom("g")]):
            assert len(set(counting.graph.values())) == len(counting.graph)
            assert counting.graph.keys() == s.realm

    def test_pool_too_small(self):
        with pytest.raises(GuardError, match="codomain of 1 cannot count a realm of 2"):
            list(enumerate_countings(NCSet({a}, {b}, set()), [c]))

    def test_pool_too_small_is_refused_on_the_call(self):
        # The guard runs when the countings are asked for, before any is built.
        with pytest.raises(GuardError, match="codomain of 2 cannot count a realm of 3"):
            enumerate_countings(NCSet({a}, {b}, {c}), [d, Atom("e")])

    def test_countings_hold_only_a_graph_on_the_realms_own_elements(self):
        s = NCSet({a}, {Pair(b, Nat(1))}, {Tag(c, 0)})
        countings = list(enumerate_countings(s, [d, Atom("e"), Nat(0)]))
        assert len(countings) == 6
        for counting in countings:
            assert type(counting) is ClassicalFn and not hasattr(counting, "__dict__")
            assert {id(x) for x in counting.graph} == {id(x) for x in s.realm}

    def test_a_counting_runs_no_spare_python_frame(self):
        # Each counting runs ClassicalFn's constructor, image, from_extensions
        # and the relation as Python code; the rest (the permutations, the
        # graph, the extensions, the verdict's lookup) runs in C.
        s, t = NCSet({a, b}, {c}, {d}), NCSet({a}, {Atom("e")}, set())
        countings = math.perm(len(t.realm) + len(s.realm) + len(t.realm), len(s.realm))
        for search, relation in ((cong_brute, "eq_tv"), (preceq_brute, "subset_tv")):
            profile = cProfile.Profile()
            assert profile.runcall(search, s, t) != T
            per_counting = {(Path(path).name, name) for (path, _, name), (calls, *_) in
                            pstats.Stats(profile).stats.items()
                            if path != "~" and calls >= countings}
            assert per_counting == {("sets.py", name) for name in
                                    ("__init__", "image", "from_extensions", relation)}


class TestBruteForce:
    def test_empty_vs_empty(self):
        assert cong_brute(NCSet(), NCSet()) == T
        assert preceq_brute(NCSet(), NCSet()) == T

    def test_worked_example_self_comparison(self):
        s = NCSet({a, b}, {c}, {d})
        assert cong_brute(s, s) == B

    def test_guard(self):
        big = NCSet(set(), {Atom(f"e{i}") for i in range(MAX_REALM_SIZE + 1)}, set())
        with pytest.raises(GuardExceeded):
            cong_brute(big, NCSet())
        with pytest.raises(GuardExceeded):
            preceq_brute(NCSet(), big)

    def test_exhaustive_agreement_on_two_atom_family(self):
        for s, t in itertools.product(two_atom_family(), repeat=2):
            assert cong_brute(s, t) == cong_tv(s, t), f"{s} vs {t}"
            assert preceq_brute(s, t) == preceq_tv(s, t), f"{s} vs {t}"

    def test_random_agreement(self):
        rng = random.Random(17)
        for _ in range(120):
            s = random_ncset(rng, MAX_REALM_SIZE)
            t = random_ncset(rng, MAX_REALM_SIZE)
            assert cong_brute(s, t) == cong_tv(s, t), f"{s} vs {t}"
            assert preceq_brute(s, t) == preceq_tv(s, t), f"{s} vs {t}"

    def test_pool_enlargement_never_changes_the_verdict(self, monkeypatch):
        rng = random.Random(18)
        pairs = [(random_ncset(rng, 2), random_ncset(rng, 2)) for _ in range(25)]
        base = [(cong_brute(s, t), preceq_brute(s, t)) for s, t in pairs]
        for extra in (1, 2, 3):
            def enlarged(s, t, extra=extra):
                pool = _pebbles(s, t)
                return pool + [_Pebble(len(pool) + i) for i in range(extra)]

            monkeypatch.setattr(oracle, "_pebbles", enlarged)
            assert [(cong_brute(s, t), preceq_brute(s, t)) for s, t in pairs] == base

    def test_a_search_that_never_stops_runs_every_counting_in_order(self, monkeypatch):
        # On a pair whose verdict is not t nothing stops the search early,
        # so it relates the image of every counting into |b| realm elements
        # and |a| + |b| pebbles, in the enumeration's order.
        s, t = NCSet({a, b}, {c}, {d}), NCSet({a}, {Atom("e")}, set())
        codomain = sorted(t.realm, key=str) + _pebbles(s, t)

        def shape(image):
            def name(x):
                return f"pebble {x.index}" if isinstance(x, _Pebble) else str(x)
            return sorted(map(name, image.bang_ext)), sorted(map(name, image.query_ext))

        direct = [shape(f.image(s)) for f in enumerate_countings(s, codomain)]
        assert len(direct) == math.perm(2 * len(t.realm) + len(s.realm), len(s.realm))
        for search, relation in ((cong_brute, "eq_tv"), (preceq_brute, "subset_tv")):
            seen = []
            relate = getattr(NCSet, relation)

            def recorded(image, other, relate=relate):
                seen.append(shape(image))
                return relate(image, other)

            monkeypatch.setattr(NCSet, relation, recorded)
            assert search(s, t) != T
            monkeypatch.undo()
            assert seen == direct

    def test_every_counting_is_imaged_once(self, monkeypatch):
        # The benchmark's tracer reads the search's work from these two
        # functions, so neither may be bypassed.
        calls = {"countings": 0, "images": 0}
        enumerate_countings_, image = oracle.enumerate_countings, ClassicalFn.image

        def counted_enumerate(*args):
            for counting in enumerate_countings_(*args):
                calls["countings"] += 1
                yield counting

        def counted_image(self, s):
            calls["images"] += 1
            return image(self, s)

        monkeypatch.setattr(oracle, "enumerate_countings", counted_enumerate)
        monkeypatch.setattr(ClassicalFn, "image", counted_image)
        s, t = NCSet({a}, {b}, {c}), NCSet({a}, set(), {d})
        cong_brute(s, t)
        preceq_brute(s, t)
        assert calls["images"] == calls["countings"] > 0


class TestRelabelingInvariance:
    """Both searches depend on the two sets only up to a renaming of
    either realm, the property that would let a search count a relabeled
    copy, or one counting per orbit.  Names are renamed to fresh ones of
    other kinds, or onto names the other set uses."""

    FRESH: tuple[Element, ...] = (Atom("z"), Nat(7), Pair(a, Nat(1)), Tag(b, 0),
                                  Atom("a0"), Nat(10))

    def test_renaming_either_realm_keeps_both_verdicts(self):
        rng = random.Random(22)
        for _ in range(150):
            s, t = random_ncset(rng, 3), random_ncset(rng, 3)
            verdicts = cong_brute(s, t), preceq_brute(s, t)
            for which in (0, 1):
                moved, other = (s, t) if which == 0 else (t, s)
                targets = list(self.FRESH) + sorted(other.realm, key=str)
                names = dict(zip(moved.realm, rng.sample(targets, len(moved.realm))))
                renamed = NCSet(*(map(names.__getitem__, part)
                                  for part in (moved.bpart, moved.tpart, moved.npart)))
                pair = (renamed, t) if which == 0 else (s, renamed)
                assert (cong_brute(*pair), preceq_brute(*pair)) == verdicts, \
                    f"{s} vs {t}, renamed {renamed}"


class TestSignatures:
    """Every ordered pair of the 20 (t, b, n) part-size signatures with
    realms up to 3, with disjoint names and with shared ones: the closed
    forms give the search's verdicts.  By the relabeling invariance above,
    this covers every pair of sets with realms up to 3."""

    SIGNATURES = [sig for sig in itertools.product(range(4), repeat=3) if sum(sig) <= 3]

    @pytest.mark.parametrize("prefixes", [("a", "b"), ("e", "e")], ids=["disjoint", "shared"])
    def test_closed_forms_match_the_search(self, prefixes):
        assert len(self.SIGNATURES) == 20
        for sig_s, sig_t in itertools.product(self.SIGNATURES, repeat=2):
            s, t = signature_set(*sig_s, prefixes[0]), signature_set(*sig_t, prefixes[1])
            assert cong_brute(s, t) == cong_tv(s, t), f"{s} vs {t}"
            assert preceq_brute(s, t) == preceq_tv(s, t), f"{s} vs {t}"
