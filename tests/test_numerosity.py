"""Closed-form size comparisons and their equivalence-relation laws."""

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from test_sets import ncsets
from bzfc.cardinal import card_of
from bzfc.numerosity import cong_tv, preceq_tv
from bzfc.selfcheck import random_ncset
from bzfc.sets import Atom, NCSet
from bzfc.truth import B, F, N, T

a, b, c, d, x, y = (Atom(ch) for ch in "abcdxy")


class TestExamples:
    def test_inconsistent_set_is_and_is_not_its_own_size(self):
        s = NCSet({a, b}, {c}, {d})
        assert cong_tv(s, s) == B

    def test_empty_sets_match(self):
        assert cong_tv(NCSet(), NCSet()) == T

    def test_pure_b_vs_pure_n_is_undetermined(self):
        assert cong_tv(NCSet({a}, set(), set()), NCSet(set(), set(), {b})) == N

    def test_b_unit_fits_below_classical_unit(self):
        assert preceq_tv(NCSet({a}, set(), set()), NCSet(set(), {x}, set())) == T

    def test_empty_fits_below_everything(self):
        rng = random.Random(3)
        for _ in range(50):
            other = random_ncset(rng, 6)
            assert preceq_tv(NCSet(), other) == T

    def test_two_classical_vs_one_classical(self):
        assert preceq_tv(NCSet(set(), {x, y}, set()), NCSet(set(), {x}, set())) == F


class TestEquivalenceLaws:
    @given(ncsets())
    def test_reflexive(self, s):
        assert cong_tv(s, s).assertable
        assert preceq_tv(s, s).assertable

    @given(ncsets(), ncsets())
    def test_fully_symmetric(self, s, t):
        assert cong_tv(s, t) == cong_tv(t, s)

    @given(ncsets(), ncsets(), ncsets())
    def test_congruence(self, s, t, u):
        if cong_tv(s, t).assertable:
            assert cong_tv(s, u) == cong_tv(t, u)
            assert preceq_tv(s, u) == preceq_tv(t, u)
            assert preceq_tv(u, s) == preceq_tv(u, t)

    @given(ncsets(), ncsets(), ncsets())
    def test_transitive_assertability(self, s, t, u):
        if preceq_tv(s, t).assertable and preceq_tv(t, u).assertable:
            assert preceq_tv(s, u).assertable

    @given(ncsets(), ncsets())
    def test_finite_schroeder_bernstein(self, s, t):
        if preceq_tv(s, t).assertable and preceq_tv(t, s).assertable:
            assert cong_tv(s, t).assertable

    @given(ncsets(), ncsets())
    def test_cong_implies_preceq_both_ways(self, s, t):
        if cong_tv(s, t).assertable:
            assert preceq_tv(s, t).assertable
            assert preceq_tv(t, s).assertable

    @given(ncsets())
    def test_self_comparison_denial_needs_imbalance(self, s):
        # a set falls short of itself exactly when members outnumber
        # possible members, i.e. more inconsistent than incomplete elements
        assert cong_tv(s, s).deniable == (len(s.bpart) > len(s.npart))
        assert preceq_tv(s, s).deniable == (len(s.bpart) > len(s.npart))


class TestSubsetGivesPreceq:
    @given(ncsets(), ncsets())
    def test_subset_assertable_implies_preceq_assertable(self, s, t):
        if s.subset_tv(t).assertable:
            assert preceq_tv(s, t).assertable


def signature_set(t: int, b: int, n: int) -> NCSet:
    atoms = [Atom(f"e{i}") for i in range(t + b + n)]
    return NCSet(atoms[t:t + b], atoms[:t], atoms[t + b:])


class TestSignatures:
    """All 5,184 pairs of the 72 part-size signatures with parts up to 4
    and realms up to 6: the set comparisons give what the cardinal ones
    give on the sets' cardinals, whose coefficients are the part sizes
    the closed forms read."""

    SIGNATURES = [sig for sig in itertools.product(range(5), repeat=3) if sum(sig) <= 6]

    def test_set_comparisons_match_cardinal_ones(self):
        sets = [signature_set(*sig) for sig in self.SIGNATURES]
        assert len(sets) == 72
        for s, t in itertools.product(sets, repeat=2):
            ks, kt = card_of(s), card_of(t)
            assert cong_tv(s, t) == ks.eq_tv(kt), (str(s), str(t))
            assert preceq_tv(s, t) == ks.le_tv(kt), (str(s), str(t))
