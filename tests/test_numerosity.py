"""Closed-form size comparisons and their equivalence-relation laws."""

import random

from hypothesis import given
from hypothesis import strategies as st

from test_sets import ncsets
from bzfc.numerosity import cong_tv, preceq_tv
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
            other = NCSet(*_random_parts(rng))
            assert preceq_tv(NCSet(), other) == T

    def test_two_classical_vs_one_classical(self):
        assert preceq_tv(NCSet(set(), {x, y}, set()), NCSet(set(), {x}, set())) == F


def _random_parts(rng):
    pool = [Atom(ch) for ch in "abcdef"]
    chosen = rng.sample(pool, rng.randint(0, 6))
    parts = ([], [], [])
    for e in chosen:
        parts[rng.randrange(3)].append(e)
    return parts


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
