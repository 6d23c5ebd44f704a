"""The connective tables, frozen cell by cell, plus their laws.

The tables below are the reference; the implementation must reproduce
them from the flag-pair semantics alone.
"""

import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bzfc import truth
from bzfc.truth import ALL_VALUES, B, F, N, T, TruthValue

LETTERS = "tbnf"

NEG_TABLE = {"t": "f", "b": "b", "n": "n", "f": "t"}

# rows indexed by the left operand, columns by t, b, n, f
CONJ_TABLE = {"t": "tbnf", "b": "bbff", "n": "nfnf", "f": "ffff"}
DISJ_TABLE = {"t": "tttt", "b": "tbtb", "n": "ttnn", "f": "tbnf"}
IMP_TABLE = {"t": "tbnf", "b": "tbnf", "n": "tttt", "f": "tttt"}
IFF_TABLE = {"t": "tbnf", "b": "bbnf", "n": "nntt", "f": "fftt"}

# per value: classical negation, !, ?, o
DEFINED_TABLE = {"t": "fttt", "b": "ftff", "n": "tftf", "f": "tfft"}

BINARY_TABLES = [(truth.conj, CONJ_TABLE), (truth.disj, DISJ_TABLE),
                 (truth.imp, IMP_TABLE), (truth.iff, IFF_TABLE)]

values = st.sampled_from(ALL_VALUES)


def tv(letter: str) -> TruthValue:
    return TruthValue.from_letter(letter)


class TestInhabitants:
    def test_exactly_four(self):
        assert len(set(ALL_VALUES)) == 4
        assert {v.letter for v in ALL_VALUES} == set(LETTERS)

    def test_flag_decomposition(self):
        assert T == TruthValue(True, False)
        assert B == TruthValue(True, True)
        assert N == TruthValue(False, False)
        assert F == TruthValue(False, True)

    def test_interned(self):
        assert TruthValue(True, False) is T
        assert TruthValue(assertable=False, deniable=True) is F
        for v in ALL_VALUES:
            assert copy.copy(v) is v
            assert copy.deepcopy(v) is v
            assert pickle.loads(pickle.dumps(v)) is v

    def test_classical_and_designated(self):
        assert {v.letter for v in ALL_VALUES if truth.circ(v) is T} == {"t", "f"}
        assert {v.letter for v in ALL_VALUES if v.assertable} == {"t", "b"}

    def test_letter_round_trip(self):
        for v in ALL_VALUES:
            assert tv(v.letter) == v
        with pytest.raises(ValueError):
            tv("x")

    def test_str_is_lowercase_letter(self):
        assert [str(v) for v in ALL_VALUES] == ["t", "b", "n", "f"]


class TestPrimitiveTables:
    def test_negation_table(self):
        for x in LETTERS:
            assert truth.neg(tv(x)) == tv(NEG_TABLE[x])

    @pytest.mark.parametrize("op,table", BINARY_TABLES,
                             ids=["conj", "disj", "imp", "iff"])
    def test_binary_table(self, op, table):
        for x, row in table.items():
            for y, out in zip(LETTERS, row):
                assert op(tv(x), tv(y)) == tv(out), f"{op.__name__}({x},{y})"

    def test_defined_unary_table(self):
        for x, row in DEFINED_TABLE.items():
            got = "".join(str(op(tv(x))) for op in
                          (truth.cneg, truth.bang, truth.query, truth.circ))
            assert got == row, f"defined connectives at {x}"


class TestDerivedConnectives:
    def test_strong_imp_examples(self):
        # computed by expanding (x -> y) /\ (~y -> ~x) through the tables
        assert truth.strong_imp(F, T) == T
        assert truth.strong_imp(F, B) == T
        assert truth.strong_imp(F, N) == T
        assert truth.strong_imp(F, F) == T

    def test_strong_iff_examples(self):
        # computed by expanding (x <-> y) /\ (~x <-> ~y) through the tables
        assert truth.strong_iff(B, B) == B
        assert truth.strong_iff(T, B) == F
        assert truth.strong_iff(T, T) == T

    @given(values, values)
    def test_strong_iff_assertable_iff_same_value(self, x, y):
        assert truth.strong_iff(x, y).assertable == (x == y)

    def test_amp_examples(self):
        # computed by expanding ~(x -> ~y) through the tables
        assert truth.amp(T, B) == B
        for y in ALL_VALUES:
            assert truth.amp(F, y) == F

    @given(values, values)
    def test_amp_is_its_defining_composition(self, x, y):
        assert truth.amp(x, y) == truth.neg(truth.imp(x, truth.neg(y)))

    @given(values, values)
    def test_strong_ops_are_their_defining_compositions(self, x, y):
        assert truth.strong_imp(x, y) == truth.conj(
            truth.imp(x, y), truth.imp(truth.neg(y), truth.neg(x)))
        assert truth.strong_iff(x, y) == truth.conj(
            truth.iff(x, y), truth.iff(truth.neg(x), truth.neg(y)))


class TestLaws:
    @given(values)
    def test_negation_is_an_involution(self, x):
        assert truth.neg(truth.neg(x)) == x

    @given(values, values)
    def test_de_morgan(self, x, y):
        assert truth.neg(truth.conj(x, y)) == truth.disj(truth.neg(x), truth.neg(y))
        assert truth.neg(truth.disj(x, y)) == truth.conj(truth.neg(x), truth.neg(y))

    def test_classical_restriction_is_boolean(self):
        as_bool = {T: True, F: False}
        for x, y in itertools.product((T, F), repeat=2):
            assert as_bool[truth.conj(x, y)] == (as_bool[x] and as_bool[y])
            assert as_bool[truth.disj(x, y)] == (as_bool[x] or as_bool[y])
            assert as_bool[truth.imp(x, y)] == ((not as_bool[x]) or as_bool[y])
            assert as_bool[truth.iff(x, y)] == (as_bool[x] == as_bool[y])
        assert truth.neg(T) == F and truth.neg(F) == T

    @given(values)
    def test_conj_disj_identities(self, y):
        assert truth.conj(T, y) == y
        assert truth.disj(F, y) == y

    @given(values, values)
    def test_amp_agrees_with_conj_on_assertability(self, x, y):
        assert truth.amp(x, y).assertable == truth.conj(x, y).assertable

    @given(values, values)
    def test_negated_amp_is_implication_of_negation(self, x, y):
        assert truth.neg(truth.amp(x, y)) == truth.imp(x, truth.neg(y))

    @given(values)
    def test_defined_unaries_are_classical(self, x):
        for op in (truth.cneg, truth.bang, truth.query, truth.circ):
            assert op(x) in (T, F)

    @given(values)
    def test_bang_and_query_capture_the_flags(self, x):
        assert truth.bang(x).assertable == x.assertable
        assert truth.query(x).deniable == x.deniable

    @given(values)
    def test_circ_detects_classicality(self, x):
        assert truth.circ(x).assertable == (x.assertable != x.deniable)
