"""Cardinal arithmetic, four-valued comparison, and the order diagram."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sets import ncsets
from bzfc.cardinal import (Aleph, B_UNIT, Cardinal, N_UNIT, ONE, ZERO, card_of, finite_lattice,
                           lattice_dot)
from bzfc.errors import GuardExceeded
from bzfc.numerosity import cong_tv, preceq_tv
from bzfc.sets import Atom, NCSet
from bzfc.truth import B, F, N, T

a, b, c, d = (Atom(ch) for ch in "abcd")

ALEPH0 = Cardinal(Aleph(0), 0, 0)
ALEPH0_PLUS_B = Cardinal(Aleph(0), 1, 0)

components = st.one_of(st.integers(0, 3), st.just(Aleph(0)))
cardinals = st.builds(Cardinal, components, components, components)
finite_cardinals = st.builds(Cardinal, st.integers(0, 4),
                             st.integers(0, 4), st.integers(0, 4))


def rank(x) -> tuple:
    """The total order of classical cardinals, finite < aleph0 < aleph1,
    as plain tuples."""
    return (1, x.index) if isinstance(x, Aleph) else (0, x)


class TestClassicalCards:
    def test_operator_table(self):
        # Every ordered pair, so an int on the left goes through Aleph's
        # reflected methods.  Between ints the operators are Python's;
        # otherwise a sum is the larger operand, and so is a product
        # unless a factor is 0.
        values = [0, 1, 2, Aleph(0), Aleph(1)]
        for x, y in itertools.product(values, repeat=2):
            finite = not isinstance(x, Aleph) and not isinstance(y, Aleph)
            larger = max(x, y, key=rank)
            want_sum = x + y if finite else larger
            want_product = x * y if finite else 0 if (0, 0) in (rank(x), rank(y)) else larger
            for got, want in ((x + y, want_sum), (x * y, want_product)):
                assert type(got) is type(want) and got == want, (x, y)
            assert (x <= y) is (rank(x) <= rank(y)), (x, y)
            assert (x >= y) is (rank(x) >= rank(y)), (x, y)

    def test_total_order(self):
        assert 0 <= 3 <= Aleph(0) <= Aleph(1) <= Aleph(15)
        assert not Aleph(1) <= Aleph(0) and not Aleph(0) >= Aleph(1)
        assert Aleph(3) <= Aleph(3) and Aleph(3) >= Aleph(3)
        assert not Aleph(0) <= 10 ** 9 and 10 ** 9 <= Aleph(0)

    def test_addition(self):
        assert Aleph(0) + 1 == Aleph(0)
        assert 1 + Aleph(0) == Aleph(0)
        assert Aleph(1) + Aleph(0) == Aleph(1)

    def test_multiplication(self):
        assert Aleph(0) * 0 == 0
        assert 0 * Aleph(2) == 0
        assert Aleph(0) * 7 == Aleph(0)
        assert Aleph(0) * Aleph(2) == Aleph(2)

    def test_validation(self):
        with pytest.raises(ValueError, match="a cardinal cannot be negative: -1"):
            Cardinal(-1, 0, 0)
        with pytest.raises(ValueError, match="a cardinal cannot be negative: -2"):
            Cardinal(Aleph(0), 0, -2)
        with pytest.raises(ValueError):
            Aleph(16)

    def test_rendering(self):
        assert str(Aleph(0)) == "aleph0"


class TestCardOf:
    def test_worked_example(self):
        assert card_of(NCSet({a, b}, {c}, {d})) == Cardinal(1, 2, 1)
        assert str(card_of(NCSet({a, b}, {c}, {d}))) == "1 + 2b + n"

    def test_constants(self):
        assert card_of(NCSet()) == ZERO
        assert card_of(NCSet(set(), {a}, set())) == ONE
        assert card_of(NCSet({a}, set(), set())) == B_UNIT
        assert card_of(NCSet(set(), set(), {a})) == N_UNIT


class TestArithmetic:
    def test_add_componentwise(self):
        assert B_UNIT + N_UNIT == Cardinal(0, 1, 1)
        assert ALEPH0 + B_UNIT == ALEPH0_PLUS_B

    def test_product_identities(self):
        assert B_UNIT * N_UNIT == ZERO
        assert B_UNIT * B_UNIT == B_UNIT
        assert N_UNIT * N_UNIT == N_UNIT

    def test_product_expansion(self):
        assert (ONE + B_UNIT) * (ONE + N_UNIT) == Cardinal(1, 1, 1)
        witness = card_of(NCSet(set(), {a}, set()).union(NCSet({b}, set(), set()))
                          .product(NCSet(set(), {c}, set()).union(NCSet(set(), set(), {d}))))
        assert witness == Cardinal(1, 1, 1)

    @given(cardinals)
    def test_unit_and_zero(self, k):
        assert k * ONE == k
        assert k * ZERO == ZERO

    @given(ncsets(), ncsets())
    def test_sum_tracks_disjoint_union(self, s, t):
        assert card_of(s.disjoint_union(t)) == card_of(s) + card_of(t)

    @given(ncsets(), ncsets())
    def test_product_tracks_product(self, s, t):
        assert card_of(s.product(t)) == card_of(s) * card_of(t)

    def test_pair_laws_exhaustive_small(self):
        values = [0, 1, 2, Aleph(0)]
        cards = [Cardinal(t, bb, n) for t, bb, n in itertools.product(values, repeat=3)]
        for k, m in itertools.product(cards, repeat=2):
            assert k + m == m + k
            assert k * m == m * k

    def test_triple_laws_exhaustive_tiny(self):
        values = [0, 1, Aleph(0)]
        cards = [Cardinal(t, bb, n) for t, bb, n in itertools.product(values, repeat=3)]
        for k, m, l in itertools.product(cards, repeat=3):
            assert (k + m) + l == k + (m + l)
            assert (k * m) * l == k * (m * l)
            assert k * (m + l) == k * m + k * l

    @given(cardinals, cardinals, cardinals)
    def test_ring_style_laws(self, k, m, l):
        assert (k + m) + l == k + (m + l)
        assert k + m == m + k
        assert (k * m) * l == k * (m * l)
        assert k * m == m * k
        assert k * (m + l) == k * m + k * l


class TestDecomposition:
    def test_worked_example(self):
        assert Cardinal(1, 2, 1).decompose() == (1, 2, 1)
        assert ZERO.decompose() == (0, 0, 0)

    @settings(max_examples=200)
    @given(cardinals)
    def test_recomposition(self, k):
        kt, kb, kn = k.decompose()
        rebuilt = (Cardinal(kt, 0, 0)
                   + Cardinal(kb, 0, 0) * B_UNIT
                   + Cardinal(kn, 0, 0) * N_UNIT)
        assert rebuilt == k


class TestComparison:
    def test_antisymmetry_fails_at_first_aleph(self):
        assert ALEPH0.le_tv(ALEPH0_PLUS_B) == T
        assert ALEPH0_PLUS_B.le_tv(ALEPH0) == T
        assert ALEPH0.eq_tv(ALEPH0_PLUS_B) == F
        assert not ALEPH0.eq_tv(ALEPH0_PLUS_B).assertable

    @given(cardinals)
    def test_zero_below_everything(self, k):
        assert ZERO.le_tv(k) == T

    def test_two_n_vs_b_is_undetermined(self):
        two_n = N_UNIT + N_UNIT
        assert two_n.le_tv(B_UNIT) == N
        # cross-check with witness sets
        sets_two_n = NCSet(set(), set(), {a, b})
        set_b = NCSet({c}, set(), set())
        assert preceq_tv(sets_two_n, set_b) == N

    def test_eq_examples(self):
        k = Cardinal(1, 2, 1)
        assert k.eq_tv(k) == B  # kb exceeds kn, so self-equality also fails
        assert ZERO.eq_tv(ZERO) == T
        balanced = Cardinal(0, 1, 2)
        assert balanced.eq_tv(balanced) == T

    @given(cardinals)
    def test_eq_reflexively_assertable(self, k):
        assert k.eq_tv(k).assertable
        assert k.le_tv(k).assertable

    @given(cardinals, cardinals)
    def test_eq_symmetric(self, k, m):
        assert k.eq_tv(m) == m.eq_tv(k)

    @given(cardinals, cardinals, cardinals)
    def test_congruence_laws(self, k, m, l):
        if k.eq_tv(m).assertable:
            assert k.eq_tv(l) == m.eq_tv(l)
            assert k.le_tv(l) == m.le_tv(l)
            assert l.le_tv(k) == l.le_tv(m)

    @given(cardinals, cardinals, cardinals)
    def test_le_transitive_assertability(self, k, m, l):
        if k.le_tv(m).assertable and m.le_tv(l).assertable:
            assert k.le_tv(l).assertable

    @given(finite_cardinals, finite_cardinals)
    def test_finite_antisymmetry(self, k, m):
        if k.le_tv(m).assertable and m.le_tv(k).assertable:
            assert k.eq_tv(m).assertable

    @given(ncsets(), ncsets())
    def test_bridge_to_set_comparisons(self, s, t):
        assert card_of(s).eq_tv(card_of(t)) == cong_tv(s, t)
        assert card_of(s).le_tv(card_of(t)) == preceq_tv(s, t)


SMALL = [Cardinal(*c) for c in itertools.product(
    (0, 1, 2, Aleph(0), Aleph(1)), repeat=3)]


class TestSmallScope:
    """Every pair and every assertable chain of the 125 cardinals with
    coefficients in {0, 1, 2, aleph0, aleph1}."""

    LE = {(k, m): k.le_tv(m) for k in SMALL for m in SMALL}
    EQ = {(k, m): k.eq_tv(m) for k in SMALL for m in SMALL}

    def test_le_reflexively_assertable(self):
        assert all(self.LE[k, k].assertable for k in SMALL)

    def test_le_transitive_over_every_assertable_chain(self):
        above = {k: [m for m in SMALL if self.LE[k, m].assertable] for k in SMALL}
        chains = 0
        for k in SMALL:
            for m in above[k]:
                for l in above[m]:
                    assert self.LE[k, l].assertable, (str(k), str(m), str(l))
                    chains += 1
        assert chains == 229_321

    def test_eq_symmetric(self):
        assert all(self.EQ[k, m] == self.EQ[m, k] for k in SMALL for m in SMALL)

    def test_antisymmetry_fails_on_864_pairs(self):
        both_ways = [(k, m) for k in SMALL for m in SMALL
                     if k != m and self.LE[k, m].assertable and self.LE[m, k].assertable]
        assert len(both_ways) == 864
        assert (ALEPH0, ALEPH0_PLUS_B) in both_ways
        assert all("aleph" in str(k) and "aleph" in str(m) for k, m in both_ways)

    def test_eq_is_both_on_50_pairs(self):
        assert sum(tv == B for tv in self.EQ.values()) == 50


def expected_step_edges(bounds):
    """Axis steps plus the diagonals trading b or n for t, within bounds."""
    bt, bb, bn = bounds
    edges = set()
    for t in range(bt + 1):
        for bb_ in range(bb + 1):
            for n in range(bn + 1):
                src = (t, bb_, n)
                for dst in ((t + 1, bb_, n), (t, bb_ + 1, n), (t, bb_, n + 1),
                            (t + 1, bb_ - 1, n), (t + 1, bb_, n - 1)):
                    if 0 <= dst[1] and 0 <= dst[2] and dst[0] <= bt \
                            and dst[1] <= bb and dst[2] <= bn:
                        edges.add((src, dst))
    return edges


class TestLattice:
    def test_unit_cube(self):
        nodes, edges = finite_lattice((1, 1, 1))
        assert len(nodes) == 8
        got = {(s.decompose(), t.decompose()) for s, t in edges}
        assert got == expected_step_edges((1, 1, 1))
        named = {(str(s), str(t)) for s, t in edges}
        assert {("0", "b"), ("0", "n"), ("0", "1"), ("b", "1")} <= named

    def test_single_node(self):
        nodes, edges = finite_lattice((0, 0, 0))
        assert [str(n) for n in nodes] == ["0"]
        assert edges == []

    @pytest.mark.parametrize("bounds", [(1, 1, 1), (2, 1, 1), (2, 2, 2)])
    def test_reachability_matches_assertable_le(self, bounds):
        nodes, edges = finite_lattice(bounds)
        succ = {n: set() for n in nodes}
        for s, t in edges:
            succ[s].add(t)
        for start in nodes:
            reached = {start}
            frontier = [start]
            while frontier:
                here = frontier.pop()
                for nxt in succ[here]:
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            for node in nodes:
                assert (node in reached) == start.le_tv(node).assertable, \
                    (str(start), str(node))

    def test_nodes_and_edges_come_in_grid_order(self):
        for bounds in itertools.product(range(7), repeat=3):
            nodes, edges = finite_lattice(bounds)
            keys = [k.decompose() for k in nodes]
            assert keys == sorted(keys), bounds
            pairs = [(s.decompose(), t.decompose()) for s, t in edges]
            assert pairs == sorted(pairs), bounds
            assert set(pairs) == expected_step_edges(bounds), bounds

    def test_edges_join_the_node_objects(self):
        nodes, edges = finite_lattice((6, 6, 6))
        ids = set(map(id, nodes))
        assert all(id(s) in ids and id(t) in ids for s, t in edges)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            finite_lattice((7, 0, 0))
        with pytest.raises(GuardExceeded):
            finite_lattice((1, -1, 1))

    def test_dot_output(self):
        dot = lattice_dot((1, 1, 1))
        assert dot.startswith("digraph")
        assert '"b" -> "1";' in dot
        assert '"0" -> "1";' in dot
        assert dot.rstrip().endswith("}")

    def test_dot_single_node(self):
        dot = lattice_dot((0, 0, 0))
        assert '"0";' in dot
        assert "->" not in dot

    def test_dot_lists_nodes_then_edges_rendering_each_label_once(self, monkeypatch):
        render = Cardinal.__str__
        rendered = []
        monkeypatch.setattr(Cardinal, "__str__", lambda k: rendered.append(k) or render(k))
        for bounds in [*itertools.product(range(3), repeat=3), (6, 6, 6)]:
            nodes, edges = finite_lattice(bounds)
            lines = ["digraph cardinal_order {"]
            lines += [f'  "{render(k)}";' for k in nodes]
            lines += [f'  "{render(s)}" -> "{render(t)}";' for s, t in edges]
            lines.append("}")
            rendered.clear()
            assert lattice_dot(bounds) == "\n".join(lines) + "\n", bounds
            assert len(rendered) == len(nodes), bounds


class TestRendering:
    def test_literals(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(B_UNIT) == "b"
        assert str(N_UNIT) == "n"
        assert str(Cardinal(3, 2, 1)) == "3 + 2b + n"
        assert str(ALEPH0_PLUS_B) == "aleph0 + b"
        assert str(Cardinal(0, Aleph(1), 0)) == "aleph1 b"
