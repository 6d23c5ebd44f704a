"""Non-classical sets: parts, membership, comparison, algebra, images."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bzfc.errors import DisjointnessViolation, DomainError, ParseError
from bzfc.selfcheck import two_atom_family
from bzfc.sets import (Atom, ClassicalFn, Nat, NCSet, Pair, Tag,
                       _LiteralParser, parse_ncset)
from bzfc.truth import B, F, N, T, conj, disj, neg

A_ = Atom("a")
B_ = Atom("b")
C_ = Atom("c")
D_ = Atom("d")

POOL = (A_, B_, C_, D_)


@st.composite
def ncsets(draw, pool=POOL):
    parts = {"b": set(), "t": set(), "n": set()}
    for element in pool:
        status = draw(st.sampled_from("-btn"))
        if status != "-":
            parts[status].add(element)
    return NCSet(parts["b"], parts["t"], parts["n"])


FAMILY = two_atom_family()


class TestConstruction:
    def test_parts_and_realm(self):
        s = NCSet({A_, B_}, {C_}, {D_})
        assert s.realm == {A_, B_, C_, D_}
        assert s.bang_ext == {A_, B_, C_}
        assert s.query_ext == {C_, D_}

    def test_empty(self):
        s = NCSet()
        assert s.realm == frozenset()
        for x in POOL:
            assert s.member_tv(x) == F

    def test_disjointness_enforced(self):
        with pytest.raises(DisjointnessViolation) as exc:
            NCSet({A_}, {A_}, set())
        assert exc.value.element == A_

    def test_from_extensions(self):
        nums = [Nat(i) for i in range(1, 6)]
        s = NCSet.from_extensions(nums[:3], nums[2:])  # {1,2,3} and {3,4,5}
        assert s.bpart == {Nat(1), Nat(2)}
        assert s.tpart == {Nat(3)}
        assert s.npart == {Nat(4), Nat(5)}

    def test_from_extensions_degenerate(self):
        assert NCSet.from_extensions({A_}, {A_}) == NCSet(set(), {A_}, set())
        assert NCSet.from_extensions(set(), {A_}) == NCSet(set(), set(), {A_})

    @given(ncsets())
    def test_round_trips(self, s):
        assert NCSet(s.bpart, s.tpart, s.npart) == s
        assert NCSet.from_extensions(s.bang_ext, s.query_ext) == s

    @given(ncsets())
    def test_parts_partition_realm(self, s):
        assert s.bang_ext == s.bpart | s.tpart
        assert s.query_ext == s.tpart | s.npart
        assert s.realm == s.bang_ext | s.query_ext
        assert len(s.realm) == len(s.bpart) + len(s.tpart) + len(s.npart)

    @given(ncsets())
    def test_three_part_equals_two_part_of_unions(self, s):
        assert NCSet.from_extensions(s.bpart | s.tpart, s.tpart | s.npart) == s


class TestMembership:
    def test_worked_example(self):
        s = NCSet({A_, B_}, {C_}, {D_})
        assert s.member_tv(A_) == B
        assert s.member_tv(B_) == B
        assert s.member_tv(C_) == T
        assert s.member_tv(D_) == N
        assert s.member_tv(Atom("z")) == F


class TestComparisons:
    def test_subset_examples(self):
        pure_t = NCSet(set(), {A_}, set())
        pure_b = NCSet({A_}, set(), set())
        assert pure_t.subset_tv(pure_b) == F
        for s in FAMILY:
            assert NCSet().subset_tv(s) == T
        inconsistent = NCSet({A_}, {C_}, set())
        assert inconsistent.subset_tv(inconsistent) == B

    def test_eq_examples(self):
        s = NCSet({A_}, {B_}, {C_})
        assert s.eq_tv(s) == B
        classical = NCSet(set(), {A_, B_}, set())
        assert classical.eq_tv(NCSet(set(), {A_, B_}, set())) == T
        assert NCSet({A_}, set(), set()).eq_tv(NCSet(set(), set(), {A_})) == N

    @given(ncsets(), ncsets())
    def test_eq_is_two_way_subset_on_assertability(self, a, b):
        both_ways = a.subset_tv(b).assertable and b.subset_tv(a).assertable
        assert a.eq_tv(b).assertable == both_ways

    @given(ncsets(), ncsets())
    def test_eq_assertable_iff_memberwise_equal(self, a, b):
        memberwise = all(a.member_tv(x) == b.member_tv(x) for x in a.realm | b.realm)
        assert a.eq_tv(b).assertable == memberwise

    @given(ncsets(), ncsets())
    def test_eq_symmetric(self, a, b):
        assert a.eq_tv(b) == b.eq_tv(a)


class TestAlgebra:
    def test_union_merges_values(self):
        assert NCSet({A_}, set(), set()).union(NCSet(set(), set(), {A_})) \
            == NCSet(set(), {A_}, set())

    def test_intersection_idempotent_on_classical(self):
        s = NCSet(set(), {A_, B_}, set())
        assert s.intersection(s) == s

    def test_difference_example(self):
        # membership of a: conj(t, neg(n)) = conj(t, n) = n
        got = NCSet(set(), {A_}, set()).difference(NCSet(set(), set(), {A_}))
        assert got == NCSet(set(), set(), {A_})

    def test_pointwise_laws_exhaustive(self):
        probes = (A_, B_, Atom("z"))
        for a, b in itertools.product(FAMILY, repeat=2):
            for x in probes:
                ta, tb = a.member_tv(x), b.member_tv(x)
                assert a.union(b).member_tv(x) == disj(ta, tb)
                assert a.intersection(b).member_tv(x) == conj(ta, tb)
                assert a.difference(b).member_tv(x) == conj(ta, neg(tb))

    @given(ncsets(), ncsets())
    def test_pointwise_laws_random(self, a, b):
        for x in POOL + (Atom("z"),):
            ta, tb = a.member_tv(x), b.member_tv(x)
            assert a.union(b).member_tv(x) == disj(ta, tb)
            assert a.intersection(b).member_tv(x) == conj(ta, tb)
            assert a.difference(b).member_tv(x) == conj(ta, neg(tb))


class TestProductAndSum:
    def test_b_times_n_is_empty(self):
        pure_b = NCSet({A_}, set(), set())
        pure_n = NCSet(set(), set(), {B_})
        assert pure_b.product(pure_n) == NCSet()

    def test_product_with_classical_singleton_copies_structure(self):
        s = NCSet({A_}, {B_}, {C_})
        unit = NCSet(set(), {D_}, set())
        got = s.product(unit)
        assert got.bpart == {Pair(A_, D_)}
        assert got.tpart == {Pair(B_, D_)}
        assert got.npart == {Pair(C_, D_)}

    def test_b_part_product(self):
        s = NCSet({A_}, set(), set())
        t = NCSet({B_}, set(), set())
        assert s.product(t).bpart == {Pair(A_, B_)}

    @given(ncsets(), ncsets())
    def test_product_membership_is_conjunction(self, a, b):
        got = a.product(b)
        for x in a.realm | {Atom("z")}:
            for y in b.realm | {Atom("z")}:
                assert got.member_tv(Pair(x, y)) == conj(a.member_tv(x), b.member_tv(y))

    @given(ncsets(), ncsets())
    def test_product_extensions(self, a, b):
        got = a.product(b)
        assert got.bang_ext == {Pair(x, y) for x in a.bang_ext for y in b.bang_ext}
        assert got.query_ext == {Pair(x, y) for x in a.query_ext for y in b.query_ext}

    def test_disjoint_union_empty(self):
        assert NCSet().disjoint_union(NCSet()) == NCSet()

    def test_disjoint_union_keeps_copies_apart(self):
        s = NCSet({A_}, set(), set())
        assert s.disjoint_union(s).bpart == {Tag(A_, 0), Tag(A_, 1)}

    @given(ncsets(), ncsets())
    def test_disjoint_union_part_sizes_add(self, a, b):
        got = a.disjoint_union(b)
        assert len(got.bpart) == len(a.bpart) + len(b.bpart)
        assert len(got.tpart) == len(a.tpart) + len(b.tpart)
        assert len(got.npart) == len(a.npart) + len(b.npart)

    @given(ncsets(), ncsets())
    def test_disjoint_union_membership(self, a, b):
        got = a.disjoint_union(b)
        for x in a.realm:
            assert got.member_tv(Tag(x, 0)) == a.member_tv(x)
        for y in b.realm:
            assert got.member_tv(Tag(y, 1)) == b.member_tv(y)


class TestImages:
    def test_non_injective_worked_example(self):
        nums = {i: Nat(i) for i in range(1, 6)}
        a = NCSet.from_extensions({nums[1], nums[2], nums[3]},
                                  {nums[3], nums[4], nums[5]})
        f = ClassicalFn({nums[1]: A_, nums[2]: B_, nums[3]: C_,
                         nums[4]: D_, nums[5]: B_})
        assert len(set(f.graph.values())) != len(f.graph)
        assert f.image(a) == NCSet.from_extensions({A_, B_, C_}, {B_, C_, D_})

    def test_injective_worked_example(self):
        nums = {i: Nat(i) for i in range(1, 5)}
        a = NCSet({nums[1], nums[2]}, {nums[3]}, {nums[4]})
        f = ClassicalFn({nums[1]: A_, nums[2]: B_, nums[3]: C_, nums[4]: D_})
        assert len(set(f.graph.values())) == len(f.graph)
        assert f.image(a) == NCSet({A_, B_}, {C_}, {D_})

    @given(ncsets())
    def test_identity_image(self, s):
        identity = ClassicalFn({x: x for x in s.realm})
        assert identity.image(s) == s

    def test_uncovered_realm_is_an_error(self):
        s = NCSet({A_}, {B_}, set())
        with pytest.raises(DomainError) as exc:
            ClassicalFn({A_: C_}).image(s)
        assert exc.value.missing == (B_,)
        # Every missing element is named, sorted by ``str``.
        s = NCSet({Atom("c"), Nat(10)}, {Atom("a")}, {Nat(2), Atom("b")})
        with pytest.raises(DomainError) as exc:
            ClassicalFn({Atom("b"): Nat(0)}).image(s)
        assert exc.value.missing == (Nat(10), Nat(2), Atom("a"), Atom("c"))

    def test_graph_keys_built_apart_from_the_realm(self):
        # Equal but separately built keys cover the realm as its own elements do.
        s = NCSet({Atom("a")}, {Pair(Atom("b"), Nat(1))}, {Tag(Nat(2), 0), Atom("d")})
        keys = sorted(s.realm, key=str)
        rebuilt = _LiteralParser(" ".join(map(str, keys))).elements()
        f = ClassicalFn({y: Nat(i) for i, y in enumerate(rebuilt)})
        assert not {id(k) for k in f.graph} & {id(x) for x in s.realm}
        assert f.image(s) == ClassicalFn({x: f.graph[x] for x in s.realm}).image(s)
        assert f.image(s) == NCSet({Nat(2)}, {Nat(0)}, {Nat(1), Nat(3)})

    @given(ncsets())
    def test_injective_image_preserves_parts(self, s):
        targets = {x: Atom(f"img_{x}") for x in s.realm}
        f = ClassicalFn(targets)
        assert len(set(f.graph.values())) == len(f.graph)
        got = f.image(s)
        assert got.bpart == {targets[x] for x in s.bpart}
        assert got.tpart == {targets[x] for x in s.tpart}
        assert got.npart == {targets[x] for x in s.npart}

    @given(ncsets())
    def test_image_extensions(self, s):
        f = ClassicalFn({x: Atom("lump") for x in s.realm})
        got = f.image(s)
        assert got.bang_ext == ({Atom("lump")} if s.bang_ext else frozenset())
        assert got.query_ext == ({Atom("lump")} if s.query_ext else frozenset())


THREE = (A_, B_, C_)


def three_atom_family() -> list[tuple[tuple[frozenset, ...], NCSet]]:
    """The 64 sets whose realm lies in {a, b, c}, each with its parts."""
    family = []
    for places in itertools.product("-btn", repeat=3):
        parts = tuple(frozenset(x for x, place in zip(THREE, places) if place == part)
                      for part in "btn")
        family.append((parts, NCSet(*parts)))
    return family


class TestAgainstPointwiseDefinitions:
    """Every set over three atoms against the definitions element by
    element: an image takes the join of its preimages' values, a product
    the meet of its coordinates' values, and a tagged sum each copy's."""

    FAMILY3 = three_atom_family()
    SETS3 = [s for _, s in FAMILY3]

    def test_parts_and_extensions_give_the_same_set(self):
        for (bp, tp, np), s in self.FAMILY3:
            twin = NCSet.from_extensions(bp | tp, tp | np)
            assert twin == s and hash(twin) == hash(s)
            for built in (s, twin):
                assert (built.bpart, built.tpart, built.npart) == (bp, tp, np)

    def test_image_is_the_join_over_preimages(self):
        codomain = (Atom("p"), Atom("q"))
        for targets in itertools.product(codomain, repeat=len(THREE)):
            f = ClassicalFn(zip(THREE, targets))
            for a in self.SETS3:
                joined = {}
                for x in a.realm:
                    y = f.graph[x]
                    joined[y] = disj(joined.get(y, F), a.member_tv(x))
                got = f.image(a)
                assert got.realm <= set(codomain)
                for y in codomain:
                    assert got.member_tv(y) == joined.get(y, F)

    def test_product_is_the_meet_per_pair(self):
        pairs = {Pair(x, y) for x in THREE for y in THREE}
        for a, b in itertools.product(self.SETS3, repeat=2):
            got = a.product(b)
            assert got.realm <= pairs
            for x, y in itertools.product(THREE, repeat=2):
                assert got.member_tv(Pair(x, y)) == conj(a.member_tv(x), b.member_tv(y))

    def test_disjoint_union_keeps_each_tag(self):
        tags = {Tag(x, i) for x in THREE for i in (0, 1)}
        for a, b in itertools.product(self.SETS3, repeat=2):
            got = a.disjoint_union(b)
            assert got.realm <= tags
            for x in THREE:
                assert got.member_tv(Tag(x, 0)) == a.member_tv(x)
                assert got.member_tv(Tag(x, 1)) == b.member_tv(x)


def test_only_the_edges_take_parts(monkeypatch):
    # Operations build their results from extensions; only the parts
    # constructor, which checks disjointness, runs ``NCSet.__init__``.
    a, b = NCSet({A_}, {B_}, {C_}), NCSet({B_}, {C_}, {D_})
    f = ClassicalFn({x: A_ for x in POOL})
    calls, init = [], NCSet.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NCSet, "__init__", counting)
    results = [f.image(a), a.union(b), a.intersection(b), a.difference(b),
               a.product(b), a.disjoint_union(b)]
    assert calls == [] and all(isinstance(r, NCSet) for r in results)
    NCSet({A_})
    assert len(calls) == 1


class TestLiterals:
    def test_three_part(self):
        assert parse_ncset("<{a,b}|{c}|{d}>") == NCSet({A_, B_}, {C_}, {D_})

    def test_two_part(self):
        assert parse_ncset("<{a,b,c}|{c,d}>") == NCSet({A_, B_}, {C_}, {D_})

    def test_empty_braces(self):
        assert parse_ncset("<{}|{}|{}>") == NCSet()

    def test_element_kinds(self):
        assert _LiteralParser("a 42 (a,7) a@0 (a,b)@1@0").elements() == [
            A_, Nat(42), Pair(A_, Nat(7)), Tag(A_, 0), Tag(Tag(Pair(A_, B_), 1), 0)]

    def test_whitespace_tolerated(self):
        assert parse_ncset(" < {a , b} | {c} | {} > ") == NCSet({A_, B_}, {C_}, set())

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ncset("<{a}|{b}")
        assert exc.value.position == 8
        with pytest.raises(ParseError):
            parse_ncset("<{a}|{b}|{c}>junk")

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessViolation):
            parse_ncset("<{a}|{a}|{}>")

    @given(ncsets())
    def test_render_round_trips(self, s):
        assert parse_ncset(str(s)) == s

    def test_render_is_sorted_three_part(self):
        assert str(NCSet({B_, A_}, {C_}, set())) == "<{a,b}|{c}|{}>"

    def test_tagged_and_paired_round_trip(self):
        s = NCSet({Tag(A_, 0)}, {Pair(B_, Nat(3))}, {Tag(Pair(A_, B_), 1)})
        assert parse_ncset(str(s)) == s
