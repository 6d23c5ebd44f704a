"""Acceptance gate: the twelve exit criteria, one test (and one printed
pass line) per criterion, each at its stated tolerance.

Run with:  pytest tests/test_acceptance.py -v
"""

import itertools
import random
import subprocess
import sys
import time

from helpers import random_ncset
from test_sets import two_atom_family
from bzfc import truth
from bzfc.cardinal import Aleph, B_UNIT, Cardinal, N_UNIT, ONE, ZERO, card_of, finite_lattice
from bzfc.checker import eval_prop, valid_prop
from bzfc.formula import parse
from bzfc.numerosity import cong_tv, preceq_tv
from bzfc.oracle import cong_brute, preceq_brute
from bzfc.parareal import ParaReal
from bzfc.sets import Atom, ClassicalFn, Nat, NCSet
from bzfc.truth import ALL_VALUES, B, F, N, T, TruthValue

a, b, c, d = (Atom(ch) for ch in "abcd")


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def best_time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- 1 ----------------------------------------------------------------------

NEG_TABLE = {"t": "f", "b": "b", "n": "n", "f": "t"}
BINARY_TABLES = {
    truth.conj: {"t": "tbnf", "b": "bbff", "n": "nfnf", "f": "ffff"},
    truth.disj: {"t": "tttt", "b": "tbtb", "n": "ttnn", "f": "tbnf"},
    truth.imp: {"t": "tbnf", "b": "tbnf", "n": "tttt", "f": "tttt"},
    truth.iff: {"t": "tbnf", "b": "bbnf", "n": "nntt", "f": "fftt"},
}
DEFINED_TABLE = {"t": "fttt", "b": "ftff", "n": "tftf", "f": "tfft"}


def test_criterion_1_truth_table_exactness():
    tv = TruthValue.from_letter

    def check_all() -> int:
        mismatches = 0
        for x, out in NEG_TABLE.items():
            mismatches += truth.neg(tv(x)) != tv(out)
        for op, table in BINARY_TABLES.items():
            for x, row in table.items():
                for y, out in zip("tbnf", row):
                    mismatches += op(tv(x), tv(y)) != tv(out)
        for x, row in DEFINED_TABLE.items():
            for op, out in zip((truth.cneg, truth.bang, truth.query, truth.circ), row):
                mismatches += op(tv(x)) != tv(out)
        return mismatches

    assert check_all() == 0
    elapsed = best_time(check_all)
    assert elapsed < 0.001, f"table reconstruction took {elapsed * 1e3:.3f} ms"
    report(1, "all 84 connective-table cells reproduced exactly, "
              f"{elapsed * 1e6:.0f} us")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_propositional_validities():
    amp_conj = parse("p & q <-> p /\\ q")
    neg_amp = parse("~(p & q) <-> (p -> ~q)")
    contraposition = parse("(p -> q) -> (~q -> ~p)")

    def check_all():
        ok1, _ = valid_prop(amp_conj)
        ok2, _ = valid_prop(neg_amp)
        ok3, witness = valid_prop(contraposition)
        return ok1, ok2, ok3, witness

    ok1, ok2, ok3, witness = check_all()
    assert ok1 and ok2
    assert not ok3 and witness is not None
    assert not eval_prop(contraposition, witness).assertable
    elapsed = best_time(check_all)
    assert elapsed < 0.001, f"validity checks took {elapsed * 1e3:.3f} ms"
    witness_text = " ".join(f"{k}={v}" for k, v in sorted(witness.items()))
    report(2, f"two validities hold, contraposition fails at {{{witness_text}}}, "
              f"{elapsed * 1e6:.0f} us")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_worked_image_examples():
    nums = {i: Nat(i) for i in range(1, 6)}
    subject = NCSet.from_extensions({nums[1], nums[2], nums[3]},
                                    {nums[3], nums[4], nums[5]})
    collapsing = ClassicalFn({nums[1]: a, nums[2]: b, nums[3]: c,
                              nums[4]: d, nums[5]: b})
    assert collapsing.image(subject) == NCSet.from_extensions({a, b, c}, {b, c, d})

    subject2 = NCSet({nums[1], nums[2]}, {nums[3]}, {nums[4]})
    injection = ClassicalFn({nums[1]: a, nums[2]: b, nums[3]: c, nums[4]: d})
    assert injection.is_injection()
    assert injection.image(subject2) == NCSet({a, b}, {c}, {d})
    report(3, "both worked image examples reproduce exactly")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_self_equinumerosity_example():
    subject = NCSet({a, b}, {c}, {d})
    assert cong_tv(subject, subject) == B
    assert cong_brute(subject, subject) == B
    report(4, "<{a,b}|{c}|{d}> is and is not its own size (closed form "
              "and brute force)")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    family = two_atom_family()
    pairs_checked = 0
    for s, t in itertools.product(family, repeat=2):
        assert cong_tv(s, t) == cong_brute(s, t), f"{s} vs {t}"
        assert preceq_tv(s, t) == preceq_brute(s, t), f"{s} vs {t}"
        pairs_checked += 1
    rng = random.Random(42)
    for _ in range(500):
        s = random_ncset(rng, 4)
        t = random_ncset(rng, 4)
        assert cong_tv(s, t) == cong_brute(s, t), f"{s} vs {t}"
        assert preceq_tv(s, t) == preceq_brute(s, t), f"{s} vs {t}"
        pairs_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"oracle agreement took {elapsed:.1f} s"
    report(5, f"closed forms match brute force on {pairs_checked} pairs "
              f"in {elapsed:.1f} s")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_equivalence_and_schroeder_bernstein():
    rng = random.Random(43)
    triples = 0
    for _ in range(1000):
        s = random_ncset(rng, 4)
        t = random_ncset(rng, 4)
        u = random_ncset(rng, 4)
        assert cong_tv(s, s).assertable
        assert cong_tv(s, t) == cong_tv(t, s)
        if cong_tv(s, t).assertable:
            assert cong_tv(s, u) == cong_tv(t, u)
            assert preceq_tv(s, u) == preceq_tv(t, u)
            assert preceq_tv(u, s) == preceq_tv(u, t)
        if preceq_tv(s, t).assertable and preceq_tv(t, u).assertable:
            assert preceq_tv(s, u).assertable
        if preceq_tv(s, t).assertable and preceq_tv(t, s).assertable:
            assert cong_tv(s, t).assertable
        triples += 1
    report(6, f"equivalence and finite two-way-fit laws hold on {triples} "
              "seeded triples")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_cardinal_bridge():
    rng = random.Random(44)
    pairs = 0
    for _ in range(1000):
        s = random_ncset(rng, 4)
        t = random_ncset(rng, 4)
        assert card_of(s).eq_tv(card_of(t)) == cong_tv(s, t), f"{s} vs {t}"
        assert card_of(s).le_tv(card_of(t)) == preceq_tv(s, t), f"{s} vs {t}"
        pairs += 1
    report(7, f"cardinal =/<= equal set-level comparisons on {pairs} pairs")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_product_and_sum_formulas():
    assert B_UNIT * B_UNIT == B_UNIT
    assert N_UNIT * N_UNIT == N_UNIT
    assert B_UNIT * N_UNIT == ZERO
    rng = random.Random(45)
    for _ in range(200):
        k = Cardinal(*(Aleph(rng.randint(0, 2)) if rng.random() < 0.2
                       else rng.randint(0, 4) for _ in range(3)))
        assert k * ONE == k
        assert k * ZERO == ZERO
    pairs = 0
    for _ in range(500):
        s = random_ncset(rng, 4)
        t = random_ncset(rng, 4)
        assert card_of(s.product(t)) == card_of(s) * card_of(t), f"{s} x {t}"
        assert card_of(s.disjoint_union(t)) == card_of(s) + card_of(t), f"{s} + {t}"
        pairs += 1
    report(8, f"unit identities hold and arithmetic tracks sets on {pairs} pairs")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_partial_order_failure():
    aleph0 = Cardinal(Aleph(0))
    bumped = aleph0 + B_UNIT
    assert aleph0.le_tv(bumped) == T
    assert bumped.le_tv(aleph0) == T
    assert not aleph0.eq_tv(bumped).assertable
    assert aleph0.eq_tv(bumped) == F
    report(9, "aleph0 and aleph0+b sit below each other yet are unequal")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_lattice_fidelity():
    bounds = (1, 1, 1)
    nodes, edges = finite_lattice(bounds)

    expected = set()
    for t, bb, n in itertools.product(range(2), repeat=3):
        for dst in ((t + 1, bb, n), (t, bb + 1, n), (t, bb, n + 1),
                    (t + 1, bb - 1, n), (t + 1, bb, n - 1)):
            if all(0 <= coord <= 1 for coord in dst):
                expected.add(((t, bb, n), dst))
    assert {(s.decompose(), t.decompose()) for s, t in edges} == expected

    succ = {node: set() for node in nodes}
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
    report(10, f"unit-cube diagram has exactly the {len(edges)} step edges; "
               "reachability = assertable order")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_para_real_identities():
    rng = random.Random(46)

    def fraction():
        from fractions import Fraction
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    checked = 0
    while checked < 1000:
        x = ParaReal(fraction(), fraction(), fraction())
        y = ParaReal(fraction(), fraction(), fraction())
        z = ParaReal(fraction(), fraction(), fraction())
        assert x - x == ParaReal(0, 0, 0)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x.xt != 0 and x.xt + x.xb != 0 and x.xt + x.xn != 0:
            assert x * x.inverse() == ParaReal(1, 0, 0)
            checked += 1
    report(11, f"x-x=0, x*x^-1=1 and ring laws exact on {checked} guarded triples")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_end_to_end_check():
    proc = subprocess.run(
        [sys.executable, "-m", "bzfc", "check", "--seed", "7", "--cases", "500"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "passed" in proc.stdout
    report(12, "check --seed 7 --cases 500 exits 0")
