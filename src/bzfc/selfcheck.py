"""Seeded self-check suites behind the CLI ``check`` command.

Every instance is derived from the given seed, so a reported failure
reproduces exactly.  Failing instances are rendered in the set-literal
syntax.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import cardinal, numerosity, oracle, parareal
from .sets import Atom, NCSet

_ALPHABET = tuple(Atom(ch) for ch in "abcdef")


class SuiteResult:
    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, passed: bool, detail: str) -> None:
        self.checks += 1
        if not passed:
            self.failures.append(detail)


def random_ncset(rng: random.Random, max_realm: int, pool: tuple = _ALPHABET) -> NCSet:
    """A set of at most ``max_realm`` elements of ``pool``, each in a random part."""
    size = rng.randint(0, min(max_realm, len(pool)))
    chosen = rng.sample(pool, size)
    parts: tuple[list, list, list] = ([], [], [])
    for element in chosen:
        parts[rng.randrange(3)].append(element)
    return NCSet(*parts)


def two_atom_family() -> list[NCSet]:
    """The 16 sets whose realm lies in {a, b}: each atom absent or in one part."""
    family = []
    for places in itertools.product((None, 0, 1, 2), repeat=2):  # absent, b, t, n
        parts: tuple[list, list, list] = ([], [], [])
        for atom, place in zip((Atom("a"), Atom("b")), places):
            if place is not None:
                parts[place].append(atom)
        family.append(NCSet(*parts))
    return family


def _check_oracle(result: SuiteResult, a: NCSet, b: NCSet) -> None:
    """Closed forms vs. counting search on one pair."""
    result.count(numerosity.cong_tv(a, b) == oracle.cong_brute(a, b),
                 f"cong mismatch: {a} vs {b}")
    result.count(numerosity.preceq_tv(a, b) == oracle.preceq_brute(a, b),
                 f"preceq mismatch: {a} vs {b}")


def suite_oracle_exhaustive() -> SuiteResult:
    """Closed forms vs. counting search on every pair over two atoms."""
    result = SuiteResult("oracle-exhaustive")
    family = two_atom_family()
    for a, b in itertools.product(family, repeat=2):
        _check_oracle(result, a, b)
    return result


def suite_oracle_random(rng: random.Random, cases: int) -> SuiteResult:
    """Closed forms vs. counting search on seeded pairs, each realm <= 4."""
    result = SuiteResult("oracle-random")
    for _ in range(cases):
        a = random_ncset(rng, oracle.MAX_REALM_SIZE)
        b = random_ncset(rng, oracle.MAX_REALM_SIZE)
        _check_oracle(result, a, b)
    return result


def suite_equivalence_laws(rng: random.Random, cases: int) -> SuiteResult:
    """Reflexivity, symmetry, congruence, transitivity, and the finite
    two-way-implies-same-size law."""
    result = SuiteResult("equivalence-laws")
    for _ in range(cases):
        a = random_ncset(rng, 4)
        b = random_ncset(rng, 4)
        c = random_ncset(rng, 4)
        triple = f"{a} / {b} / {c}"
        result.count(numerosity.cong_tv(a, a).assertable, f"reflexivity: {a}")
        result.count(numerosity.cong_tv(a, b) == numerosity.cong_tv(b, a),
                     f"symmetry: {a} vs {b}")
        if numerosity.cong_tv(a, b).assertable:
            result.count(numerosity.cong_tv(a, c) == numerosity.cong_tv(b, c),
                         f"cong congruence: {triple}")
            result.count(numerosity.preceq_tv(a, c) == numerosity.preceq_tv(b, c),
                         f"preceq left congruence: {triple}")
            result.count(numerosity.preceq_tv(c, a) == numerosity.preceq_tv(c, b),
                         f"preceq right congruence: {triple}")
        if numerosity.preceq_tv(a, b).assertable and numerosity.preceq_tv(b, c).assertable:
            result.count(numerosity.preceq_tv(a, c).assertable, f"transitivity: {triple}")
        if numerosity.preceq_tv(a, b).assertable and numerosity.preceq_tv(b, a).assertable:
            result.count(numerosity.cong_tv(a, b).assertable,
                         f"two-way preceq without cong: {a} vs {b}")
    return result


def suite_cardinal_bridge(rng: random.Random, cases: int) -> SuiteResult:
    """Cardinal comparison agrees with the counting oracle's, value for value."""
    result = SuiteResult("cardinal-bridge")
    for _ in range(cases):
        a = random_ncset(rng, 4)
        b = random_ncset(rng, 4)
        ka, kb = cardinal.card_of(a), cardinal.card_of(b)
        result.count(ka.eq_tv(kb) == oracle.cong_brute(a, b),
                     f"eq/cong bridge: {a} vs {b}")
        result.count(ka.le_tv(kb) == oracle.preceq_brute(a, b),
                     f"le/preceq bridge: {a} vs {b}")
    return result


def suite_cardinal_arith(rng: random.Random, cases: int) -> SuiteResult:
    """Sum and product of cardinals track disjoint union and product of
    sets; ring-style laws hold on random triples."""
    result = SuiteResult("cardinal-arithmetic")
    for _ in range(cases):
        a = random_ncset(rng, 3)
        b = random_ncset(rng, 3)
        ka, kb = cardinal.card_of(a), cardinal.card_of(b)
        result.count(cardinal.card_of(a.disjoint_union(b)) == ka + kb,
                     f"sum vs disjoint union: {a} vs {b}")
        result.count(cardinal.card_of(a.product(b)) == ka * kb,
                     f"product vs product: {a} vs {b}")
        x, y, z = (_random_cardinal(rng) for _ in range(3))
        _semiring_laws(result, x, y, z)
        result.count(x * cardinal.ONE == x and x * cardinal.ZERO == cardinal.ZERO,
                     f"unit laws: {x}")
    return result


def _semiring_laws(result: SuiteResult, x, y, z) -> None:
    """Associativity and commutativity of + and *, and distributivity."""
    triple = f"{x} / {y} / {z}"
    result.count((x + y) + z == x + (y + z), f"sum associativity: {triple}")
    result.count(x + y == y + x, f"sum commutativity: {triple}")
    result.count((x * y) * z == x * (y * z), f"product associativity: {triple}")
    result.count(x * y == y * x, f"product commutativity: {triple}")
    result.count(x * (y + z) == x * y + x * z, f"distributivity: {triple}")


def _random_cardinal(rng: random.Random) -> cardinal.Cardinal:
    def component() -> cardinal.ClassicalCard:
        if rng.random() < 0.15:
            return cardinal.Aleph(rng.randint(0, 2))
        return rng.randint(0, 3)

    return cardinal.Cardinal(component(), component(), component())


def suite_parareal(rng: random.Random, cases: int) -> SuiteResult:
    """Exact ring laws, x - x = 0, and y * y^-1 = 1 under the guards."""
    result = SuiteResult("para-real")
    for _ in range(cases):
        x, y, z = (_random_parareal(rng) for _ in range(3))
        result.count(x - x == parareal.ZERO, f"self-difference: {x}")
        _semiring_laws(result, x, y, z)
        inv = _random_invertible(rng)
        result.count(inv * inv.inverse() == parareal.ONE, f"inverse: {inv}")
    return result


def _random_parareal(rng: random.Random) -> parareal.ParaReal:
    def component() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))

    return parareal.ParaReal(component(), component(), component())


def _random_invertible(rng: random.Random) -> parareal.ParaReal:
    while True:
        x = _random_parareal(rng)
        if x.xt != 0 and x.xt + x.xb != 0 and x.xt + x.xn != 0:
            return x


def run_all(seed: int, cases: int) -> list[SuiteResult]:
    rng = random.Random(seed)
    return [
        suite_oracle_exhaustive(),
        suite_oracle_random(rng, cases),
        suite_equivalence_laws(rng, cases),
        suite_cardinal_bridge(rng, cases),
        suite_cardinal_arith(rng, cases),
        suite_parareal(rng, cases),
    ]
