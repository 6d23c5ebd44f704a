"""oracle-pairs: the closed-form size comparisons and the counting oracle.

One op runs a pair (A, B) through ``cong_tv``, ``preceq_tv``,
``cong_brute`` and ``preceq_brute``.  The inputs are the 256 pairs of
the two-atom family and 100 pairs like those ``bzfc check`` draws:
realms of 0-4 atoms from a six-atom alphabet, each atom in one of the
three parts.

The oracle's cost depends on the realm sizes and the part sizes, so
these are fixed by a design that does not depend on the seed: four
pairs for each of the 25 pairs of realm sizes, with part patterns drawn
once from ``DESIGN_SEED``.  The seed draws which atoms fill each set.
Without this, one seed's pairs could cost a third more than another's.
"""

from __future__ import annotations

import itertools
import random

from harness import Op

DESIGN_SEED = 20260401
ALPHABET = "abcdef"
PAIRS_PER_SIZE = 4
STATUSES = ("absent", "b", "t", "n")
# Visits per round by the realm sizes (|A|, |B|).  The pairs that take
# a few milliseconds at most get CHEAP_VISITS, for steadier times; they
# include those around op_p90_ms ((2, 3), (2, 4) and (3, 1), 1-2.5 ms).
VISITS = {(3, 2): 3, (3, 3): 1, (3, 4): 1, (4, 1): 1, (4, 2): 1, (4, 3): 1, (4, 4): 1}
CHEAP_VISITS = 8


def design() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Part index (0 both, 1 true, 2 neither) per atom slot of A and B."""
    rng = random.Random(DESIGN_SEED)
    slots = []
    for na, nb in itertools.product(range(5), repeat=2):
        for _ in range(PAIRS_PER_SIZE):
            slots.append((tuple(rng.randrange(3) for _ in range(na)),
                          tuple(rng.randrange(3) for _ in range(nb))))
    return slots


def inputs(seed: int) -> list[tuple[str, list, list]]:
    """(key, parts of A, parts of B); parts are three lists of atom names."""
    rng = random.Random(seed)
    out = []
    family = []
    for s1, s2 in itertools.product(STATUSES, repeat=2):
        parts: list[list[str]] = [[], [], []]
        for atom, status in (("a", s1), ("b", s2)):
            if status != "absent":
                parts["btn".index(status)].append(atom)
        family.append(parts)
    for i, (pa, pb) in enumerate(itertools.product(family, repeat=2)):
        out.append((f"two-atom/{i}", pa, pb))
    for i, (sa, sb) in enumerate(design()):
        out.append((f"random/{i}", _fill(rng, sa), _fill(rng, sb)))
    return out


def _fill(rng: random.Random, slots: tuple[int, ...]) -> list[list[str]]:
    parts: list[list[str]] = [[], [], []]
    for atom, part in zip(rng.sample(ALPHABET, len(slots)), slots):
        parts[part].append(atom)
    return parts


def build(seed: int, workdir: str) -> list[Op]:
    from bzfc import numerosity, oracle, sets

    def make(parts):
        return sets.NCSet(*([sets.Atom(x) for x in part] for part in parts))

    ops = []
    for key, pa, pb in inputs(seed):
        a, b = make(pa), make(pb)

        def run(a=a, b=b):
            return (str(numerosity.cong_tv(a, b)), str(numerosity.preceq_tv(a, b)),
                    str(oracle.cong_brute(a, b)), str(oracle.preceq_brute(a, b)))

        def check(out, a=a, b=b):
            cong, preceq, cong_o, preceq_o = out
            if (cong, preceq) != (cong_o, preceq_o):
                return f"closed forms {cong},{preceq} but oracle {cong_o},{preceq_o}"
            if str(numerosity.cong_tv(a, a)) not in "tb":
                return "cong not reflexively assertable"
            if str(numerosity.cong_tv(b, a)) != cong:
                return "cong not symmetric"
            if cong in "tb" and not (preceq in "tb"
                                     and str(numerosity.preceq_tv(b, a)) in "tb"):
                return "assertable cong without assertable preceq both ways"
            return None

        ops.append(Op(key, run, check,
                      VISITS.get((len(a.realm), len(b.realm)), CHEAP_VISITS)))
    return ops
