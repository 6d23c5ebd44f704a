"""fo-eval: first-order evaluation over finite four-valued models.

One op is ``parse`` plus ``evaluate`` of a closed formula with 0-5
nested quantifiers over a model of 4-8 elements.  Some universe entries
are sets, so quantified variables meet ``member_tv`` and set equality
(``eq_tv``) in the body.  Some binders are restricted (``exists x in A``)
so the parser's desugaring runs too.

The cost of an op is about |universe|^quantifiers x (body nodes); the
quantifier count, universe size, set count, atom kinds, connectives,
binders and term roles of every slot come from a fixed design.  The
seed draws the sets' contents and the names in each atom.
"""

from __future__ import annotations

import random

import reference as ref
from harness import Op

DESIGN_SEED = 20260403
ATOM_NAMES = "abcdefgh"
SET_NAMES = ("A", "B", "C")
VARS = ("x", "y", "z", "u", "v")
# quantifier count: number of formulas
DESIGN = {0: 8, 1: 20, 2: 24, 3: 26, 4: 20, 5: 6}
# Visits per round by quantifier count: cheap formulas are sampled
# more, for steadier times.
VISITS = {0: 8, 1: 8, 2: 8, 3: 4, 4: 2, 5: 1}


def design() -> list[tuple]:
    """Seed-independent slots: (q, universe size, sets in universe,
    atom kinds, body connectives, unary positions, restricted binders)."""
    rng = random.Random(DESIGN_SEED)
    slots = []
    for q, count in DESIGN.items():
        for j in range(count):
            size = 4 + j % 5
            n_sets = 1 + j % 2
            atoms = max(3, q)
            kinds = [rng.choice(("in", "in", "=")) for _ in range(atoms)]
            connectives = [rng.choice(ref.BINARY) for _ in range(atoms - 1)]
            unary = [rng.choice(ref.UNARY) if rng.random() < 0.3 else None
                     for _ in range(atoms)]
            restricted = [rng.random() < 0.25 for _ in range(q)]
            slots.append((q, size, n_sets, kinds, connectives, unary, restricted))
    return slots


def _random_set(rng: random.Random, atoms: list[str]) -> ref.RSet:
    parts: list[set] = [set(), set(), set()]
    for atom in atoms:
        slot = rng.randrange(4)
        if slot < 3:
            parts[slot].add(atom)
    return ref.RSet(*map(frozenset, parts))


def cases(seed: int) -> list[tuple[str, tuple, ref.RModel]]:
    """(key, formula, reference model)."""
    rng = random.Random(seed)
    shape = random.Random(DESIGN_SEED + 1)
    out = []
    for i, (q, size, n_sets, kinds, connectives, unary, restricted) in enumerate(design()):
        atoms = sorted(rng.sample(ATOM_NAMES, size - n_sets))
        env: dict = {a: a for a in atoms}
        for name in SET_NAMES:
            env[name] = _random_set(rng, atoms + ["h"] if "h" not in atoms else atoms)
        universe = tuple(atoms) + tuple(env[name] for name in SET_NAMES[:n_sets])
        model = ref.RModel(universe, env)
        qvars = list(VARS[:q])
        out.append((f"q{q}/u{size}/{i}",
                    random_formula(shape, rng, qvars, atoms, kinds, connectives, unary,
                                   restricted),
                    model))
    return out


def random_formula(shape, rng, qvars, atoms, kinds, connectives, unary, restricted) -> tuple:
    """A closed formula: atoms of the given kinds joined by the given
    connectives under one binder per variable in ``qvars``; every
    quantified variable appears at least once.  ``shape`` places the
    variables, chooses the binders and decides whether each other term
    is a variable, an atom or a set, which is what the cost depends on;
    ``rng`` picks which one."""
    slots = 2 * len(kinds)
    terms = qvars + [None] * (slots - len(qvars))
    shape.shuffle(terms)
    body_atoms = []
    for n, kind in enumerate(kinds):
        left, right = terms[2 * n], terms[2 * n + 1]
        if kind == "in":
            left = left or _pick(shape, rng, qvars, atoms)
            right = right or rng.choice(SET_NAMES)
        else:
            left = left or _pick(shape, rng, qvars, ["A", "B"], atoms)
            right = right or _pick(shape, rng, qvars, ["A", "B"])
        atom = (kind, left, right)
        if unary[n]:
            atom = (unary[n], atom)
        body_atoms.append(atom)
    body = body_atoms[0]
    for op, atom in zip(connectives, body_atoms[1:]):
        body = (op, body, atom)
    for var, is_restricted in zip(reversed(qvars), reversed(restricted)):
        which = shape.choice(("forall", "exists"))
        if is_restricted:
            body = (which + "_in", var, rng.choice(SET_NAMES), body)
        else:
            body = (which, var, body)
    return body


def _pick(shape, rng, *groups: list[str]) -> str:
    """A name from one of the non-empty groups: ``shape`` picks the group."""
    groups = tuple(g for g in groups if g)
    return rng.choice(groups[shape.randrange(len(groups))])


def build(seed: int, workdir: str) -> list[Op]:
    from bzfc import checker, formula, sets

    def to_set(s: ref.RSet):
        return sets.NCSet(*([sets.Atom(x) for x in part] for part in s))

    ops = []
    for (key, f, rmodel), slot in zip(cases(seed), design()):
        converted = {}
        env = {}
        for name, v in rmodel.env.items():
            env[name] = sets.Atom(v) if isinstance(v, str) else converted.setdefault(v, to_set(v))
        universe = [sets.Atom(v) if isinstance(v, str) else converted[v] for v in rmodel.universe]
        model = checker.Model(universe, env)
        text = ref.render(f)

        def run(text=text, model=model):
            return str(checker.evaluate(formula.parse(text), model))

        def check(out, f=f, rmodel=rmodel):
            expected = ref.verdict(f, rmodel)
            return None if out == expected else f"verdict {out}, reference {expected}"

        ops.append(Op(key, run, check, VISITS[slot[0]]))
    return ops
