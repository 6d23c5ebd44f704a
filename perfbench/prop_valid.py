"""prop-valid: propositional validity by the per-assignment loop.

One op is ``parse`` plus ``valid_prop`` on a formula with 1-8 letters.

* Valid formulas are substitution instances of schemata the acceptance
  suite holds valid; they run all 4^k assignments.
* Invalid formulas are ``(p \\/ -p) /\\ W`` where W fails first at a
  chosen assignment: early (within the first 16), in the middle (just
  after 2 * 4^(k-1)), or last (every letter f).  Early witnesses are
  where a whole-table engine could lose to today's early exit.

The cost of an op is about (assignments tried) x (formula nodes), so
the letter count, kind, schema, chunk sizes, connectives and witness
position of every slot come from a fixed design (``DESIGN``,
``DESIGN_SEED``).  The seed draws the letter names and which letter
fills which leaf.
"""

from __future__ import annotations

import random

import reference as ref
from harness import Op

DESIGN_SEED = 20260402
NAMES = ("p", "q", "r", "s", "u", "v", "w", "x", "y", "z",
         "p1", "q1", "r1", "s1", "u1", "v1")

# letters: (valid, early, mid, last)
# 101 formulas, so op_p90_ms is the time of the 91st.  The nine dearest
# (k >= 6, not early) lie above it; below them come three 5-letter
# valid formulas of equal cost (slots 64, 66 and 69), so the 91st is
# always the middle one of that group, never a point in a gap between
# two groups whose place moves with each op's noise.
DESIGN = {1: (5, 4, 3, 3), 2: (5, 5, 3, 3), 3: (5, 5, 3, 3), 4: (5, 5, 3, 3),
          5: (7, 5, 3, 3), 6: (4, 5, 2, 0), 7: (1, 5, 1, 0), 8: (1, 1, 0, 0)}

P, Q, R = ("meta", 0), ("meta", 1), ("meta", 2)
SCHEMATA = (
    ("<->", ("&", P, Q), ("/\\", P, Q)),
    ("<->", ("~", ("&", P, Q)), ("->", P, ("~", Q))),
    ("\\/", P, ("-", P)),
    ("<=>", ("~", ("/\\", P, Q)), ("\\/", ("~", P), ("~", Q))),
    ("->", ("->", P, Q), ("->", ("->", Q, R), ("->", P, R))),
    ("->", ("/\\", P, Q), P),
    ("<=>", ("~", ("~", P)), P),
    ("\\/", ("\\/", P, ("-", P)), Q),
)
# The weakening schema: one metavariable takes all but one letter, once.
WEAKENING = 7
VALUES = "tbnf"
# Visits per round by letter count (early witnesses count as cheap):
# cheap formulas are sampled more, for steadier times.
VISITS = {1: 8, 2: 8, 3: 8, 4: 8, 5: 4}
EARLY_VISITS = 8


def _arity(schema) -> int:
    if schema[0] == "meta":
        return schema[1] + 1
    return max((_arity(part) for part in schema[1:] if isinstance(part, tuple)), default=0)


def _substitute(schema, chunks):
    if schema[0] == "meta":
        return chunks[schema[1]]
    return (schema[0],) + tuple(_substitute(part, chunks) for part in schema[1:])


def is_value(letter: str, v: str) -> tuple:
    """A classical formula true exactly when ``letter`` has value v."""
    x = ("letter", letter)
    truth = ("!", x) if v in "tb" else ("-", ("!", x))
    not_false = ("?", x) if v in "tn" else ("-", ("?", x))
    return ("/\\", truth, not_false)


def _fold(op: str, parts: list) -> tuple:
    out = parts[0]
    for part in parts[1:]:
        out = (op, out, part)
    return out


def witness_gadget(names: list[str], kind: str, tail: tuple[str, ...]) -> tuple:
    """W over the sorted letters; its first failing assignment is
    (t,...,t, tail) for early, (n, t,...,t, tail) for mid, all f for last."""
    if kind == "last":
        d = _fold("\\/", [("letter", x) for x in names])
        return ("->", ("~", d), d)
    conds = [("letter", x) for x in names]
    fixed = len(tail)
    if kind == "mid":
        conds[0] = is_value(names[0], "n")
    for i, v in enumerate(tail):
        conds[len(names) - fixed + i] = is_value(names[len(names) - fixed + i], v)
    return ("-", _fold("/\\", conds))


def first_witness(names: list[str], kind: str, tail: tuple[str, ...]) -> tuple[str, ...]:
    k = len(names)
    if kind == "last":
        return ("f",) * k
    head = ["t"] * (k - len(tail)) + list(tail)
    if kind == "mid":
        head[0] = "n"
    return tuple(head)


def design() -> list[tuple]:
    """Seed-independent slots: (k, kind, schema index, chunk sizes,
    connectives) for valid formulas, (k, kind, witness tail) otherwise."""
    rng = random.Random(DESIGN_SEED)
    slots = []
    binary = list(ref.BINARY)
    for k, counts in DESIGN.items():
        for kind, count in zip(("valid", "early", "mid", "last"), counts):
            for j in range(count):
                if kind != "valid":
                    n_tail = {"early": min(2, k), "mid": min(2, k - 1), "last": 0}[kind]
                    slots.append((k, kind, tuple(rng.choice(VALUES) for _ in range(n_tail))))
                    continue
                schema = WEAKENING if k >= 7 else (j + k) % len(SCHEMATA)
                arity = _arity(SCHEMATA[schema])
                if schema == WEAKENING:
                    sizes = [1, k - 1] if k > 1 else [1, 1]
                else:
                    sizes = [k // arity + (1 if i < k % arity else 0) for i in range(arity)]
                    sizes = [max(1, s) for s in sizes]
                connectives = [[rng.choice(binary) for _ in range(s - 1)] for s in sizes]
                slots.append((k, kind, schema, sizes, connectives))
    return slots


def formulas(seed: int) -> list[tuple[str, tuple, str, tuple | None]]:
    """(key, formula, kind, first witness or None), texts distinct."""
    rng = random.Random(seed)
    seen: set[str] = set()
    out = []
    for i, (k, kind, *shape) in enumerate(design()):
        while True:
            names = sorted(rng.sample(NAMES, k))
            if kind == "valid":
                f, expect = _valid_instance(rng, names, *shape), None
            else:
                tail = shape[0]
                base = ("\\/", ("letter", names[0]), ("-", ("letter", names[0])))
                f = ("/\\", base, witness_gadget(names, kind, tail))
                expect = first_witness(names, kind, tail)
            text = ref.render(f)
            if text not in seen:
                seen.add(text)
                break
        out.append((f"{kind}/k{k}/{i}", f, kind, expect))
    return out


def _valid_instance(rng, names, schema, sizes, connectives) -> tuple:
    leaves = list(names)
    rng.shuffle(leaves)
    while len(leaves) < sum(sizes):  # fewer letters than metavariables
        leaves.append(rng.choice(names))
    chunks = []
    pos = 0
    for size, ops in zip(sizes, connectives):
        part = [("letter", x) for x in leaves[pos:pos + size]]
        pos += size
        chunk = part[0]
        for op, leaf in zip(ops, part[1:]):
            chunk = (op, chunk, leaf)
        chunks.append(chunk)
    return _substitute(SCHEMATA[schema], chunks)


def check_output(f: tuple, kind: str, out) -> str | None:
    """``out`` is (valid, witness as {letter: 't'|'b'|'n'|'f'})."""
    ok, witness = out
    if kind == "valid":
        return None if ok else f"valid formula reported invalid, witness {witness}"
    if ok:
        return "invalid formula reported valid"
    if set(witness) != ref.letters(f):
        return f"witness letters {sorted(witness)} differ from the formula's"
    env = {name: ref.FLAGS_OF[v] for name, v in witness.items()}
    if ref.value(f, env=env)[0]:
        return f"witness {witness} makes the formula assertable"
    return None


def build(seed: int, workdir: str) -> list[Op]:
    from bzfc import checker, formula

    ops = []
    for key, f, kind, _ in formulas(seed):
        text = ref.render(f)

        def run(text=text):
            ok, witness = checker.valid_prop(formula.parse(text))
            return ok, None if witness is None else {k: str(v) for k, v in witness.items()}

        def check(out, f=f, kind=kind):
            return check_output(f, kind, out)

        visits = EARLY_VISITS if kind == "early" else VISITS.get(len(ref.letters(f)), 1)
        ops.append(Op(key, run, check, visits))
    return ops
