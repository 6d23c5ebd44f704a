"""cli-mix: the command-line front end, called in-process.

One op is one ``bzfc.cli.main(argv)`` call with its output captured.
The script covers every subcommand except ``check``, at user sizes:
``parse``, ``eval --session``, ``valid`` (at most 4 letters), ``cmp``,
``card``, ``arith``, ``arith --real`` and ``lattice`` up to ``6 6 6``,
plus contract errors (exits 2, 3, 4) and four inputs that escape
``main`` with a traceback today (``FAULTS``).  Those four fail on every
seed and every round, so the failed share of a run is exactly
len(FAULTS) / len(script).

The number of ops of each kind, the lattice bounds, and the shape of
every input (formula connectives and atom kinds, set sizes, expression
trees) come from a fixed design (``DESIGN_SEED``), so every seed costs
about the same; the seed draws the names, elements and numbers.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import fo_eval
import prop_valid
import reference as ref
from harness import Op

DESIGN_SEED = 20260404
SESSIONS = 4
EVALS_PER_SESSION = 4
COUNTS = {"parse": 12, "valid": 12, "cmp": 12, "card": 12, "arith": 14, "arith --real": 14}
LATTICES = ((0, 0, 0), (1, 1, 1), (2, 1, 0), (3, 2, 2), (4, 4, 4), (6, 6, 6))
# The order's single steps: one more unit of t, b or n, or a b or an n
# traded for a t.  Their reachability is the assertable side of <=.
LATTICE_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1))

# Contract errors: argv (with {dir} for the work directory) and exit code.
CONTRACT_ERRORS = (
    (["parse", "p &"], 2),
    (["parse", "(p"], 2),
    (["valid", "x in A"], 2),
    (["card", "<{a}|{a}|{}>"], 2),
    (["arith", "3 - 1"], 2),
    (["arith", "--real", "aleph0"], 2),
    (["cmp", "<{a}|{b}", "<{}|{}>"], 2),
    (["eval", "p"], 3),
    (["eval", "x in A"], 3),
    (["eval", "Q = Q", "--session", "{dir}/s0.session"], 3),
    (["arith", "--real", "1 / b"], 4),
    (["lattice", "-1", "2", "2"], 4),
    (["eval", "forall x . x in A", "--session", "{dir}/empty.session"], 4),
)

# Inputs that raise out of main today; the exit codes a fix may give.
FAULTS = (
    (["arith", "aleph16"], {2, 4}),                   # ValueError from Aleph.__post_init__
    (["parse", "~" * 3000 + "p"], {2, 4}),            # RecursionError in the parser
    (["eval", "false", "--session", "{dir}/adir"], {2}),           # IsADirectoryError
    (["eval", "false", "--session", "{dir}/bad_utf8.session"], {2}),  # UnicodeDecodeError
)


# ---------------------------------------------------------------------------
# Inputs


def _element(rng: random.Random) -> str:
    kind = rng.randrange(6)
    atom = rng.choice("abcdefgh")
    if kind == 0:
        return str(rng.randrange(10))
    if kind == 1:
        return f"({atom},{rng.randrange(4)})"
    if kind == 2:
        return f"{atom}@{rng.randrange(2)}"
    return atom


def _set(rng: random.Random, size: int, atoms: str | None = None) -> ref.RSet:
    """A set with a realm of ``size``: the given atoms, or elements drawn
    from atoms, naturals, pairs and tags."""
    realm: set[str] = set(atoms or ())
    while len(realm) < size:
        realm.add(_element(rng))
    parts: list[set] = [set(), set(), set()]
    for x in sorted(realm):  # not set order, which changes with the hash seed
        parts[rng.randrange(3)].add(x)
    return ref.RSet(*map(frozenset, parts))


def _literal(rng: random.Random, s: ref.RSet, by_parts: bool) -> str:
    def braces(items) -> str:
        items = sorted(items)
        rng.shuffle(items)
        return "{" + ",".join(items) + "}"

    if by_parts:
        return f"<{braces(s.bpart)}|{braces(s.tpart)}|{braces(s.npart)}>"
    return f"<{braces(s.bang)}|{braces(s.query)}>"


def _expr(shape: random.Random, rng: random.Random, depth: int, real: bool) -> tuple:
    """An expression whose tree and leaf kinds come from ``shape`` and
    whose numbers come from ``rng``."""
    if depth == 0 or shape.random() < 0.3:
        kind = shape.randrange(10)
        if kind < 4:
            return ("num", rng.randrange(7))
        if kind < 6:
            return (shape.choice("bn"),)
        if kind < 8:
            return ("unit", rng.randrange(1, 5), shape.choice("bn"))
        if real:
            return ("/", ("num", rng.randrange(1, 9)), ("num", rng.randrange(1, 9)))
        return ("aleph", rng.randrange(16))
    if real and shape.random() < 0.15:
        return ("neg", _expr(shape, rng, depth - 1, real))
    op = shape.choice(("+", "*", "-", "/") if real else ("+", "*"))
    if op == "/":  # k or k + b or k + n with k >= 1: always invertible
        divisor = ("num", rng.randrange(1, 9))
        if shape.random() < 0.5:
            divisor = ("+", divisor, (shape.choice("bn"),))
        return (op, _expr(shape, rng, depth - 1, real), divisor)
    return (op, _expr(shape, rng, depth - 1, real), _expr(shape, rng, depth - 1, real))


def _formula(shape: random.Random, rng: random.Random, q: int, atoms: list[str],
             kinds: list[str], unary_share: float, restricted_share: float) -> tuple:
    """fo_eval.random_formula with connectives, unary operators and
    restricted binders drawn from ``shape``."""
    return fo_eval.random_formula(
        shape, rng, list(fo_eval.VARS[:q]), atoms, kinds,
        [shape.choice(ref.BINARY) for _ in range(len(kinds) - 1)],
        [shape.choice(ref.UNARY) if shape.random() < unary_share else None for _ in kinds],
        [shape.random() < restricted_share for _ in range(q)])


def _session(shape: random.Random, rng: random.Random,
             index: int) -> tuple[str, ref.RModel, list[str]]:
    """Session text, its reference model, and the atom names in the universe.

    The last session has no universe line, so its universe is the union
    of the bound sets' realms: their atoms are disjoint, so its size is
    fixed by the design."""
    last = index == SESSIONS - 1
    sizes = [shape.randint(1, 2 if last else 4) for _ in fo_eval.SET_NAMES]
    pool = rng.sample("abcdefgh", sum(sizes)) if last else None
    sets = {}
    for n, (name, size) in enumerate(zip(fo_eval.SET_NAMES, sizes)):
        atoms = pool[sum(sizes[:n]):sum(sizes[:n + 1])] if last else rng.sample("abcdefgh", size)
        sets[name] = _set(rng, size, atoms)
    lines = ["# generated session"]
    lines += [f"let {name} = {_literal(rng, s, shape.random() < 0.5)}" for name, s in sets.items()]
    env: dict = {}
    if not last:
        atoms = sorted(rng.sample("abcdefgh", 3 + index))
        entries = atoms + list(fo_eval.SET_NAMES[:1 + index % 2])
        rng.shuffle(entries)
        lines.append("universe " + " ".join(entries))
        universe = tuple(sets[e] if e in sets else e for e in entries)
    else:
        atoms = sorted(set().union(*(s.realm for s in sets.values())))
        universe = tuple(atoms)
    for x in atoms:
        env[x] = x
    for s in sets.values():
        for x in s.realm:
            env.setdefault(x, x)
    env.update(sets)
    return "\n".join(lines) + "\n", ref.RModel(universe, env), atoms


def script(seed: int) -> list[tuple[str, list[str] | None, tuple]]:
    """(key, argv, (kind, data)): kind "error" with the allowed exit
    codes, or the subcommand whose output check applies; argv None
    marks a session file to write, ``{dir}`` the work directory."""
    shape = random.Random(DESIGN_SEED)
    rng = random.Random(seed)
    items: list[tuple[str, list[str] | None, tuple]] = []

    for i in range(COUNTS["parse"]):
        f = _formula(shape, rng, i % 4, ["a", "b", "c"], ["in", "=", "in"], 0.6, 0.5)
        items.append((f"parse/{i}", ["parse", ref.render(f)], ("parse", f)))

    for s in range(SESSIONS):
        text, rmodel, atoms = _session(shape, rng, s)
        items.append((f"session/{s}", None, ("file", f"s{s}.session", text)))
        for j in range(EVALS_PER_SESSION):
            kinds = [shape.choice(("in", "in", "=")) for _ in range(3)]
            f = _formula(shape, rng, j % 4, atoms, kinds, 0.4, 0.3)
            items.append((f"eval/{s}/{j}",
                          ["eval", ref.render(f), "--session", f"{{dir}}/s{s}.session"],
                          ("eval", (f, rmodel))))

    small = [x for x in prop_valid.formulas(seed) if len(ref.letters(x[1])) <= 4]
    for key, f, kind, _ in small[::len(small) // COUNTS["valid"]][:COUNTS["valid"]]:
        items.append((f"valid/{key}", ["valid", ref.render(f)], ("valid", (f, kind))))

    for i in range(COUNTS["cmp"]):
        a, b = (_literal(rng, _set(rng, shape.randint(0, 3)), shape.random() < 0.5)
                for _ in range(2))
        items.append((f"cmp/{i}", ["cmp", a, b], ("cmp", None)))

    for i in range(COUNTS["card"]):
        s = _set(rng, shape.randint(0, 6))
        expected = tuple(map(len, (s.tpart, s.bpart, s.npart)))
        items.append((f"card/{i}", ["card", _literal(rng, s, shape.random() < 0.5)],
                      ("card", expected)))

    for real in (False, True):
        mode = "arith --real" if real else "arith"
        for i in range(COUNTS[mode]):
            e = _expr(shape, rng, 3, real)
            expected = ref.evaluate_expr(e)
            text = ref.render_expr(e)
            if text.startswith("-"):  # argparse would take it for an option
                text = f"({text})"
            argv = ["arith", "--real", text] if real else ["arith", text]
            items.append((f"{mode}/{i}", argv, ("arith", (expected, real))))

    for t, b, n in LATTICES:
        items.append((f"lattice/{t}{b}{n}", ["lattice", str(t), str(b), str(n)],
                      ("lattice", (t, b, n))))
    for i, (argv, code) in enumerate(CONTRACT_ERRORS):
        items.append((f"error/{code}/{i}", argv, ("error", {code})))
    for i, (argv, codes) in enumerate(FAULTS):
        items.append((f"fault/{i}", argv, ("error", codes)))
    return items


# ---------------------------------------------------------------------------
# Checks


def _check_success(kind: str, data, out: str, cli, bz) -> str | None:
    if kind == "parse":
        tree = bz.formula.parse(out.strip())
        if as_reference(tree) != ref.desugar(data):
            return f"prints {out.strip()!r}, not the input formula"
        again = bz.formula.render(tree)
        return None if again == out.strip() else f"re-parses to {again!r}"
    if kind == "eval":
        f, rmodel = data
        expected = ref.verdict(f, rmodel)
        return None if out == expected + "\n" else f"verdict {out.strip()}, reference {expected}"
    if kind == "valid":
        f, fkind = data
        lines = out.splitlines()
        if lines[0] == "valid" and len(lines) == 1:
            return prop_valid.check_output(f, fkind, (True, None))
        if lines[0] != "invalid" or len(lines) != 2 or not lines[1].startswith("witness: "):
            return f"unexpected output {out!r}"
        pairs = lines[1][len("witness: "):].split()
        witness = dict(pair.split("=") for pair in pairs)
        return prop_valid.check_output(f, fkind, (False, witness))
    if kind == "card":
        text = out.strip()
        if ref.parse_triple(text) != tuple(map(ref.Fraction, data)):
            return f"card {text}, part sizes {data}"
        return _reparses(text, False, cli)
    if kind == "arith":
        expected, real = data
        text = out.strip()
        if ref.parse_triple(text) != expected:
            return f"arith {text}, reference {expected}"
        return _reparses(text, real, cli)
    if kind == "lattice":
        return _check_lattice(out, data, cli)
    raise ValueError(kind)


_TAGS = {"Neg": "~", "CNeg": "-", "Bang": "!", "Query": "?", "Circ": "o",
         "Conj": "/\\", "Amp": "&", "Disj": "\\/", "Imp": "->", "StrongImp": "=>",
         "Iff": "<->", "StrongIff": "<=>", "Forall": "forall", "Exists": "exists",
         "ForallIn": "forall_in", "ExistsIn": "exists_in", "Membership": "in",
         "Equality": "="}


def as_reference(node) -> tuple:
    """The program's formula tree as a reference tuple."""
    kind = type(node).__name__
    if kind == "Prop":
        return ("letter", node.name)
    if kind == "Bottom":
        return ("false",)
    tag = _TAGS[kind]
    if kind in ("Membership", "Equality"):
        return (tag, str(node.left), str(node.right))
    if kind in ("ForallIn", "ExistsIn"):
        return (tag, node.var, str(node.bound), as_reference(node.body))
    if kind in ("Forall", "Exists"):
        return (tag, node.var, as_reference(node.body))
    if hasattr(node, "body"):
        return (tag, as_reference(node.body))
    return (tag, as_reference(node.left), as_reference(node.right))


def _reparses(text: str, real: bool, cli) -> str | None:
    again = str(cli.eval_arith(text, real=real))
    return None if again == text else f"{text!r} re-parses to {again!r}"


def _check_lattice(out: str, bounds, cli) -> str | None:
    lines = out.splitlines()
    if lines[0] != "digraph cardinal_order {" or lines[-1] != "}":
        return "not a digraph"
    nodes = [x.strip()[1:-2] for x in lines[1:-1] if "->" not in x]
    t, b, n = bounds
    if len(nodes) != (t + 1) * (b + 1) * (n + 1):
        return f"{len(nodes)} nodes for bounds {bounds}"
    grid = {(ref.Fraction(i), ref.Fraction(j), ref.Fraction(k))
            for i in range(t + 1) for j in range(b + 1) for k in range(n + 1)}
    if {ref.parse_triple(label) for label in nodes} != grid:
        return "node labels are not the grid"
    for label in nodes:
        problem = _reparses(label, False, cli)
        if problem:
            return problem
    edges = []
    for x in lines[1:-1]:
        if "->" in x:
            src, dst = (part.strip().strip(';').strip().strip('"') for part in x.split("->"))
            edges.append((ref.parse_triple(src), ref.parse_triple(dst)))
    expected = {(x, y) for x in grid
                for y in (tuple(a + d for a, d in zip(x, step)) for step in LATTICE_STEPS)
                if y in grid}
    if len(edges) != len(expected) or set(edges) != expected:
        return f"{len(edges)} edges, not the {len(expected)} single steps of the grid"
    return None


def _check_cmp(argv: list[str], out: str, bz) -> str | None:
    a, b = bz.sets.parse_ncset(argv[1]), bz.sets.parse_ncset(argv[2])
    expected = f"cong: {bz.oracle.cong_brute(a, b)}\npreceq: {bz.oracle.preceq_brute(a, b)}\n"
    return None if out == expected else f"{out!r}, oracle {expected!r}"


# ---------------------------------------------------------------------------


def write_files(workdir: str, items) -> None:
    os.makedirs(os.path.join(workdir, "adir"), exist_ok=True)
    with open(os.path.join(workdir, "empty.session"), "w", encoding="utf-8") as fh:
        fh.write("# no bindings, no universe\n")
    with open(os.path.join(workdir, "bad_utf8.session"), "wb") as fh:
        fh.write(b"let A = <{a}|{}|{}>\n# \xff\xfe\n")
    for _, argv, expect in items:
        if argv is None:
            with open(os.path.join(workdir, expect[1]), "w", encoding="utf-8") as fh:
                fh.write(expect[2])


def build(seed: int, workdir: str) -> list[Op]:
    import types

    from bzfc import cli, formula, oracle, sets

    bz = types.SimpleNamespace(formula=formula, oracle=oracle, sets=sets)
    items = script(seed)
    write_files(workdir, items)
    ops = []
    for key, argv, expect in items:
        if argv is None:
            continue
        argv = [a.replace("{dir}", workdir) for a in argv]
        kind, data = expect

        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def check(result, argv=argv, kind=kind, data=data):
            code, out, err = result
            if kind == "error":
                if code not in data:
                    return f"exit {code}, expected {sorted(data)}"
                lines = err.splitlines()
                if out or len(lines) != 1 or not lines[0].startswith("error: "):
                    return f"expected one error line, got {err!r}"
                return None
            if code != 0 or err:
                return f"exit {code}, stderr {err!r}"
            if kind == "cmp":
                return _check_cmp(argv, out, bz)
            return _check_success(kind, data, out, cli, bz)

        ops.append(Op(key, run, check))
    return ops
