"""Command-line front end.

Subcommands: parse, eval, valid, cmp, card, arith [--real], lattice,
check.  Truth values print as single lowercase letters; sets, cardinals
and para-reals print in their literal syntaxes, all of which re-parse.

Exit codes: 0 ok, 2 parse error, 3 unresolved name, 4 guard violation,
5 self-check failure.

A session file binds names and declares the quantifier universe:

    # lines starting with # are comments
    let A = <{a}|{b}|{}>
    universe a b c d

Quantifiers range over the declared finite universe (the theory's
universe of all sets is a proper class and is not on offer here).  If
no universe is declared, the realms of the bound sets are used.  Atoms
mentioned in bound sets or the universe are usable by name in formulas;
a universe entry may also name a previously bound set.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from functools import cache

from . import selfcheck
from .cardinal import card_of, eval_arith, lattice_dot
from .checker import DomainValue, Model, evaluate, valid_prop
from .errors import (BZFCError, DisjointnessViolation, GuardError, GuardExceeded,
                     NotPropositional, ParseError, UnresolvedName)
from .formula import parse as parse_formula, render
from .numerosity import cong_tv, preceq_tv
from .sets import Atom, Element, NCSet, parse_element, parse_ncset

MAX_CHECK_CASES = 100_000


# ---------------------------------------------------------------------------
# Sessions


@dataclass
class Session:
    bindings: dict[str, NCSet] = field(default_factory=dict)
    universe: list[DomainValue] | None = None


def load_session(path: str) -> Session:
    session = Session()
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _session_line(session, line)
        except ParseError as err:
            raise ParseError(f"{path}:{lineno}: {err.args[0]}", err.position,
                             err.expected) from None
    return session


def _session_line(session: Session, line: str) -> None:
    words = line.split(None, 1)
    if words[0] == "let":
        rest = words[1] if len(words) > 1 else ""
        name, eq, literal = rest.partition("=")
        name = name.strip()
        if not name.isidentifier() or not eq:
            raise ParseError("expected 'let NAME = <set literal>'", 0,
                             frozenset({"let"}))
        if name in session.bindings:
            raise ParseError(f"name {name!r} bound twice", 0)
        session.bindings[name] = parse_ncset(literal.strip())
    elif words[0] == "universe":
        if session.universe is not None:
            raise ParseError("universe declared twice", 0)
        entries = words[1].split() if len(words) > 1 else []
        if not entries:
            raise ParseError("universe must not be empty", 0)
        session.universe = [_universe_entry(session, text) for text in entries]
    else:
        raise ParseError(f"unknown directive {words[0]!r}", 0,
                         frozenset({"let", "universe", "#"}))


def _universe_entry(session: Session, text: str) -> DomainValue:
    if text in session.bindings:
        return session.bindings[text]
    return parse_element(text)


def session_model(session: Session) -> Model:
    env: dict[str, DomainValue] = {}

    def register(value: DomainValue) -> None:
        if isinstance(value, Atom):
            env.setdefault(value.name, value)

    universe: list[DomainValue]
    if session.universe is not None:
        universe = list(session.universe)
    else:
        realm: set[Element] = set()
        for bound_set in session.bindings.values():
            realm |= bound_set.realm
        universe = sorted(realm, key=str)
    for value in universe:
        register(value)
    for bound_set in session.bindings.values():
        for element in bound_set.realm:
            register(element)
    env.update(session.bindings)  # explicit bindings win over atom names
    return Model(universe, env)


def _load(args: argparse.Namespace) -> Session:
    if getattr(args, "session", None):
        return load_session(args.session)
    return Session()


def _resolve_set(text: str, session: Session) -> NCSet:
    if text in session.bindings:
        return session.bindings[text]
    return parse_ncset(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args: argparse.Namespace) -> int:
    print(render(parse_formula(args.formula)))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = session_model(_load(args))
    print(evaluate(parse_formula(args.formula), model))
    return 0


def cmd_valid(args: argparse.Namespace) -> int:
    ok, witness = valid_prop(parse_formula(args.formula))
    if ok:
        print("valid")
    else:
        assert witness is not None
        assignment = " ".join(f"{name}={tv}" for name, tv in sorted(witness.items()))
        print("invalid")
        print(f"witness: {assignment}" if assignment else "witness: (no letters)")
    return 0


def cmd_cmp(args: argparse.Namespace) -> int:
    session = _load(args)
    a = _resolve_set(args.seta, session)
    b = _resolve_set(args.setb, session)
    print(f"cong: {cong_tv(a, b)}")
    print(f"preceq: {preceq_tv(a, b)}")
    return 0


def cmd_card(args: argparse.Namespace) -> int:
    session = _load(args)
    print(card_of(_resolve_set(args.set, session)))
    return 0


def cmd_arith(args: argparse.Namespace) -> int:
    value = eval_arith(args.expr, real=args.real)
    try:
        text = str(value)
    except ValueError:  # a component beyond sys.get_int_max_str_digits()
        raise GuardExceeded("the result has a component too long to print") from None
    print(text)
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    sys.stdout.write(lattice_dot((args.t, args.b, args.n)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if not 1 <= args.cases <= MAX_CHECK_CASES:
        raise GuardExceeded(f"--cases must be in 1..{MAX_CHECK_CASES} (asked for {args.cases})")
    results = selfcheck.run_all(args.seed, args.cases)
    failed = False
    for result in results:
        if result.ok:
            print(f"ok {result.name} ({result.checks} checks)")
        else:
            failed = True
            print(f"FAIL {result.name} ({len(result.failures)} of {result.checks} checks)")
            for detail in result.failures[:10]:
                print(f"  {detail}")
            if len(result.failures) > 10:
                print(f"  ... and {len(result.failures) - 10} more")
    total = sum(result.checks for result in results)
    if failed:
        print(f"FAILED (seed {args.seed})")
        return 5
    print(f"all {total} checks passed (seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bzfc",
        description="Evaluate four-valued formulas and compute with "
                    "inconsistent/incomplete sets, their cardinals, and para-reals.",
        epilog="Quantifiers range over the finite universe declared in the "
               "session file (or, by default, the realms of its bound sets). "
               "This deliberately replaces the theory's class-sized universe "
               "of all sets, which no evaluator can iterate; everything else "
               "follows the four-valued semantics exactly.")
    sub = parser.add_subparsers(required=True, metavar="command")

    session_parent = argparse.ArgumentParser(add_help=False)
    session_parent.add_argument("--session", metavar="FILE",
                                help="session file with let-bindings and a universe")

    p = sub.add_parser("parse", parents=[session_parent],
                       help="parse a formula and print its canonical form")
    p.add_argument("formula")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", parents=[session_parent],
                       help="evaluate a formula; prints one of t b n f")
    p.add_argument("formula")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("valid", help="propositional validity over all assignments")
    p.add_argument("formula")
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("cmp", parents=[session_parent],
                       help="compare two sets: equinumerosity and size order")
    p.add_argument("seta")
    p.add_argument("setb")
    p.set_defaults(func=cmd_cmp)

    p = sub.add_parser("card", parents=[session_parent],
                       help="the cardinal of a set, as a literal")
    p.add_argument("set")
    p.set_defaults(func=cmd_card)

    p = sub.add_parser("arith", help="evaluate a cardinal (or --real) expression")
    p.add_argument("--real", action="store_true",
                   help="para-real mode: rationals, subtraction, division")
    p.add_argument("expr")
    p.set_defaults(func=cmd_arith)
    # argparse reads an argument that starts with '-' as an option unless it
    # matches the parser's negative-number pattern.  Widen the pattern here
    # so that a para-real printed with a leading '-' (-b, -1/2) re-parses.
    p._negative_number_matcher = re.compile("-[^-]")

    p = sub.add_parser("lattice", help="DOT diagram of finite cardinals within bounds")
    p.add_argument("t", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("check", help="run the seeded self-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DisjointnessViolation, NotPropositional) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnresolvedName as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except GuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BZFCError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
