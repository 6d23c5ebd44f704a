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

The set literal scanner reads each line, ``let NAME = <set literal>``
(NAME no formula keyword) or ``universe ELEMENT ...``; whitespace only
separates its tokens, so ``universe(a,1)`` is ``universe (a,1)``, and a
line that starts with a symbol such as ``<`` is the unknown directive '<'.

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
from functools import cache
from typing import TYPE_CHECKING

from .errors import (BZFCError, GuardError, GuardExceeded, UnreadableFile, UnresolvedName,
                     UsageError)
from .formula import KEYWORDS, parse as parse_formula, render
from .sets import Atom, NCSet, _LiteralParser, parse_ncset

# The commands import `cardinal`, `checker`, `numerosity` and `selfcheck`
# themselves, so that each one loads only the modules it calls.
if TYPE_CHECKING:
    from .cardinal import Cardinal
    from .checker import DomainValue, Model
    from .parareal import ParaReal

MAX_CHECK_CASES = 100_000


# ---------------------------------------------------------------------------
# Sessions


class Session:
    def __init__(self, bindings: dict[str, NCSet] | None = None,
                 universe: list[DomainValue] | None = None):
        self.bindings = {} if bindings is None else bindings
        self.universe = universe


def load_session(path: str) -> Session:
    session = Session()
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise UnreadableFile(f"{path}: {getattr(err, 'strerror', None) or err}") from None
    for lineno, raw in enumerate(lines, start=1):
        # Rewrite the message in place: same class, so same exit code.
        try:
            _SessionParser(raw.rstrip()).directive(session)
        except BZFCError as err:
            where = getattr(err, "position", None)
            err.args = (f"{path}:{lineno}: {err}" if where is None else
                        f"{path}:{lineno}:{where + 1}: {err.detail()}",)
            raise
    return session


class _SessionParser(_LiteralParser):
    """One session line, read by the literal grammar with ``=`` added."""

    symbols = (*_LiteralParser.symbols, "=")

    def directive(self, session: Session) -> None:
        directive = self.word
        if directive == "let":
            self.advance()
            name = self.word
            if (self.kind != "name" or name in KEYWORDS
                    or self.kinds[self.i + 1] not in ("=", "end")):
                raise self.fail({"NAME"}, "expected 'let NAME = <set literal>'")
            if self.kinds[self.i + 1] == "end":
                self.advance()
                raise self.fail({"'='"}, "expected 'let NAME = <set literal>'")
            if name in session.bindings:
                raise self.fail((), f"name {name!r} bound twice")
            self.advance()  # NAME, then '='
            self.advance()
            session.bindings[name] = self.end(self.ncset())
        elif directive == "universe":
            if session.universe is not None:
                raise self.fail((), "universe declared twice")
            self.advance()
            entries = self.elements()
            if not entries:
                raise self.fail((), "universe must not be empty")
            session.universe = [session.bindings.get(entry.name, entry) if isinstance(entry, Atom)
                                else entry for entry in entries]
        elif directive not in ("", "#"):  # not a blank line or a comment
            raise self.fail({"let", "universe", "#"}, f"unknown directive {directive!r}")


def session_model(session: Session) -> Model:
    from .checker import Model
    realms = [element for bound_set in session.bindings.values() for element in bound_set.realm]
    universe = sorted(set(realms), key=str) if session.universe is None else session.universe
    env: dict[str, DomainValue] = {}
    for value in (*universe, *realms):
        if isinstance(value, Atom):
            env.setdefault(value.name, value)
    env.update(session.bindings)  # explicit bindings win over atom names
    return Model(universe, env)


def _load(args: argparse.Namespace) -> Session:
    if args.session:
        return load_session(args.session)
    return Session()


def _resolve_set(text: str, session: Session) -> NCSet:
    if text in session.bindings:
        return session.bindings[text]
    return parse_ncset(text)


# ---------------------------------------------------------------------------
# Subcommands


def eval_arith(text: str, real: bool = False) -> Cardinal | ParaReal:
    # ``cardinal.eval_arith``, kept as a name of this module because the
    # benchmark's tracer and its cli-mix checks look it up here.
    from . import cardinal
    return cardinal.eval_arith(text, real)


def cmd_parse(args: argparse.Namespace) -> int:
    print(render(parse_formula(args.formula)))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .checker import evaluate
    model = session_model(_load(args))
    print(evaluate(parse_formula(args.formula), model))
    return 0


def cmd_valid(args: argparse.Namespace) -> int:
    from .checker import valid_prop
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
    from .numerosity import cong_tv, preceq_tv
    session = _load(args)
    a = _resolve_set(args.seta, session)
    b = _resolve_set(args.setb, session)
    print(f"cong: {cong_tv(a, b)}")
    print(f"preceq: {preceq_tv(a, b)}")
    return 0


def cmd_card(args: argparse.Namespace) -> int:
    from .cardinal import card_of
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
    from .cardinal import lattice_dot
    sys.stdout.write(lattice_dot((args.t, args.b, args.n)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if not 1 <= args.cases <= MAX_CHECK_CASES:
        raise GuardExceeded(f"--cases must be in 1..{MAX_CHECK_CASES} (asked for {args.cases})")
    from .selfcheck import run_all
    results = run_all(args.seed, args.cases)
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


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command line that fits no command as one ``error:`` line
    and exit 2, like any other error, instead of usage text."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message} (see {self.prog} --help)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
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

    p = sub.add_parser("lattice", help="DOT diagram of finite cardinals within bounds")
    p.add_argument("t", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("check", help="run the seeded self-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.set_defaults(func=cmd_check)

    # argparse reads an argument that starts with '-' as an option unless it
    # matches the parser's negative-number pattern.  Widen the pattern where
    # the argument is a formula or an expression, so that printed values with
    # a leading '-' (the formula -p, the para-reals -b and -1/2) re-parse.
    for name in ("parse", "eval", "valid", "arith"):
        sub.choices[name]._negative_number_matcher = re.compile("-[^-]")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except BZFCError as err:
        # One line, even where argparse quotes a stray argument as it is.
        print("error:", " ".join(str(err).splitlines()), file=sys.stderr)
        if isinstance(err, UnresolvedName):
            return 3
        return 4 if isinstance(err, GuardError) else 2


if __name__ == "__main__":
    sys.exit(main())
