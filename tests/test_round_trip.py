"""Every value the command line prints re-parses, through ``cli.main``.

Formulas printed by ``parse`` read back as the same tree; cardinals and
para-reals printed by ``card`` and ``arith`` read back through ``arith``
as the same value and the same text; every node label of a ``lattice``
diagram reads back through ``arith``; and set literals read back as the
same set.  The examples are derandomized, so every run tries the same
inputs.
"""

import contextlib
import io
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bzfc import formula as fm
from bzfc.cardinal import Aleph, Cardinal, card_of, eval_arith
from bzfc.cli import main
from bzfc.parareal import ParaReal
from bzfc.sets import Atom, Nat, NCSet, Pair, Tag, parse_ncset

ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True)


def printed(argv: list[str]) -> str:
    """What ``main(argv)`` prints, less the final newline; it must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue().removesuffix("\n")


def argument(text: str) -> list[str]:
    """``text`` as the last command-line argument.  argparse reads an
    argument that starts with ``--`` (the formula ``--p``) as an option,
    so, as README says, it goes after ``--``."""
    return ["--", text] if text.startswith("--") else [text]


# -- formulas ----------------------------------------------------------------

NAMES = ("x", "y", "c", "A", "B")
VAR = st.sampled_from(("x", "y", "z"))
TERM = st.sampled_from(NAMES).map(fm.Term)
UNARY = [node for node in fm.CONNECTIVES.values() if issubclass(node, fm.Unary)]
BINARY = [node for node in fm.CONNECTIVES.values() if issubclass(node, fm.Binary)]
BINDER = st.sampled_from((fm.Forall, fm.Exists))

FORMULA = st.recursive(
    st.one_of(st.builds(fm.Membership, TERM, TERM), st.builds(fm.Equality, TERM, TERM),
              st.just(fm.Bottom()), st.sampled_from(NAMES).map(fm.Prop)),
    lambda inner: st.one_of(
        st.builds(lambda node, body: node(body), st.sampled_from(UNARY), inner),
        st.builds(lambda node, left, right: node(left, right), st.sampled_from(BINARY),
                  inner, inner),
        st.builds(lambda node, var, body: node(var, body), BINDER, VAR, inner),
        st.builds(fm.desugar, BINDER, VAR, TERM, inner)),
    max_leaves=30)


@ROUND_TRIP
@given(f=FORMULA)
def test_printed_formulas_reparse(f):
    out = printed(["parse", *argument(fm.render(f))])
    assert fm.parse(out) == f
    assert printed(["parse", *argument(out)]) == out


# -- sets, cardinals and para-reals ------------------------------------------

ELEMENT = st.recursive(
    st.one_of(st.sampled_from(("a", "b", "o", "in")).map(Atom), st.integers(0, 12).map(Nat)),
    lambda inner: st.one_of(st.builds(Pair, inner, inner),
                            st.builds(Tag, inner, st.integers(0, 3))),
    max_leaves=4)
NCSET = st.lists(st.tuples(ELEMENT, st.integers(0, 2)), max_size=6,
                 unique_by=lambda item: item[0]).map(
    lambda items: NCSet(*([e for e, part in items if part == i] for i in range(3))))

CLASSICAL = st.one_of(st.integers(0, 9), st.integers(0, 3).map(Aleph))
CARDINAL = st.builds(Cardinal, CLASSICAL, CLASSICAL, CLASSICAL)
RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
PARA_REAL = st.builds(ParaReal, RATIONAL, RATIONAL, RATIONAL)


@ROUND_TRIP
@given(s=NCSET)
def test_set_literals_reparse(s):
    assert parse_ncset(str(s)) == s


@ROUND_TRIP
@given(s=NCSET)
def test_printed_cardinals_of_sets_reparse(s):
    out = printed(["card", str(s)])
    assert eval_arith(out) == card_of(s)
    assert printed(["arith", out]) == out


@ROUND_TRIP
@given(left=CARDINAL, op=st.sampled_from("+*"), right=CARDINAL)
def test_printed_cardinals_reparse(left, op, right):
    out = printed(["arith", f"({left}) {op} ({right})"])
    assert eval_arith(out) == (left + right if op == "+" else left * right)
    assert printed(["arith", out]) == out


@ROUND_TRIP
@given(left=PARA_REAL, op=st.sampled_from("+-*"), right=PARA_REAL)
def test_printed_para_reals_reparse(left, op, right):
    out = printed(["arith", "--real", f"({left}) {op} ({right})"])
    assert eval_arith(out, real=True) == {"+": left + right, "-": left - right,
                                          "*": left * right}[op]
    assert printed(["arith", "--real", *argument(out)]) == out


@settings(ROUND_TRIP, max_examples=30)
@given(bounds=st.tuples(*[st.integers(0, 3)] * 3))
def test_lattice_labels_reparse(bounds):
    out = printed(["lattice", *map(str, bounds)])
    labels = set(re.findall(r'"([^"]*)"', out))
    assert len(labels) == (bounds[0] + 1) * (bounds[1] + 1) * (bounds[2] + 1)
    for label in labels:
        assert isinstance(eval_arith(label), Cardinal)
        assert printed(["arith", label]) == label
