"""Fuzzing the exit-code contract of the command line.

``cli.main(argv)`` runs in-process on random text and on text shaped by
each grammar, for every subcommand.  Whatever the input, it returns 0, 2,
3 or 4 (5 is kept for a failed self-check), and stderr holds nothing on
success and exactly one ``error:`` line otherwise: never a traceback,
never argparse's usage text.

Formula text uses at most six names, so ``valid`` checks at most 4**6
assignments, and ``check`` runs at most five cases per suite; the
examples are derandomized, so every run tries the same inputs.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bzfc.cli import main

# Examples may share a test's tmp_path: each only reads the fixture's
# session file, or rewrites its own before use.
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SESSION = """\
# two sets and a universe that names one of them
let A = <{a}|{b}|{c}>
let B = <{a,(a,1)}|{}|{b@2}>
universe a b c A
"""


def assert_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as done:  # only --help leaves main this way
            code = done.code
            assert code == 0, (argv, code)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (argv, code, lines)
    if code == 0:
        assert lines == [], (argv, lines)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, code, lines)


def soup(tokens) -> st.SearchStrategy[str]:
    """Grammar tokens in any order: the inputs that reach deep parse errors."""
    return st.lists(st.sampled_from(tokens), max_size=14).map(" ".join)


RANDOM = st.text(max_size=12)

# -- formulas ----------------------------------------------------------------

NAMES = ("p", "q", "r", "x", "A", "B")  # every name, as term or letter: six at most
NAME = st.sampled_from(NAMES)
BINARY = ("&", "/\\", "\\/", "->", "=>", "<->", "<=>")


def _formula_step(inner):
    return st.one_of(
        st.builds("{}{}".format, st.sampled_from(["~", "-", "!", "?", "o "]), inner),
        st.builds("({} {} {})".format, inner, st.sampled_from(BINARY), inner),
        st.builds("{} {} . {}".format, st.sampled_from(["forall", "exists"]), NAME, inner),
        st.builds("{} {} in {} . {}".format, st.sampled_from(["forall", "exists"]),
                  NAME, NAME, inner))


FORMULA = st.one_of(
    st.recursive(
        st.one_of(NAME, st.just("false"),
                  st.builds("{} {} {}".format, NAME,
                            st.sampled_from(["in", "notin", "=", "!="]), NAME)),
        _formula_step, max_leaves=8),
    soup(NAMES + BINARY + ("~", "-", "!", "?", "o", "(", ")", ".", "=", "!=", "in",
                           "notin", "false", "forall", "exists")),
    RANDOM)

# -- set and element literals ------------------------------------------------

ELEMENT = st.recursive(
    st.one_of(st.sampled_from(["a", "b", "c"]), st.integers(0, 3).map(str)),
    lambda inner: st.one_of(st.builds("({}, {})".format, inner, inner),
                            st.builds("{}@{}".format, inner, st.integers(0, 2))),
    max_leaves=4)
PART = st.lists(ELEMENT, max_size=3).map(lambda items: "{" + ", ".join(items) + "}")
SET = st.one_of(
    st.builds("<{}|{}|{}>".format, PART, PART, PART),
    st.builds("<{}|{}>".format, PART, PART),
    st.sampled_from(["A", "B", "C"]),
    soup(("<", ">", "{", "}", "|", ",", "(", ")", "@", "a", "b", "1")),
    st.text(max_size=30))

# -- arithmetic ----------------------------------------------------------------

EXPR = st.one_of(
    st.recursive(
        st.sampled_from(["0", "1", "2", "b", "n", "aleph0", "aleph1", "3 b", "2 n"]),
        lambda inner: st.one_of(
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})".format, inner),
            st.builds("-{}".format, inner)),
        max_leaves=6),
    soup(("+", "-", "*", "/", "(", ")", "b", "n", "0", "1", "aleph0")),
    RANDOM)


# -- the tests ------------------------------------------------------------------


@pytest.fixture
def session_file(tmp_path):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    return str(path)


@FUZZ
@given(command=st.sampled_from(["parse", "eval", "valid"]), text=FORMULA,
       with_session=st.booleans())
def test_formula_commands(session_file, command, text, with_session):
    session = ["--session", session_file] if with_session and command == "eval" else []
    assert_contract([command, text, *session])


@FUZZ
@given(a=SET, b=SET, with_session=st.booleans())
def test_set_commands(session_file, a, b, with_session):
    session = ["--session", session_file] if with_session else []
    assert_contract(["cmp", a, b, *session])
    assert_contract(["card", a, *session])


@FUZZ
@given(text=EXPR, real=st.booleans())
def test_arith(text, real):
    assert_contract(["arith", "--real", text] if real else ["arith", text])


@FUZZ
@given(bounds=st.lists(st.one_of(st.integers(-1, 7).map(str), RANDOM), min_size=3, max_size=3))
def test_lattice(bounds):
    assert_contract(["lattice", *bounds])


@settings(FUZZ, max_examples=25)
@given(seed=st.one_of(st.integers(0, 2**64).map(str), RANDOM),
       cases=st.one_of(st.integers(-1, 5).map(str), RANDOM))
def test_check(seed, cases):
    assert_contract(["check", "--seed", seed, "--cases", cases])


SESSION_LINE = st.one_of(
    st.builds("let {} = {}".format, NAME, SET),
    st.builds("universe {}".format,
              st.lists(st.one_of(ELEMENT, st.sampled_from(["A", "B"])), max_size=4).map(" ".join)),
    st.just("# a comment"), st.just(""), RANDOM)


@FUZZ
@given(lines=st.lists(SESSION_LINE, max_size=5), text=FORMULA)
def test_session_files(tmp_path, lines, text):
    path = tmp_path / "fuzz.session"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_contract(["eval", text, "--session", str(path)])


@FUZZ
@given(argv=st.lists(st.one_of(
    st.sampled_from(["parse", "eval", "valid", "cmp", "card", "arith", "lattice",
                     "--real", "--session", "--seed", "--cases", "-h", "--", "-"]),
    RANDOM), max_size=5))
def test_any_command_line(argv):
    # No "check": alone it would run its default 200 cases per suite.
    assert_contract(argv)
