"""The independent references, against tables written out by hand."""

import itertools
from fractions import Fraction

import pytest

import reference as ref

VALUES = "tbnf"

# Row x, column y, both in the order t b n f: the value of (x op y).
BINARY_TABLES = {
    "/\\": ("tbnf", "bbff", "nfnf", "ffff"),
    "&": ("tbnf", "tbnf", "ffff", "ffff"),
    "\\/": ("tttt", "tbtb", "ttnn", "tbnf"),
    "->": ("tbnf", "tbnf", "tttt", "tttt"),
    "=>": ("tfnf", "tbnf", "tntn", "tttt"),
    "<->": ("tbnf", "bbnf", "nntt", "fftt"),
    "<=>": ("tfnf", "fbnf", "nntn", "ffnt"),
}
# The value of (op x) for x = t b n f.
UNARY_TABLES = {"~": "fbnt", "-": "fftt", "!": "ttff", "?": "tftf", "o": "tfft"}


def _eval(f, **letters):
    env = {name: ref.FLAGS_OF[v] for name, v in letters.items()}
    return ref.verdict(f, env=env)


@pytest.mark.parametrize("op", sorted(BINARY_TABLES))
def test_binary_sixteen_cells(op):
    f = (op, ("letter", "p"), ("letter", "q"))
    for (i, x), (j, y) in itertools.product(enumerate(VALUES), repeat=2):
        assert _eval(f, p=x, q=y) == BINARY_TABLES[op][i][j], (op, x, y)


@pytest.mark.parametrize("op", sorted(UNARY_TABLES))
def test_unary_four_cells(op):
    for i, x in enumerate(VALUES):
        assert _eval((op, ("letter", "p")), p=x) == UNARY_TABLES[op][i], (op, x)


def test_false_and_atoms():
    a = ref.RSet(frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    m = ref.RModel(("a", "b", "c", "d", a), {"A": a, "a": "a", "b": "b", "c": "c", "d": "d"})
    assert ref.verdict(("false",)) == "f"
    assert [ref.verdict(("in", x, "A"), m) for x in "abcd"] == ["b", "t", "n", "f"]
    assert ref.verdict(("in", "A", "A"), m) == "f"      # a set is not a member
    assert ref.verdict(("=", "a", "a"), m) == "t"
    assert ref.verdict(("=", "a", "A"), m) == "f"       # an element is not a set
    assert ref.verdict(("=", "A", "A"), m) == "b"       # inconsistent sets differ from themselves


def test_quantifier_clauses():
    a = ref.RSet(frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    m = ref.RModel(("a", "b", "c", "d"), {"A": a})
    body = ("in", "x", "A")
    assert ref.verdict(("forall", "x", body), m) == "f"  # d is plainly out
    assert ref.verdict(("exists", "x", body), m) == "t"  # b is plainly in
    # forall x in A . x in A: true throughout, and false at the
    # inconsistent member a, where the implication is b.
    assert ref.verdict(("forall_in", "x", "A", body), m) == "b"
    assert ref.verdict(("exists_in", "x", "A", ("~", body)), m) == "b"
    with pytest.raises(ValueError):
        ref.verdict(("forall", "x", body), ref.RModel((), {"A": a}))


def test_render_is_fully_parenthesised():
    f = ("forall_in", "x", "A", ("->", ("o", ("in", "x", "A")), ("~", ("letter", "p"))))
    assert ref.render(f) == "(forall x in A . (o (x in A) -> ~(p)))"


F = Fraction


def test_unit_products():
    one, b, n = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    assert ref.t_mul(b, b) == b
    assert ref.t_mul(n, n) == n
    assert ref.t_mul(b, n) == (0, 0, 0)
    assert ref.t_mul(one, b) == b
    # (1 + b)(2 + n) = 2 + 2b + n
    assert ref.t_mul((F(1), F(1), F(0)), (F(2), F(0), F(1))) == (2, 2, 1)


def test_aleph_absorption():
    a0, a3 = ref.Aleph(0), ref.Aleph(3)
    assert ref.evaluate_expr(("+", ("aleph", 0), ("num", 5))) == (a0, 0, 0)
    assert ref.evaluate_expr(("+", ("aleph", 3), ("aleph", 0))) == (a3, 0, 0)
    assert ref.evaluate_expr(("*", ("aleph", 3), ("num", 0))) == (0, 0, 0)
    assert ref.evaluate_expr(("*", ("aleph", 0), ("b",))) == (0, a0, 0)
    assert ref.evaluate_expr(("*", ("aleph", 0), ("unit", 2, "n"))) == (0, 0, a0)


def test_para_real_inverse_and_division():
    x = (F(3), F(-1), F(2))
    inv = ref.t_inverse(x)
    assert ref.t_mul(x, inv) == (1, 0, 0)
    assert ref.t_inverse((F(1), F(-1), F(0))) is None   # t + b = 0
    assert ref.evaluate_expr(("/", ("num", 3), ("num", 2))) == (F(3, 2), 0, 0)
    with pytest.raises(ZeroDivisionError):
        ref.evaluate_expr(("/", ("num", 1), ("b",)))
    assert ref.evaluate_expr(("-", ("b",), ("b",))) == (0, 0, 0)


@pytest.mark.parametrize("text,triple", [
    ("0", (0, 0, 0)),
    ("3 + 2b + n", (3, 2, 1)),
    ("aleph0 + b", (ref.Aleph(0), 1, 0)),
    ("aleph2 b + aleph0 n", (0, ref.Aleph(2), ref.Aleph(0))),
    ("3/2 + 1/3 b - 2 n", (F(3, 2), F(1, 3), -2)),
    ("-b", (0, -1, 0)),
])
def test_parse_triple(text, triple):
    assert ref.parse_triple(text) == triple


@pytest.mark.parametrize("text", ["3 +", "b b", "2 x"])
def test_parse_triple_rejects(text):
    with pytest.raises(ValueError):
        ref.parse_triple(text)
