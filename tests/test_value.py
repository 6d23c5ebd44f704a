"""The immutable value classes: equality, hashing, immutability, copying."""

import copy
import pickle
import subprocess
import sys

import pytest

from bzfc.cardinal import Cardinal, Fin
from bzfc.checker import Model
from bzfc.formula import Bottom, CNeg, Const, Neg, Prop, Var, parse
from bzfc.parareal import ParaReal
from bzfc.sets import Atom, ClassicalFn, Nat, NCSet, Pair, Tag, parse_ncset
from bzfc.truth import T

VALUES = [
    Atom("a"), Nat(3), Pair(Atom("a"), Nat(1)), Tag(Atom("a"), 2),
    parse_ncset("<{a,(b,1)}|{c@2}|{4}>"),
    parse("forall x . x in A -> ~p & o q"), Bottom(),
    Cardinal(Fin(1), Fin(0), Fin(2)), ParaReal("1/2", -1, 3),
    pytest.param(NCSet.from_extensions({Atom("a"), Nat(1)}, {Nat(1), Atom("b")}),
                 id="NCSet-from_extensions"),
    pytest.param(ClassicalFn({Atom("a"): Nat(0), Atom("b"): Nat(0)}).image(
        parse_ncset("<{a}|{b}|{}>")), id="NCSet-image"),
]


def test_import_does_not_load_dataclasses():
    # A bare `import bzfc` loads no module, so load them all: the homes of
    # the exported names, the CLI and the self-check suites.
    code = ("import sys; from bzfc import *; import bzfc.cli, bzfc.selfcheck; "
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_equality_needs_the_same_class():
    p = Prop("p")
    assert Neg(p) != CNeg(p)
    assert Var("x") != Const("x")
    assert Neg(p) == Neg(Prop("p"))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal(value):
    twin = copy.copy(value)
    assert twin == value and hash(twin) == hash(value)
    assert value != object()


@pytest.mark.parametrize("value, field", [
    (Atom("a"), "name"), (Pair(Atom("a"), Nat(1)), "right"),
    (parse_ncset("<{a}|{}|{}>"), "bpart"), (Neg(Prop("p")), "body"), (Bottom(), "body"),
    (Cardinal(Fin(1), Fin(0), Fin(2)), "kt"), (ParaReal(1), "xn"), (T, "assertable"),
    (Model([Atom("a")]), "env"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_copies_and_pickles_are_equal(value):
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_model_copies():
    model = Model([Atom("a")], {"A": parse_ncset("<{a}|{}|{}>")})
    assert copy.deepcopy(model) == model


def test_repr_names_the_fields():
    assert repr(Pair(Atom("a"), Nat(1))) == "Pair(left=Atom(name='a'), right=Nat(value=1))"
    assert repr(Bottom()) == "Bottom()"
