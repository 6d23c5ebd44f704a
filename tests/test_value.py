"""The immutable value classes: equality, hashing, immutability, copying."""

import copy
import cProfile
import importlib
import inspect
import pickle
import pkgutil
import pstats
import subprocess
import sys

import pytest

import bzfc
from bzfc.cardinal import Aleph, Cardinal
from bzfc.checker import Model
from bzfc.errors import DisjointnessViolation
from bzfc.formula import Bottom, CNeg, Neg, Prop, parse
from bzfc.parareal import ParaReal
from bzfc.sets import Atom, ClassicalFn, Nat, NCSet, Pair, Tag, parse_ncset
from bzfc.truth import B, T, TruthValue
from bzfc.value import Value

# Every module but __main__, which would run the CLI, so that every value
# class exists.
MODULES = [importlib.import_module(f"bzfc.{m.name}")
           for m in pkgutil.iter_modules(bzfc.__path__) if m.name != "__main__"]

VALUES = [
    Atom("a"), Nat(3), Pair(Atom("a"), Nat(1)), Tag(Atom("a"), 2),
    parse_ncset("<{a,(b,1)}|{c@2}|{4}>"),
    parse("forall x . x in A -> ~p & o q"), Bottom(),
    Cardinal(1, 0, 2), ParaReal("1/2", -1, 3), Aleph(2), T,
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
    assert Neg(p) == Neg(Prop("p"))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal(value):
    twin = copy.copy(value)
    assert twin == value and hash(twin) == hash(value)
    assert value != object()


@pytest.mark.parametrize("value, field", [
    (Atom("a"), "name"), (Pair(Atom("a"), Nat(1)), "right"),
    (parse_ncset("<{a}|{}|{}>"), "bpart"), (Neg(Prop("p")), "body"), (Bottom(), "body"),
    (Cardinal(1, 0, 2), "kt"), (ParaReal(1), "xn"), (T, "assertable"),
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


def value_classes(cls: type = Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from value_classes(sub)


def test_derived_constructors_take_the_fields_in_order():
    with_fields = {cls for cls in value_classes()
                   if cls.__module__.startswith("bzfc.") and cls.__dict__.get("__slots__")}
    derived = {cls for cls in with_fields if cls.__init__ is cls._assign}
    assert {cls.__name__ for cls in derived} == {
        "Prop", "Unary", "Binary", "Membership", "Equality", "Quantifier",
        "Atom", "Nat", "Pair", "Tag", "_Pebble"}
    assert {cls.__name__ for cls in with_fields - derived} == {
        "Aleph", "Cardinal", "NCSet", "ParaReal", "Model", "TruthValue"}
    for cls in derived:
        assert tuple(inspect.signature(cls).parameters) == cls._fields


def test_one_constructor_is_compiled_per_tuple_of_fields():
    # Each tuple is compiled once as the package is imported, and each
    # compile adds to its import time.
    code = ("import importlib, pkgutil, bzfc\n"
            "for m in pkgutil.iter_modules(bzfc.__path__):\n"
            "    if m.name != '__main__': importlib.import_module(f'bzfc.{m.name}')\n"
            "print(bzfc.value._methods.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    # The 12 field tuples of the value classes, and the empty tuple of
    # ``Value``'s own ``==`` and hash.
    assert proc.stdout == "13\n"


def test_generated_comparisons():
    # Separately built values with no field, one, two and three fields.
    for make in (Bottom, lambda: Atom("a"), lambda: Pair(Atom("a"), Nat(1)),
                 lambda: Cardinal(1, 0, 2)):
        value, twin = make(), make()
        assert value is not twin and value == twin and hash(value) == hash(twin)
    assert Atom("a").__eq__(Nat(1)) is NotImplemented
    assert Prop("p") != Atom("p")  # the same fields, not the same class
    # One exec per tuple of fields defines all three.
    assert Pair.__eq__.__globals__ is Pair.__hash__.__globals__ is Pair._assign.__globals__
    assert TruthValue.__eq__ is object.__eq__ and TruthValue.__hash__ is object.__hash__


def test_profiles_key_each_tuple_of_fields_apart():
    # cProfile files a function under (file, line, name), so the one-field
    # classes' hashes would share one key if they shared a file name.
    atom, nat = Atom("a"), Nat(1)
    profile = cProfile.Profile()
    profile.runcall(lambda: (hash(atom), hash(nat)))
    hashes = [key for key in pstats.Stats(profile).stats if key[2] == "__hash__"]
    assert len(hashes) == 2


@pytest.mark.parametrize("make, field", [(lambda: Atom(), "name"), (lambda: Pair(Atom("a")), "right")])
def test_a_missing_field_is_named(make, field):
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{field}'"):
        make()


class PlainAleph(Aleph):
    __slots__ = ()


class PlainSet(NCSet):
    __slots__ = ()


def test_a_subclass_without_fields_keeps_its_parents_checks():
    assert PlainAleph(2).index == 2
    with pytest.raises(ValueError):
        PlainAleph(16)
    assert PlainSet({Atom("a")}).bang_ext == {Atom("a")}
    with pytest.raises(DisjointnessViolation):
        PlainSet({Atom("a")}, {Atom("a")})


def test_truth_values_are_returned_not_rebuilt(monkeypatch):
    # Count the field writes of the (assertable, deniable) constructor.
    writes = []
    monkeypatch.setitem(TruthValue._assign.__globals__, "_set", lambda *args: writes.append(args))
    assert TruthValue(True, True) is B
    assert writes == []
    B._assign(True, True)
    assert len(writes) == 2
