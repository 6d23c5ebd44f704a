"""Concrete syntax: parsing, restricted binders, rendering, round trips."""

import random

import pytest

from helpers import random_formula
from bzfc import formula as fm
from bzfc.checker import Model, evaluate
from bzfc.cli import main
from bzfc.errors import ParseError
from bzfc.formula import (Amp, Bang, Bottom, CNeg, Circ, Conj, Disj, Equality,
                          Exists, Forall, Iff, Imp, Membership, Neg, Prop, Query,
                          StrongIff, StrongImp, desugar, parse, render)
from bzfc.sets import Atom, NCSet

x, y = "x", "y"
A = "A"


class TestParsing:
    def test_membership(self):
        assert parse("x in A") == Membership(x, A)

    def test_negated_restricted_exists(self):
        got = parse("~ exists y in A . y = x")
        assert got == Neg(Exists("y", Amp(Membership(y, A), Equality(y, x))))

    def test_notin_is_negated_membership(self):
        assert parse("x notin A") == Neg(Membership(x, A))

    def test_neq_is_negated_equality(self):
        assert parse("x != y") == Neg(Equality(x, y))

    def test_bottom(self):
        assert parse("false") == Bottom()

    def test_proposition_letters(self):
        assert parse("p & q") == Amp(Prop("p"), Prop("q"))

    def test_case_of_a_name_has_no_effect(self, tmp_path, capsys):
        assert parse("X in a") == Membership("X", "a")
        c = Atom("c")
        model = Model([Atom("a"), c], {"A": NCSet(set(), {c}, set())})
        assert evaluate(parse("forall X . X in A"), model) == evaluate(
            parse("forall x . x in A"), model)
        session = tmp_path / "s.session"
        session.write_text("let s = <{}|{c}|{}>\n")
        assert main(["eval", "c in s", "--session", str(session)]) == 0
        assert capsys.readouterr().out == "t\n"

    def test_prefix_connectives(self):
        assert parse("~p") == Neg(Prop("p"))
        assert parse("-p") == CNeg(Prop("p"))
        assert parse("!p") == Bang(Prop("p"))
        assert parse("?p") == Query(Prop("p"))
        assert parse("o p") == Circ(Prop("p"))
        assert parse("~-!?o p") == Neg(CNeg(Bang(Query(Circ(Prop("p"))))))

    def test_binary_connectives(self):
        assert parse("p /\\ q") == Conj(Prop("p"), Prop("q"))
        assert parse("p & q") == Amp(Prop("p"), Prop("q"))
        assert parse("p \\/ q") == Disj(Prop("p"), Prop("q"))
        assert parse("p -> q") == Imp(Prop("p"), Prop("q"))
        assert parse("p => q") == StrongImp(Prop("p"), Prop("q"))
        assert parse("p <-> q") == Iff(Prop("p"), Prop("q"))
        assert parse("p <=> q") == StrongIff(Prop("p"), Prop("q"))

    def test_precedence_ladder(self):
        assert parse("~p & q") == Amp(Neg(Prop("p")), Prop("q"))
        assert parse("p & q \\/ r") == Disj(Amp(Prop("p"), Prop("q")), Prop("r"))
        assert parse("p \\/ q -> r") == Imp(Disj(Prop("p"), Prop("q")), Prop("r"))
        assert parse("p -> q <-> r") == Iff(Imp(Prop("p"), Prop("q")), Prop("r"))

    def test_and_or_left_associative(self):
        assert parse("p & q /\\ r") == Conj(Amp(Prop("p"), Prop("q")), Prop("r"))
        assert parse("p \\/ q \\/ r") == Disj(Disj(Prop("p"), Prop("q")), Prop("r"))

    def test_implication_right_associative(self):
        assert parse("p -> q -> r") == Imp(Prop("p"), Imp(Prop("q"), Prop("r")))
        assert parse("p -> q => r") == Imp(Prop("p"), StrongImp(Prop("q"), Prop("r")))

    def test_iff_does_not_chain(self):
        with pytest.raises(ParseError):
            parse("p <-> q <-> r")

    def test_quantifier_body_extends_right(self):
        got = parse("forall x . p -> q")
        assert got == Forall("x", Imp(Prop("p"), Prop("q")))
        got = parse("p & exists x . q \\/ r")
        assert got == Amp(Prop("p"), Exists("x", Disj(Prop("q"), Prop("r"))))

    def test_restricted_forall_desugars_to_implication(self):
        got = parse("forall x in A . x = y")
        assert got == Forall("x", Imp(Membership(x, A), Equality(x, y)))

    def test_restricted_exists_desugars_to_amp(self):
        got = parse("exists x in A . x = y")
        assert got == Exists("x", Amp(Membership(x, A), Equality(x, y)))

    def test_parentheses(self):
        assert parse("p & (q \\/ r)") == Amp(Prop("p"), Disj(Prop("q"), Prop("r")))

    def test_error_position_and_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse("p & ")
        assert exc.value.position == 4
        assert "formula" in exc.value.expected
        with pytest.raises(ParseError) as exc:
            parse("p q")
        assert exc.value.position == 2
        with pytest.raises(ParseError) as exc:
            parse("p # q")
        assert exc.value.position == 2


class TestDesugaring:
    def test_desugar_restricted(self):
        got = desugar(Exists, "x", A, Equality(x, y))
        assert got == Exists("x", Amp(Membership(x, A), Equality(x, y)))
        assert desugar(Forall, "x", A, Bottom()) == Forall("x", Imp(Membership(x, A), Bottom()))
        got = desugar(Forall, "x", "A", Prop("p"))  # the bound is the set's name
        assert got == Forall("x", Imp(Membership("x", "A"), Prop("p")))


class TestRendering:
    def test_bottom(self):
        assert render(Bottom()) == "false"

    def test_amp_renders_with_ampersand(self):
        assert render(Amp(Prop("a"), Prop("b"))) == "a & b"

    def test_minimal_parentheses(self):
        assert render(parse("p & q \\/ r")) == "p & q \\/ r"
        assert render(parse("p & (q \\/ r)")) == "p & (q \\/ r)"
        assert render(parse("~(p & q)")) == "~(p & q)"
        assert render(parse("p -> q -> r")) == "p -> q -> r"
        assert render(parse("(p -> q) -> r")) == "(p -> q) -> r"

    def test_negated_atoms_render_as_their_abbreviations(self):
        assert render(parse("x notin A")) == "x notin A"
        assert render(parse("x != y")) == "x != y"

    def test_round_trip_on_random_formulas(self):
        for seed, count in ((7, 1000), (8, 300)):
            rng = random.Random(seed)
            for _ in range(count):
                f = random_formula(rng)
                parsed = parse(render(f))
                assert parsed == f
                stack = [parsed]
                while stack:  # every name in an atom is a str
                    g = stack.pop()
                    if isinstance(g, (Membership, Equality)):
                        assert type(g.left) is str and type(g.right) is str, g
                    elif isinstance(g, fm.Binary):
                        stack += g.left, g.right
                    elif isinstance(g, (fm.Unary, fm.Quantifier)):
                        stack.append(g.body)
