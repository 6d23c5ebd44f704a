"""Formula evaluation over finite models, against an independent
two-relation satisfaction recursion, plus propositional validity."""

import itertools
import random
import sys

import pytest

from helpers import (expand_defined, random_closed_formula, random_formula, random_model, sat_neg, sat_pos,
                     truth_value_by_satisfaction)
from bzfc import checker
from bzfc import formula as fm
from bzfc.checker import Model, eval_prop, evaluate, valid_prop
from bzfc.cli import main
from bzfc.errors import GuardError, GuardExceeded, NotPropositional, UnresolvedName
from bzfc.formula import Exists, Forall, Neg, parse
from bzfc.sets import Atom, NCSet
from bzfc.truth import ALL_VALUES, B, F, N, T, TruthValue, neg

a, b, c = Atom("a"), Atom("b"), Atom("c")


def model_with(sets: dict, universe=None, atoms=(a, b, c)) -> Model:
    env = {atom.name: atom for atom in atoms}
    env.update(sets)
    if universe is None:
        universe = list(atoms)
    return Model(universe, env)


class TestEvaluation:
    def test_membership_in_inconsistent_set(self):
        m = model_with({"A": NCSet({a}, set(), set())})
        assert evaluate(parse("a in A"), m) == B

    def test_forall_over_single_classical_member(self):
        big_a = NCSet(set(), {c}, set())
        m = model_with({"A": big_a}, universe=[c])
        assert evaluate(parse("forall x . x in A"), m) == T

    def test_negated_restricted_exists(self):
        big_a = NCSet(set(), {c}, set())
        m = model_with({"A": big_a}, universe=[a, b, c])
        assert evaluate(parse("~ exists x in A . x = c"), m) == F

    def test_bottom_is_false_everywhere(self):
        for _ in range(5):
            m = random_model(random.Random(_))
            assert evaluate(parse("false"), m) == F

    def test_unresolved_constant(self):
        with pytest.raises(UnresolvedName):
            evaluate(parse("a in Missing"), model_with({}))

    def test_membership_with_non_set_right_operand_is_false(self):
        m = model_with({})
        assert evaluate(parse("a in b"), m) == F

    def test_set_is_never_a_member(self):
        m = model_with({"A": NCSet({a}, set(), set()), "B": NCSet(set(), {a}, set())})
        assert evaluate(parse("A in B"), m) == F

    def test_equality_of_elements_is_classical(self):
        m = model_with({})
        assert evaluate(parse("a = a"), m) == T
        assert evaluate(parse("a = b"), m) == F
        assert evaluate(parse("a != b"), m) == T

    def test_equality_of_sets_is_four_valued(self):
        s = NCSet({a}, {b}, {c})
        m = model_with({"A": s, "B": s})
        assert evaluate(parse("A = B"), m) == B

    def test_equality_between_element_and_set_is_plainly_false(self):
        m = model_with({"A": NCSet(set(), {a}, set())})
        assert evaluate(parse("a = A"), m) == F
        assert evaluate(parse("A = a"), m) == F

    def test_empty_universe_guards_quantifiers(self):
        m = Model((), {"a": a, "A": NCSet(set(), {a}, set())})
        assert evaluate(parse("a in A"), m) == T  # no quantifier, no universe needed
        with pytest.raises(GuardError, match="empty universe"):
            evaluate(parse("forall x . x in A"), m)


class TestEngine:
    """Cases a wrong compile of the formula would get wrong."""

    def test_rebinding_takes_a_fresh_slot(self):
        # The inner x shadows the outer one; numbering slots by the number
        # of names in scope would give z the inner x's slot and read t.
        m = model_with({}, universe=[a, b], atoms=(a, b))
        assert evaluate(parse("forall x . exists x . forall z . x = z"), m) == F
        assert evaluate(parse("forall x . exists x . exists z . x = z"), m) == T
        assert evaluate(parse("exists x . forall y . exists x . x = y"), m) == T

    @pytest.mark.parametrize("text, error, code", [
        ("forall x . Z in A", GuardError, 4),
        ("Z in A /\\ forall x . x in A", UnresolvedName, 3),
        ("(forall x . x in A) /\\ Z in A", GuardError, 4),
        ("exists x . p", GuardError, 4),
    ])
    def test_errors_come_in_evaluation_order(self, capsys, text, error, code):
        # Over an empty universe, a quantifier raises before its body is
        # reached; an unresolved name raises only once it is reached.
        with pytest.raises(error):
            evaluate(parse(text), Model((), {"A": NCSet()}))
        assert main(["eval", text]) == code
        assert capsys.readouterr().err.count("error:") == 1

    def test_unresolved_names_in_order(self):
        m = model_with({}, universe=[a])
        for text, name in [("Y in Z", "Y"), ("a in Z /\\ Y in A", "Z"),
                           ("forall x . x = Y", "Y"), ("p /\\ Q in A", "p")]:
            with pytest.raises(UnresolvedName) as raised:
                evaluate(parse(text), m)
            assert raised.value.name == name, text

    @pytest.mark.parametrize("text, node", [
        ("p /\\ ~(x in A) \\/ forall y . q", "Membership"),
        ("(exists y . q) -> x = y", "Exists"),
        ("-p <-> q & a != b", "Equality"),
    ])
    def test_not_propositional_names_the_leftmost_node(self, text, node):
        with pytest.raises(NotPropositional, match=f"found {node}$"):
            valid_prop(parse(text))
        with pytest.raises(NotPropositional, match=f"found {node}$"):
            eval_prop(parse(text), {"p": T, "q": T})

    def test_restricted_binders_without_parsing(self):
        m = model_with({"A": NCSet({a}, {b}, set())})
        for kind, plain in [(fm.Forall, "forall x . x in A -> x = a"),
                            (fm.Exists, "exists x . x in A & x = a")]:
            built = fm.desugar(kind, "x", "A", fm.Equality("x", "a"))
            assert evaluate(built, m) == evaluate(parse(plain), m)
        with pytest.raises(NotPropositional, match="found Forall$"):
            eval_prop(fm.desugar(fm.Forall, "x", "A", fm.Prop("p")), {"p": T})

    def test_one_variable_atoms_are_tabulated(self, monkeypatch):
        # An atom over one bound variable takes one member_tv call per
        # universe entry (2 rows of 6), not one per instance (2 x 36).
        calls = []
        member_tv = NCSet.member_tv
        monkeypatch.setattr(NCSet, "member_tv", lambda s, x: calls.append(x) or member_tv(s, x))
        atoms = [Atom(name) for name in "abcdef"]
        m = Model(atoms, {"A": NCSet({atoms[0]}, atoms[1:], ())})
        assert evaluate(parse("forall x . forall y . x in A /\\ y in A"), m) == B
        assert len(calls) <= 12


class TestCodes:
    """The engine runs on codes 0-3 and universe positions, and turns
    codes back into truth values only in its results."""

    def test_no_truth_value_is_hashed_per_assignment(self, monkeypatch):
        # Tables keyed by TruthValue hash one on every node run, 4**k
        # times per node; tables indexed by code hash none.
        hashes = []
        monkeypatch.setattr(TruthValue, "__hash__", lambda v: hashes.append(v) or object.__hash__(v))
        counts = []
        for k in (3, 6):
            letters = [f"p{i}" for i in range(k)]
            assert valid_prop(parse("(" + " /\\ ".join(letters) + ") -> p0")) == (True, None)
            counts.append(len(hashes))
            hashes.clear()
        assert counts[0] == counts[1], counts

    def test_results_are_the_four_truth_values(self):
        rng = random.Random(16)
        entry, copy = NCSet({a}, {b}, {c}), NCSet({a}, {b}, {c})
        env = {"a": a, "b": b, "A": entry, "B": NCSet(set(), {a, b}, set())}
        twice = [Model([a, a, b, entry, entry], env), Model([a, Atom("a"), b, entry, copy], env)]
        for i in range(300):
            m = twice[i % 2] if i % 3 == 0 else random_model(rng)
            f = random_closed_formula(rng, ["a", "b", "A", "B"])
            assert any(evaluate(f, m) is value for value in ALL_VALUES), fm.render(f)
        for _ in range(300):
            f = random_prop(rng, "pqr", rng.randint(1, 4))
            letters = fm.prop_letters(f)
            assignment = dict(zip(letters, rng.choices(ALL_VALUES, k=len(letters))))
            assert any(eval_prop(f, assignment) is value for value in ALL_VALUES), fm.render(f)
            ok, witness = valid_prop(f)
            assert ok == (witness is None)
            assert all(type(value) is TruthValue for value in (witness or {}).values())


WORK_ERROR = "error: the formula needs more than 8,388,608 node evaluations (the work limit)"


def nest(depth: int, body: str) -> str:
    return "".join(f"forall x{i} . " for i in range(depth)) + body


class TestInstanceGuard:
    """A quantifier nest past the work limit is a guard violation, raised
    as the formula is compiled: over 5 entries, the body of 11 nested
    quantifiers would run 5**11 times."""

    TOO_DEEP = "forall x . " * 11 + "x in A"

    def test_library_raises(self):
        m = model_with({"A": NCSet({a}, {b}, set())}, universe=[a, b, c, Atom("d"), Atom("e")])
        message = r"^the formula needs more than 8,388,608 node evaluations \(the work limit\)$"
        with pytest.raises(GuardExceeded, match=message):
            evaluate(parse(self.TOO_DEEP), m)

    @pytest.mark.parametrize("size, admitted", [(4, 2), (2, 4), (16, 1)])
    def test_limit_admits_exactly_max_instances(self, monkeypatch, size, admitted):
        # d nested quantifiers around false run 1 + u + ... + u**d nodes.
        monkeypatch.setattr(checker, "MAX_WORK", sum(size ** i for i in range(admitted + 1)))
        m = Model([Atom(str(i)) for i in range(size)])
        assert evaluate(parse("forall x . " * admitted + "false"), m) == F
        with pytest.raises(GuardExceeded):
            evaluate(parse("forall x . " * (admitted + 1) + "false"), m)

    @pytest.mark.parametrize("text, code", [
        (TOO_DEEP, 4),
        ("Q in A /\\ " + TOO_DEEP, 3),
        (f"({TOO_DEEP}) /\\ Q in A", 4),
    ])
    def test_exit_codes_in_evaluation_order(self, capsys, tmp_path, text, code):
        session = tmp_path / "s.session"
        session.write_text("universe a b c d e\nlet A = <{a}|{b}|{}>\n")
        assert main(["eval", text, "--session", str(session)]) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert (err == WORK_ERROR + "\n") == (code == 4)


class TestWorkBudget:
    """One budget, ``MAX_WORK``, bounds the node runs of a whole formula:
    each node is charged the number of times it will run, and an atom
    over two bound variables the printed length of the longest entry."""

    def eval_cli(self, capsys, tmp_path, text) -> tuple[int, str]:
        session = tmp_path / "s.session"
        session.write_text("universe a b c d\nlet A = <{a}|{b}|{}>\n")
        code = main(["eval", text, "--session", str(session)])
        return code, capsys.readouterr().err

    def test_sibling_nests_add_up(self, capsys, tmp_path):
        # One nest is 1 + 4 + ... + 4**9 quantifier runs and 3 * 4**10
        # body runs, 3,495,253 in all; three of them pass the limit.
        one = nest(10, "x9 in A /\\ x9 in A")
        assert self.eval_cli(capsys, tmp_path, one) == (0, "")
        code, err = self.eval_cli(capsys, tmp_path, " /\\ ".join([f"({one})"] * 3))
        assert (code, err) == (4, WORK_ERROR + "\n")

    def test_large_body_counts(self, capsys, tmp_path):
        body = " /\\ ".join(f"x{i} = x{i + 1}" for i in range(8))
        code, err = self.eval_cli(capsys, tmp_path, nest(10, body))
        assert (code, err) == (4, WORK_ERROR + "\n")

    @pytest.mark.parametrize("text, work", [
        ("forall x . forall y . x in A", 1 + 2 + 4),
        ("forall x . forall y . x = y", 1 + 2 + 4 * 3),
        ("forall x . x = x /\\ x in A", 1 + 2 * 3),
    ])
    def test_evaluate_admits_exactly_max_work(self, monkeypatch, text, work):
        # Entries "aaa" and "b": x = y relates two of them per instance,
        # at a weight of 3, the longer one's printed length.
        monkeypatch.setattr(checker, "MAX_WORK", work)
        m = Model([Atom("aaa"), b], {"A": NCSet({b}, set(), set())})
        assert evaluate(parse(text), m) in ALL_VALUES
        with pytest.raises(GuardExceeded):
            evaluate(parse(f"~({text})"), m)

    @pytest.mark.parametrize("text, work", [("p -> p", 3 * 4), ("p /\\ q -> p", 5 * 16), ("false", 1)])
    def test_valid_prop_admits_exactly_max_work(self, monkeypatch, text, work):
        monkeypatch.setattr(checker, "MAX_WORK", work)
        assert valid_prop(parse(text))[0] == (text != "false")
        with pytest.raises(GuardExceeded):
            valid_prop(parse(f"~({text})"))

    def test_nine_letters_fit_32_nodes(self):
        # 32 nodes over 9 letters are exactly the limit; the formula fails
        # at its third assignment, so the test runs quickly.
        text = "!" * 15 + "(" + " /\\ ".join(f"p{i}" for i in range(9)) + ")"
        assert valid_prop(parse(text)) == (False, {**{f"p{i}": T for i in range(8)}, "p8": N})
        with pytest.raises(GuardExceeded):
            valid_prop(parse("!" + text))

    @pytest.mark.parametrize("k, code, out, err", [(9, 0, "valid\n", ""), (10, 4, "", WORK_ERROR + "\n")])
    def test_folded_nodes_are_charged_in_full(self, capsys, k, code, out, err):
        # The tautology !p0 \/ ~!p0 fixes the root, so no assignment runs,
        # but each node is charged for all 4**k of them, as before folding.
        text = "(!p0 \\/ ~!p0) \\/ (" + " /\\ ".join(f"p{i}" for i in range(k)) + ")"
        assert main(["valid", text]) == code
        assert capsys.readouterr() == (out, err)

    def test_eval_prop_runs_once(self, monkeypatch):
        monkeypatch.setattr(checker, "MAX_WORK", 5)
        assert eval_prop(parse("p /\\ q -> p"), {"p": T, "q": F}) == T

    def test_each_entry_is_rendered_once_per_call(self):
        # Three atoms over two bound variables are weighted by the longest
        # entry's printed length, which is measured once for all three.
        rendered = []

        class CountedAtom(Atom):
            __slots__ = ()

            def __str__(self) -> str:
                rendered.append(self.name)
                return self.name

        m = Model([CountedAtom("aaa"), CountedAtom("b")], {})
        assert evaluate(parse("forall x . forall y . x = y /\\ y = x /\\ x != y"), m) == F
        assert sorted(rendered) == ["aaa", "b"]
        assert evaluate(parse("forall x . forall y . x = x /\\ y in y"), m) == F
        assert sorted(rendered) == ["aaa", "b"]  # no such atom, no rendering


class TestLazyConnectives:
    """A binary node skips its right operand when the left code fixes the
    result; every error is still raised as the formula is compiled."""

    @staticmethod
    def count_equal(monkeypatch) -> list:
        calls = []
        equal = checker._equal
        monkeypatch.setattr(checker, "_equal", lambda x, y: calls.append((x, y)) or equal(x, y))
        return calls

    @pytest.mark.parametrize("kind", list(checker._BINARY), ids=lambda k: k.__name__)
    def test_skips_exactly_the_constant_rows(self, monkeypatch, kind):
        # The left operand is c in P, with P holding c in the part for its
        # value; the right, x = y, is computed per instance, so each call
        # of _equal is one run of the right operand.
        calls = self.count_equal(monkeypatch)
        right = fm.Equality("x", "y")
        for code, (value, row) in enumerate(zip(ALL_VALUES, checker._BINARY[kind])):
            part = _PARTS[value]
            m = Model([_C], {"c": _C, "P": NCSet(**({part: {_C}} if part else {}))})
            f = Forall("x", Forall("y", kind(fm.Membership("c", "P"), right)))
            calls.clear()
            assert evaluate(f, m) == truth_value_by_satisfaction(f, m), value
            assert len(calls) == (len(set(row)) > 1), (value, row)
            assert checker._FIXED[kind][code] == (row[0] if len(set(row)) == 1 else None)

    def test_right_operand_runs_only_where_left_is_not_f(self, monkeypatch):
        # forall does not stop early, so the conjunction runs on every
        # instance, and its right operand wherever x in A is not f.
        calls = self.count_equal(monkeypatch)
        rng = random.Random(18)
        f = parse("forall x . forall y . (x in A /\\ x = y)")
        left = parse("x in A")
        runs = []
        for _ in range(60):
            m = random_model(rng)
            calls.clear()
            assert evaluate(f, m) == truth_value_by_satisfaction(f, m)
            not_f = [u for u in m.universe
                     if sat_pos(left, m, {"x": u}) or not sat_neg(left, m, {"x": u})]
            assert len(calls) == len(not_f) * len(m.universe)
            runs.append(len(calls) / len(m.universe) ** 2)
        assert min(runs) < 1 and max(runs) > 0, runs

    @pytest.mark.parametrize("command, text, session, code", [
        ("eval", "false /\\ x in Q", False, 3),
        ("eval", "false -> forall x . x = x", False, 4),
        ("eval", "false /\\ (" + TestInstanceGuard.TOO_DEEP + ")", True, 4),
        ("eval", "a = a \\/ (" + TestInstanceGuard.TOO_DEEP + ")", True, 4),
        ("valid", "false /\\ (" + " \\/ ".join(f"p{i}" for i in range(10)) + ")", False, 4),
    ])
    def test_errors_in_a_skipped_operand_still_surface(self, capsys, tmp_path,
                                                       command, text, session, code):
        argv = [command, text]
        if session:
            path = tmp_path / "s.session"
            path.write_text("universe a b c d e\nlet A = <{a}|{b}|{}>\n")
            argv += ["--session", str(path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert (err == WORK_ERROR + "\n") == (session or command == "valid")


class TestAgainstSatisfactionRecursion:
    def test_random_formulas_and_models(self):
        rng = random.Random(11)
        names = ["a", "b", "c", "d", "A", "B"]
        for _ in range(400):
            m = random_model(rng)
            f = random_closed_formula(rng, names)
            assert evaluate(f, m) == truth_value_by_satisfaction(f, m)

    def test_quantifier_clauses(self):
        rng = random.Random(12)
        for _ in range(200):
            m = random_model(rng)
            body = random_closed_formula(rng, ["a", "b", "A"], depth=2)
            instances = [
                evaluate(body, Model(m.universe, {**m.env, "u": v}))
                for v in m.universe
            ]
            got_all = evaluate(Forall("u", body), m)
            got_some = evaluate(Exists("u", body), m)
            assert got_all.assertable == all(tv.assertable for tv in instances)
            assert got_all.deniable == any(tv.deniable for tv in instances)
            assert got_some.assertable == any(tv.assertable for tv in instances)
            assert got_some.deniable == all(tv.deniable for tv in instances)

    def test_restricted_quantifier_duality_laws(self):
        rng = random.Random(13)
        templates = [
            ("~ exists x in A . x in B", "forall x in A . x notin B"),
            ("~ forall x in A . x in B", "exists x in A . x notin B"),
            ("~ exists x in A . x = c", "forall x in A . x != c"),
            ("~ forall x in A . x = c", "exists x in A . x != c"),
        ]
        for _ in range(150):
            m = random_model(rng)
            for lhs, rhs in templates:
                assert evaluate(parse(lhs), m) == evaluate(parse(rhs), m), (lhs, rhs)

    def test_rows_on_edge_models(self):
        # Rows keyed by universe entry: an entry listed twice, as one
        # object and as an equal copy; a named atom outside the universe;
        # sets as entries on either side of ``in`` and ``=``.
        big_a, big_b = NCSet({a}, {b}, {c}), NCSet(set(), {a, b}, set())
        env = {"a": a, "d": Atom("d"), "A": big_a, "B": big_b}
        models = [Model([a, Atom("a"), b, big_a], env),
                  Model([a, a, big_a, big_b, NCSet({a}, {b}, {c})], env),
                  Model([big_a, big_b], env)]
        prefixes = ("forall x . ", "exists x . ", "forall x . exists y . ", "exists x . forall y . ")
        checked = 0
        for m, prefix in itertools.product(models, prefixes):
            for left, op, right in itertools.product("xyadAB", ("in", "="), "xyadAB"):
                if "y" in (left, right) and "y" not in prefix:
                    continue
                for body in (f"{left} {op} {right}", f"~({left} {op} {right}) \\/ x in B"):
                    f = parse(prefix + body)
                    assert evaluate(f, m) == truth_value_by_satisfaction(f, m), (m, prefix + body)
                    checked += 1
        assert checked == 3 * 2 * 2 * (2 * 25 + 2 * 36)

    def test_connective_homomorphism(self):
        rng = random.Random(14)
        for _ in range(150):
            m = random_model(rng)
            f = random_closed_formula(rng, ["a", "b", "A", "B"], depth=2)
            assert evaluate(Neg(f), m) == neg(evaluate(f, m))


class TestValidity:
    def test_amp_conj_equivalence_is_valid(self):
        ok, witness = valid_prop(parse("p & q <-> p /\\ q"))
        assert ok and witness is None

    def test_negated_amp_equivalence_is_valid(self):
        ok, witness = valid_prop(parse("~(p & q) <-> (p -> ~q)"))
        assert ok and witness is None

    def test_contraposition_fails_with_witness(self):
        f = parse("(p -> q) -> (~q -> ~p)")
        ok, witness = valid_prop(f)
        assert not ok and witness is not None
        assert not eval_prop(f, witness).assertable

    def test_letter_guard(self, capsys):
        # 4**10 assignments of 19 nodes pass the work limit, so 10 letters
        # are refused whatever the formula; 9 letters fit 32 nodes.
        for k in (10, 11):
            letters = " \\/ ".join(f"p{i}" for i in range(k))
            with pytest.raises(GuardExceeded):
                valid_prop(parse(letters))
            assert main(["valid", letters]) == 4
            assert capsys.readouterr().err == WORK_ERROR + "\n"

    def test_excluded_middle_fails_at_n(self):
        ok, witness = valid_prop(parse("p \\/ ~p"))
        assert not ok and witness == {"p": N}

    def test_non_propositional_rejected(self):
        with pytest.raises(NotPropositional):
            valid_prop(parse("x in A"))
        with pytest.raises(NotPropositional):
            valid_prop(parse("forall x . p"))

    def test_no_letters(self):
        assert valid_prop(parse("false -> false")) == (True, None)
        ok, witness = valid_prop(parse("false"))
        assert not ok and witness == {}


# A letter p with value v, encoded first-order: the atom c in P, where the
# set P holds c in the part for v (no part for f).
_C = Atom("c")
_PARTS = {T: "tpart", B: "bpart", N: "npart", F: None}
UNARY = (fm.Neg, fm.CNeg, fm.Bang, fm.Query, fm.Circ)
BINARY = (fm.Conj, fm.Amp, fm.Disj, fm.Imp, fm.StrongImp, fm.Iff, fm.StrongIff)


def encoded(f: fm.Formula) -> fm.Formula:
    if isinstance(f, fm.Prop):
        return fm.Membership("c", f.name.upper())
    if isinstance(f, fm.Unary):
        return type(f)(encoded(f.body))
    if isinstance(f, fm.Binary):
        return type(f)(encoded(f.left), encoded(f.right))
    return f


def reference(f: fm.Formula, assignment: dict):
    """The value of f under the assignment, by the satisfaction recursion."""
    env = {"c": _C}
    for name, value in assignment.items():
        part = _PARTS[value]
        env[name.upper()] = NCSet(**({part: {_C}} if part else {}))
    return truth_value_by_satisfaction(encoded(f), Model([_C], env))


def random_prop(rng: random.Random, letters: str, depth: int) -> fm.Formula:
    if depth == 0 or rng.random() < 0.2:
        return fm.Bottom() if rng.random() < 0.05 else fm.Prop(rng.choice(letters))
    if rng.random() < 0.3:
        return rng.choice(UNARY)(random_prop(rng, letters, depth - 1))
    return rng.choice(BINARY)(random_prop(rng, letters, depth - 1),
                              random_prop(rng, letters, depth - 1))


class TestAgainstFirstOrderEncoding:
    """Small scopes, exhaustively, against the satisfaction recursion."""

    @pytest.mark.parametrize("kind", UNARY, ids=lambda k: k.__name__)
    def test_unary_connectives(self, kind):
        f = kind(fm.Prop("p"))
        for x in ALL_VALUES:
            assert eval_prop(f, {"p": x}) == reference(f, {"p": x}), x

    @pytest.mark.parametrize("kind", BINARY, ids=lambda k: k.__name__)
    def test_binary_connectives(self, kind):
        f = kind(fm.Prop("p"), fm.Prop("q"))
        for x, y in itertools.product(ALL_VALUES, repeat=2):
            assignment = {"p": x, "q": y}
            assert eval_prop(f, assignment) == reference(f, assignment), (x, y)

    def test_witness_is_the_first_failing_assignment(self):
        rng = random.Random(15)
        seen = {True: 0, False: 0}
        for _ in range(250):
            f = random_prop(rng, "pqr"[:rng.randint(1, 3)], rng.randint(1, 4))
            letters = fm.prop_letters(f)
            expected = (True, None)
            for values in itertools.product(ALL_VALUES, repeat=len(letters)):
                assignment = dict(zip(letters, values))
                if not reference(f, assignment).assertable:
                    expected = (False, assignment)
                    break
            assert valid_prop(f) == expected, fm.render(f)
            seen[expected[0]] += 1
        assert min(seen.values()) >= 20, seen


def python_calls(run, *args) -> tuple[object, int]:
    """``run(*args)`` and the number of Python frames it started."""
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code.co_name))
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
    return result, len(calls)


def letters_as_atoms(f: fm.Formula) -> fm.Formula:
    """f with each letter x written as the atom x in A."""
    if isinstance(f, fm.Prop):
        return fm.Membership(f.name, "A")
    if isinstance(f, fm.Unary):
        return type(f)(letters_as_atoms(f.body))
    if isinstance(f, fm.Binary):
        return type(f)(letters_as_atoms(f.left), letters_as_atoms(f.right))
    if isinstance(f, fm.Quantifier):
        return type(f)(f.var, letters_as_atoms(f.body))
    return f


def first_failure(f: fm.Formula):
    """``valid_prop``'s answer, by the satisfaction recursion."""
    letters = fm.prop_letters(f)
    for values in itertools.product(ALL_VALUES, repeat=len(letters)):
        assignment = dict(zip(letters, values))
        if not reference(f, assignment).assertable:
            return False, assignment
    return True, None


class TestFolding:
    """A node that reads no slot is computed once, as it is compiled, and
    one that reads one slot once per value of that slot (a row); only the
    rest runs per instance or assignment."""

    FIVE = Model([Atom(name) for name in "abcde"],
                 {"a": Atom("a"), "A": NCSet({Atom("a")}, {Atom("b"), Atom("c")}, {Atom("d")}),
                  "B": NCSet({Atom("c")}, {Atom("a")}, {Atom("e"), Atom("b")})})

    @staticmethod
    def counted(monkeypatch) -> dict:
        """Counts of ``member_tv`` and ``_equal`` calls, and of runs of
        the compiled root: the outermost ``_compile`` call's result, when
        it is a closure."""
        counts = {"member_tv": 0, "_equal": 0, "root": 0}
        member_tv, equal, compile_ = NCSet.member_tv, checker._equal, checker._compile
        depth = [0]

        def count(name):
            counts[name] += 1

        def compile_counted(*args):
            depth[0] += 1
            try:
                node = compile_(*args)
            finally:
                depth[0] -= 1
            if depth[0] or not callable(node):
                return node
            return lambda env: count("root") or node(env)

        monkeypatch.setattr(NCSet, "member_tv", lambda s, x: count("member_tv") or member_tv(s, x))
        monkeypatch.setattr(checker, "_equal", lambda x, y: count("_equal") or equal(x, y))
        monkeypatch.setattr(checker, "_compile", compile_counted)
        return counts

    def evaluated(self, monkeypatch, text: str) -> tuple[TruthValue, dict]:
        """The value of ``text`` in FIVE, checked against the satisfaction
        recursion, with the counts of its evaluation."""
        f = parse(text)
        counts = self.counted(monkeypatch)
        value = evaluate(f, self.FIVE)
        monkeypatch.undo()
        g = expand_defined(f)
        assert (value.assertable, value.deniable) == (sat_pos(g, self.FIVE), sat_neg(g, self.FIVE)), text
        assert value == truth_value_by_satisfaction(f, self.FIVE), text
        return value, counts

    def validated(self, monkeypatch, text: str) -> int:
        """The runs of the compiled root of ``text`` under ``valid_prop``,
        whose answer is checked against the satisfaction recursion."""
        f = parse(text)
        counts = self.counted(monkeypatch)
        answer = valid_prop(f)
        monkeypatch.undo()
        assert answer == first_failure(f), text
        return counts["root"]

    @pytest.mark.parametrize("text, node, member_tv", [
        ("forall x . forall y . ~!(x in A)", int, 5),      # a row through two tables, reduced by forall x
        ("exists y . ?~(a in A)", int, 1),                 # a constant through two tables
        ("forall x . exists y . -(x in B) & y in A", None, 10),
    ])
    def test_unary_maps_a_constant_or_a_row(self, monkeypatch, text, node, member_tv):
        _, counts = self.evaluated(monkeypatch, text)
        assert counts["member_tv"] == member_tv
        compiled = checker._compile(parse(text), self.FIVE, (), 1, [0])
        assert isinstance(compiled, node) if node else callable(compiled)

    @pytest.mark.parametrize("text, equal", [
        ("forall x . forall y . false /\\ x = y", 0),      # the left code fixes the result
        ("forall x . forall y . x = y \\/ ~false", 0),     # so does the right one
        ("forall x . forall y . ~false /\\ x = y", 25),    # t /\ is the identity: x = y itself
        ("forall x . forall y . x = y <-> false", 25),     # a map of x = y
        ("forall x . forall y . a = a -> x = y", 26),      # a = a is computed once
    ])
    def test_a_constant_operand_fixes_the_result_or_maps_the_other(self, monkeypatch, text, equal):
        _, counts = self.evaluated(monkeypatch, text)
        assert counts["_equal"] == equal
        assert counts["root"] == (equal > 1)

    @pytest.mark.parametrize("text, runs", [
        ("(p /\\ q) \\/ ~false", 0), ("(p /\\ q) /\\ false", 0), ("false -> p /\\ q", 0),
        ("(p /\\ q) <-> false", 1), ("~false /\\ (p /\\ q)", 3),
    ])
    def test_valid_prop_runs_a_root_that_stays_a_closure(self, monkeypatch, text, runs):
        # p /\ q first fails at p = t, q = n, the third assignment; <-> false
        # is b there only when p /\ q is b, so the first one already fails.
        assert self.validated(monkeypatch, text) == runs

    @pytest.mark.parametrize("text", ["!~p", "-!~p", "p \\/ ~p", "(p /\\ !p) -> ?p", "!p /\\ -?p <=> (p & p)",
                                      "(!p0 \\/ ~!p0) \\/ (p0 /\\ p1 /\\ p2)", "q \\/ ((p /\\ r) /\\ false)",
                                      "r & ((p -> q) /\\ false)", "(p /\\ false) <-> (q /\\ false)"])
    def test_rows_on_one_slot_merge(self, monkeypatch, text):
        # Each root is a constant or a row over one letter, so valid_prop
        # answers from its codes, with the same first witness.
        assert self.validated(monkeypatch, text) == 0

    def test_rows_on_one_bound_variable_merge(self, monkeypatch):
        value, counts = self.evaluated(monkeypatch, "forall x . forall y . x in A /\\ ~(x in B) \\/ x = a")
        assert (counts["member_tv"], counts["_equal"], counts["root"]) == (10, 5, 0)

    def test_closures_read_rows_inline(self):
        # One frame per run: the letters, and the rows of x in A and y in B,
        # are read, not called.
        iff = checker._compile(parse("p <-> !q"), None, ("p", "q"), 1, [0])
        for codes in itertools.product(range(4), repeat=2):
            assert python_calls(iff, codes)[1] == 1
        f = parse("forall x . exists y . x in A <=> y in B")
        code, calls = python_calls(checker._compile(f, self.FIVE, (), 1, [0]), [])
        assert calls == 1 + 5 + 25
        assert ALL_VALUES[code] == truth_value_by_satisfaction(f, self.FIVE)

    @pytest.mark.parametrize("text, node, member_tv", [
        ("forall x . a in A", int, 1),                     # a constant body, kept
        ("forall x . exists y . x in A", int, 5),          # a row over x, kept by exists y, reduced by forall x
        ("exists x . forall y . x in A /\\ x in B", int, 10),
        ("exists x . forall y . x in A /\\ y in B", None, 10),  # two slots, rows read inline
        ("forall x . exists y . y in x", None, 0),         # two slots: a closure per instance
    ])
    def test_quantifiers_keep_or_reduce_rows(self, monkeypatch, text, node, member_tv):
        _, counts = self.evaluated(monkeypatch, text)
        assert counts["member_tv"] == member_tv
        compiled = checker._compile(parse(text), self.FIVE, (), 1, [0])
        assert isinstance(compiled, node) if node else callable(compiled)

    @pytest.mark.parametrize("text", ["forall x . x = x \\/ x in Q", "false /\\ Q in A",
                                      "forall x . (a in A -> Q in x) /\\ false"])
    def test_an_unresolved_name_in_a_folded_operand_still_exits_3(self, capsys, tmp_path, text):
        with pytest.raises(UnresolvedName, match="Q"):
            evaluate(parse(text), self.FIVE)
        session = tmp_path / "s.session"
        session.write_text("universe a b c d e\nlet A = <{a}|{b}|{}>\n")
        assert main(["eval", text, "--session", str(session)]) == 3
        assert capsys.readouterr().err.count("error:") == 1

    def test_small_formulas_over_p_and_q_exhaustively(self):
        # Every connective over every pair of p, q, false and a connective
        # applied to p or q: constants, rows on one letter and on two, and
        # repeated letters.  Each value under each assignment, and
        # valid_prop's answer, agree with the satisfaction recursion.
        leaves = [fm.Prop("p"), fm.Prop("q"), fm.Bottom()]
        small = leaves + [kind(leaf) for kind in UNARY for leaf in leaves[:2]]
        for kind, left, right in itertools.product(BINARY, small, small):
            f = kind(left, right)
            for values in itertools.product(ALL_VALUES, repeat=2):
                assignment = dict(zip("pq", values))
                assert eval_prop(f, assignment) == reference(f, assignment), (fm.render(f), assignment)
            assert valid_prop(f) == first_failure(f), fm.render(f)

    @pytest.mark.parametrize("variables", [("x",), ("x", "y")])
    def test_one_and_two_variable_bodies(self, variables):
        rng = random.Random(29 + len(variables))
        binders = list(itertools.product((Forall, Exists), repeat=len(variables)))
        for _ in range(150):
            m = random_model(rng)
            body = letters_as_atoms(random_formula(rng, 3, variables, ("a", "b", "A", "B")))
            for kinds in binders:
                f = body
                for kind, var in reversed(list(zip(kinds, variables))):
                    f = kind(var, f)
                value = evaluate(f, m)
                g = expand_defined(f)
                assert (value.assertable, value.deniable) == (sat_pos(g, m), sat_neg(g, m)), fm.render(f)
                assert value == truth_value_by_satisfaction(f, m), fm.render(f)
