"""The command-line surface: outputs, exit codes, sessions, round trips."""

import random
import subprocess
import sys

import pytest

from helpers import random_ncset
from bzfc.cardinal import Aleph, Cardinal, card_of
from bzfc.cli import Session, eval_arith, load_session, main, session_model
from bzfc.errors import ParseError
from bzfc.formula import MAX_NESTING, parse
from bzfc.parareal import ParaReal
from bzfc.sets import Atom, Nat, NCSet, Pair, Tag, parse_ncset
from bzfc.truth import F, T


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_membership_via_session(self, capsys, tmp_path):
        session = tmp_path / "s.session"
        session.write_text("# binding\nlet A = <{a}|{}|{}>\n")
        code, out, _ = run(capsys, "eval", "a in A", "--session", str(session))
        assert (code, out) == (0, "b\n")

    def test_bottom(self, capsys):
        code, out, _ = run(capsys, "eval", "false")
        assert (code, out) == (0, "f\n")

    def test_forall_with_default_universe(self, capsys, tmp_path):
        session = tmp_path / "s.session"
        session.write_text("let A = <{}|{c}|{}>\n")
        code, out, _ = run(capsys, "eval", "forall x . x in A", "--session", str(session))
        assert (code, out) == (0, "t\n")

    def test_declared_universe(self, capsys, tmp_path):
        session = tmp_path / "s.session"
        session.write_text("let A = <{}|{c}|{}>\nuniverse a b c\n")
        code, out, _ = run(capsys, "eval", "forall x . x in A", "--session", str(session))
        assert (code, out) == (0, "f\n")

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "a in ")
        assert code == 2 and "error" in err

    def test_unresolved_name_exit(self, capsys, tmp_path):
        session = tmp_path / "s.session"
        session.write_text("let A = <{a}|{}|{}>\n")
        code, _, err = run(capsys, "eval", "a in Missing", "--session", str(session))
        assert code == 3 and "Missing" in err

    def test_empty_universe_is_a_guard(self, capsys):
        code, _, err = run(capsys, "eval", "forall x . false")
        assert code == 4 and "universe" in err


class TestParseCommand:
    def test_canonical_output(self, capsys):
        code, out, _ = run(capsys, "parse", "~ exists y in A . y = x")
        assert code == 0
        assert out == "~(exists y . y in A & y = x)\n"

    def test_canonical_output_is_stable(self, capsys):
        rng = random.Random(5)
        from helpers import random_formula
        from bzfc.formula import render
        for _ in range(50):
            text = render(random_formula(rng, depth=3))
            code, out, _ = run(capsys, "parse", text)
            assert code == 0
            code2, out2, _ = run(capsys, "parse", out.strip())
            assert out2 == out


class TestValid:
    def test_valid_formula(self, capsys):
        code, out, _ = run(capsys, "valid", "p & q <-> p /\\ q")
        assert (code, out) == (0, "valid\n")

    def test_invalid_with_witness(self, capsys):
        code, out, _ = run(capsys, "valid", "(p -> q) -> (~q -> ~p)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "invalid"
        assert lines[1].startswith("witness: p=")


class TestCmp:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "cmp", "<{a,b}|{c}|{d}>", "<{a,b}|{c}|{d}>")
        assert code == 0
        assert "cong: b" in out and "preceq: b" in out

    def test_empties(self, capsys):
        code, out, _ = run(capsys, "cmp", "<{}|{}|{}>", "<{}|{}|{}>")
        assert code == 0
        assert "cong: t" in out and "preceq: t" in out

    def test_pure_b_vs_pure_n(self, capsys):
        code, out, _ = run(capsys, "cmp", "<{a}|{}|{}>", "<{}|{}|{b}>")
        assert code == 0
        assert "cong: n" in out

    def test_session_names_accepted(self, capsys, tmp_path):
        session = tmp_path / "s.session"
        session.write_text("let A = <{a}|{}|{}>\nlet B = <{}|{}|{b}>\n")
        code, out, _ = run(capsys, "cmp", "A", "B", "--session", str(session))
        assert code == 0 and "cong: n" in out


class TestCard:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "card", "<{a,b}|{c}|{d}>")
        assert (code, out) == (0, "1 + 2b + n\n")

    def test_output_reparses(self, capsys):
        rng = random.Random(6)
        for _ in range(40):
            s = random_ncset(rng, 5)
            code, out, _ = run(capsys, "card", str(s))
            assert code == 0
            assert eval_arith(out.strip()) == card_of(s)


class TestArith:
    def test_b_times_n(self, capsys):
        assert run(capsys, "arith", "b * n")[:2] == (0, "0\n")

    def test_literal_sum(self, capsys):
        assert run(capsys, "arith", "3 + 2b + n")[:2] == (0, "3 + 2b + n\n")

    def test_aleph(self, capsys):
        assert run(capsys, "arith", "aleph0 + b")[:2] == (0, "aleph0 + b\n")
        assert run(capsys, "arith", "aleph15")[:2] == (0, "aleph15\n")  # the largest index

    def test_real_division_identity(self, capsys):
        assert run(capsys, "arith", "--real", "(1 + b) / (1 + b)")[:2] == (0, "1\n")

    def test_real_literals(self, capsys):
        code, out, _ = run(capsys, "arith", "--real", "3/2 + 1/3 b - 2 n")
        assert (code, out) == (0, "3/2 + 1/3 b - 2 n\n")

    def test_cardinal_subtraction_rejected(self, capsys):
        for expr, lacks in [("b - n", "subtraction"), ("-b", "subtraction"),
                            ("1 / b", "division")]:
            code, out, err = run(capsys, "arith", expr)
            assert (code, out) == (2, "")
            assert f"needs --real (cardinals have no {lacks})" in err

    def test_not_invertible_is_a_guard(self, capsys):
        code, _, err = run(capsys, "arith", "--real", "1 / b")
        assert code == 4 and "not invertible" in err

    @pytest.mark.parametrize("real", [False, True], ids=["cardinal", "real"])
    def test_result_too_long_to_print_is_a_guard(self, capsys, real):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter prints ints of any length")
        # Each factor parses; their product has more digits than str() converts.
        nines = "9" * (limit // 2 + 1)
        argv = ["--real", f"{nines} * {nines} * b"] if real else [f"{nines} * {nines}"]
        assert run(capsys, "arith", *argv) == (
            4, "", "error: the result has a component too long to print\n")

    def test_parse_error(self, capsys):
        assert run(capsys, "arith", "2 +")[0] == 2
        assert run(capsys, "arith", "(1 + b")[0] == 2
        assert run(capsys, "arith", "--real", "aleph0")[0] == 2
        assert run(capsys, "arith", "alpha3")[0] == 2


TOO_LONG = "9" * 5000  # more digits than int() and str() convert by default


class TestNumberLiterals:
    """Naturals are ASCII digits; over-long ones, unprintable results and
    aleph indices above the limit are guard violations, not tracebacks."""

    @pytest.mark.parametrize("argv, session, code", [
        (["arith", "\u00b2"], None, 2),
        (["arith", "aleph\u00b2"], None, 2),
        (["card", "<{\u00b2}|{}|{}>"], None, 2),
        (["card", "A"], "let A = <{a\u00b2,\u00b2}|{}|{}>\n", 2),
        (["arith", TOO_LONG], None, 4),
        (["arith", "--real", TOO_LONG], None, 4),
        (["card", f"<{{{TOO_LONG}}}|{{}}|{{}}>"], None, 4),
        (["card", "A"], f"universe a@{TOO_LONG}\nlet A = <{{}}|{{}}|{{}}>\n", 4),
        (["arith", "aleph16"], None, 4),
        (["arith", f"aleph{TOO_LONG}"], None, 4),
        (["arith", "9" * 3000 + " * " + "9" * 3000], None, 4),
        (["arith", "--real", "9" * 3000 + " * " + "9" * 3000], None, 4),
    ], ids=["superscript", "aleph-superscript", "card-superscript", "session-superscript",
            "long", "real-long", "card-long", "session-long", "aleph16", "aleph-long",
            "unprintable", "real-unprintable"])
    def test_fail_cleanly(self, capsys, tmp_path, argv, session, code):
        if session is not None:
            path = tmp_path / "s.session"
            path.write_text(session, encoding="utf-8")
            argv = [*argv, "--session", str(path)]
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestNesting:
    """Formulas nested past MAX_NESTING are guard violations; the deepest
    admitted ones parse, render, evaluate and check at the default
    recursion limit."""

    M = MAX_NESTING
    DEEPEST = {
        "prefix": "~" * M + "false",
        "parens": "(" * M + "false" + ")" * M,
        "mixed": "(~" * (M // 2) + "false" + ")" * (M // 2),
        "and-chain": " /\\ ".join(["false"] * (M + 1)),
        "implication-chain": " -> ".join(["false"] * (M + 1)),
        "binders": "forall x . " * M + "false",
        "restricted-binders": "exists x in A . " * (M // 2) + "false",
    }
    TOO_DEEP = {
        "prefix": "~" * (M + 1) + "p",
        "parens": "(" * (M + 1) + "p" + ")" * (M + 1),
        "and-chain": " /\\ ".join(["p"] * (M + 2)),
        "implication-chain": " -> ".join(["p"] * (M + 2)),
        "binders": "forall x . " * (M + 1) + "p",
        "restricted-body": "forall x in A . " + " \\/ ".join(["p"] * 2000),
        "3000-negations": "~" * 3000 + "p",
        "2000-parentheses": "(" * 2000 + "p" + ")" * 2000,
    }

    @pytest.mark.parametrize("text", DEEPEST.values(), ids=DEEPEST.keys())
    def test_deepest_admitted(self, capsys, tmp_path, text):
        session = tmp_path / "s.session"
        session.write_text("let A = <{}|{a}|{}>\nuniverse a\n")
        code, out, err = run(capsys, "parse", text)
        assert (code, err) == (0, "") and parse(out) == parse(text)
        code, out, err = run(capsys, "eval", text, "--session", str(session))
        assert (code, err) == (0, "") and out in ("t\n", "f\n")
        if "x" not in text:
            code, out, err = run(capsys, "valid", text)
            assert (code, err) == (0, "") and out.split()[0] in ("valid", "invalid")

    @pytest.mark.parametrize("command", ["parse", "eval", "valid"])
    @pytest.mark.parametrize("text", TOO_DEEP.values(), ids=TOO_DEEP.keys())
    def test_too_deep_is_a_guard(self, capsys, command, text):
        code, out, err = run(capsys, command, text)
        assert (code, out) == (4, "")
        assert err.startswith(f"error: formula nested more than {MAX_NESTING} deep")
        assert len(err.splitlines()) == 1


class TestLiteralNesting:
    """Expressions and set literals share the formulas' nesting guard."""

    M = MAX_NESTING
    PAIRS = "(" * M + "a" + ", b)" * M

    @pytest.mark.parametrize("argv, expected", [
        (["arith", "(" * M + "1" + ")" * M], "1\n"),
        (["arith", "--real", "- " * M + "1"], "1\n"),
        (["card", "<{" + PAIRS + "}|{}|{}>"], "b\n"),
        (["card", "<{a" + "@1" * M + "}|{}|{}>"], "b\n"),
        (["cmp", "<{" + PAIRS + "}|{}|{}>", "<{a}|{}|{}>"], "cong: b\npreceq: b\n"),
    ], ids=["parens", "minus", "pairs", "tags", "cmp"])
    def test_deepest_admitted(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv, what", [
        (["arith", "(" * (M + 1) + "1" + ")" * (M + 1)], "expression"),
        (["arith", "(" * 3000 + "1" + ")" * 3000], "expression"),
        (["arith", "--real", "- " * (M + 1) + "1"], "expression"),
        (["card", "<{" + "(" * (M + 1) + "a" + ", b)" * (M + 1) + "}|{}|{}>"], "literal"),
        (["card", "<{" + "(" * 3000 + "a" + ", b)" * 3000 + "}|{}|{}>"], "literal"),
        (["card", "<{a" + "@1" * (M + 1) + "}|{}|{}>"], "literal"),
        (["card", "<{(a" + "@1" * M + ", b)}|{}|{}>"], "literal"),
        (["card", "<{a" + "@1" * 3000 + "}|{}|{}>"], "literal"),
    ], ids=["parens", "3000-parens", "minus", "pairs", "3000-pairs", "tags",
            "tags-in-a-pair", "3000-tags"])
    def test_too_deep_is_a_guard(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {what} nested more than {MAX_NESTING} deep")
        assert len(err.splitlines()) == 1


class TestEvalArith:
    def test_juxtaposition(self):
        assert eval_arith("2b") == Cardinal(0, 2, 0)
        assert eval_arith("aleph0 b") == Cardinal(0, Aleph(0), 0)
        assert eval_arith("2 b n") == Cardinal(0, 0, 0)

    def test_division_binds_before_juxtaposition(self):
        got = eval_arith("1/3 b", real=True)
        assert got == ParaReal(0, "1/3", 0)

    def test_unary_minus(self):
        assert eval_arith("-b + n", real=True) == ParaReal(0, -1, 1)
        assert eval_arith("- - 2", real=True) == ParaReal(2, 0, 0)

    def test_parens(self):
        assert eval_arith("(1 + b) * (1 + n)") == Cardinal(1, 1, 1)

    def test_para_real_literals_round_trip(self, capsys):
        from fractions import Fraction
        rng = random.Random(9)
        values = [ParaReal(0, -1, 0), ParaReal(0, 0, -3), ParaReal("-1/2"), ParaReal(-4)]
        for _ in range(100):
            values.append(ParaReal(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                     for _ in range(3))))
        for x in values:
            assert eval_arith(str(x), real=True) == x
            assert run(capsys, "arith", "--real", str(x)) == (0, f"{x}\n", "")

    def test_cardinal_literals_round_trip(self):
        rng = random.Random(10)
        for _ in range(100):
            k = Cardinal(*(Aleph(rng.randint(0, 3)) if rng.random() < 0.25
                           else rng.randint(0, 9) for _ in range(3)))
            assert eval_arith(str(k)) == k


class TestLattice:
    def test_unit_cube_dot(self, capsys):
        code, out, _ = run(capsys, "lattice", "1", "1", "1")
        assert code == 0
        assert out.startswith("digraph")
        assert '"b" -> "1";' in out
        labels = [line.strip().rstrip(";").strip('"')
                  for line in out.splitlines()
                  if line.strip().endswith(";") and "->" not in line]
        assert len(labels) == 8
        for label in labels:
            assert isinstance(eval_arith(label), Cardinal)

    def test_single_node(self, capsys):
        code, out, _ = run(capsys, "lattice", "0", "0", "0")
        assert code == 0
        assert '"0";' in out and "->" not in out

    def test_bound_guard(self, capsys):
        assert run(capsys, "lattice", "7", "0", "0")[0] == 4


class TestCheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--seed", "3", "--cases", "20")
        assert code == 0
        assert "all" in out and "passed" in out
        assert out.count("ok ") == 5

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "check", "--seed", "3", "--cases", "15")
        _, second, _ = run(capsys, "check", "--seed", "3", "--cases", "15")
        assert first == second

    def test_cases_guard(self, capsys):
        for cases in ("100001", "0", "-3"):
            code, out, err = run(capsys, "check", "--cases", cases)
            assert (code, out) == (4, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_failure_exits_5_and_prints_instances(self, capsys, monkeypatch):
        from bzfc.selfcheck import SuiteResult
        broken = SuiteResult("oracle-random", checks=3,
                             failures=["cong mismatch: <{a}|{}|{}> vs <{}|{}|{}>"])
        monkeypatch.setattr("bzfc.selfcheck.run_all", lambda seed, cases: [broken])
        code, out, _ = run(capsys, "check", "--seed", "1", "--cases", "5")
        assert code == 5
        assert "FAIL oracle-random" in out
        assert "<{a}|{}|{}>" in out

    @pytest.mark.parametrize("method, bridge", [("eq_tv", "eq/cong bridge: "),
                                                ("le_tv", "le/preceq bridge: ")],
                             ids=["eq_tv", "le_tv"])
    def test_oracle_suites_hold_cardinal_comparisons_to_the_search(self, capsys, monkeypatch,
                                                                   method, bridge):
        right = getattr(Cardinal, method)
        monkeypatch.setattr(Cardinal, method,
                            lambda self, other: F if right(self, other) == T else T)
        code, out, _ = run(capsys, "check", "--seed", "7", "--cases", "20")
        assert code == 5
        lines = out.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("FAIL ")] == [
            "oracle-exhaustive", "oracle-random"]
        details = [line.strip() for line in lines if line.startswith("  ")]
        assert details and all(detail.startswith((bridge, "... and ")) for detail in details)

    def test_each_pair_is_searched_once(self, monkeypatch):
        from bzfc import oracle, selfcheck
        calls = {"cong_brute": 0, "preceq_brute": 0}
        for name in calls:
            def counted(a, b, search=getattr(oracle, name), name=name):
                calls[name] += 1
                return search(a, b)
            monkeypatch.setattr(oracle, name, counted)
        assert all(result.ok for result in selfcheck.run_all(7, 50))
        assert calls == {"cong_brute": 256 + 50, "preceq_brute": 256 + 50}


class TestSessions:
    def test_load(self, tmp_path):
        path = tmp_path / "s.session"
        path.write_text("# comment\n\nlet A = <{a}|{b}|{}>\nuniverse a b c 3\n")
        session = load_session(str(path))
        assert session.bindings["A"] == parse_ncset("<{a}|{b}|{}>")
        assert session.universe == [Atom("a"), Atom("b"), Atom("c"), Nat(3)]

    def test_universe_may_name_bound_sets(self, tmp_path):
        path = tmp_path / "s.session"
        path.write_text("let A = <{a}|{}|{}>\nuniverse A a\n")
        session = load_session(str(path))
        assert session.universe[0] == session.bindings["A"]

    def test_universe_entries_are_element_literals(self, tmp_path):
        # Entries are read by the literal scanner, so a pair may hold spaces;
        # a bare name bound by let is still that set.
        path = tmp_path / "s.session"
        path.write_text("let A = <{a}|{}|{}>\nuniverse (a, 1) A  b@2 ( c , (d,A) )\n")
        session = load_session(str(path))
        assert session.universe == [Pair(Atom("a"), Nat(1)), session.bindings["A"],
                                    Tag(Atom("b"), 2), Pair(Atom("c"), Pair(Atom("d"), Atom("A")))]

    @pytest.mark.parametrize("text, bindings, universe", [
        ("let A=<{a}|{}|{}>\n", {"A": parse_ncset("<{a}|{}|{}>")}, None),
        # Whitespace only separates tokens, so no space is needed after the directive.
        ("universe(a,1)\n", {}, [Pair(Atom("a"), Nat(1))]),
    ], ids=["let", "universe"])
    def test_directives_need_no_spaces(self, tmp_path, text, bindings, universe):
        path = tmp_path / "s.session"
        path.write_text(text)
        session = load_session(str(path))
        assert (session.bindings, session.universe) == (bindings, universe)

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # Editors on some systems save UTF-8 with a leading BOM.
        path = tmp_path / "s.session"
        path.write_bytes("let A = <{a}|{}|{}>\n".encode("utf-8-sig"))
        code, out, err = run(capsys, "eval", "a in A", "--session", str(path))
        assert (code, out, err) == (0, "b\n", "")

    def test_duplicate_binding_rejected(self, tmp_path):
        path = tmp_path / "s.session"
        path.write_text("let A = <{a}|{}|{}>\nlet A = <{}|{}|{}>\n")
        with pytest.raises(ParseError):
            load_session(str(path))

    def test_unknown_directive_rejected(self, tmp_path):
        path = tmp_path / "s.session"
        path.write_text("bind A = <{a}|{}|{}>\n")
        with pytest.raises(ParseError) as exc:
            load_session(str(path))
        assert "s.session:1" in str(exc.value)

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval", "false", "--session",
                         str(tmp_path / "absent.session"))
        assert code == 2

    @pytest.mark.parametrize("make", ["directory", "bad-utf8", "permission"])
    def test_unreadable_file_is_exit_2(self, capsys, tmp_path, monkeypatch, make):
        path = tmp_path / "s.session"
        if make == "directory":
            path.mkdir()
        elif make == "bad-utf8":
            path.write_bytes(b"let A = <{a}|{}|{}>\n\xff\n")
        else:
            path.write_text("universe a\n")

            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))
            monkeypatch.setattr("bzfc.cli.open", refuse, raising=False)
        code, out, err = run(capsys, "eval", "false", "--session", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("text, code, where, message", [
        (f"universe a@{TOO_LONG}\n", 4, "1",
         f"a natural of 5000 digits; at most {sys.get_int_max_str_digits()}"),
        ("# two\nlet A = <{a}|{a}|{}>\n", 2, "2", "element a appears in more than one part"),
        ("let A = <{a}|{b}\n", 2, "1:17", "unexpected 'end of input' (expected '>')"),
        ("let A = <{" + "(" * 101 + "a" + ",a)" * 101 + "}|{}|{}>\n", 4, "1:112",
         "literal nested more than 100 deep"),
    ], ids=["guard", "disjointness", "parse", "nesting-guard"])
    def test_errors_name_their_line(self, capsys, tmp_path, text, code, where, message):
        # A parse error, and a guard met at a place in the line, also name
        # their 1-based column in the line.
        path = tmp_path / "s.session"
        path.write_text(text, encoding="utf-8")
        got, out, err = run(capsys, "eval", "false", "--session", str(path))
        assert (got, out, err) == (code, "", f"error: {path}:{where}: {message}\n")

    @pytest.mark.parametrize("text, where, message", [
        ("let A = <{a}|{b|{}>\n", "1:16", "unexpected '|' (expected ',', '}')"),
        ("# c\n\t let  B  =  <{a}|{}\n", "2:21", "unexpected 'end of input' (expected '>')"),
        ("let A = <{}|{}|{}>\nuniverse A  b@x\n", "2:15", "unexpected 'x' (expected natural)"),
        ("universe a\n  universe b\n", "2:3", "universe declared twice"),
        ("universe\n", "1:9", "universe must not be empty"),
        ("let A = <{}|{}|{}>\nlet  A = <{}|{}|{}>\n", "2:6", "name 'A' bound twice"),
        ("let 1A = <{}|{}|{}>\n", "1:5", "expected 'let NAME = <set literal>' (expected NAME)"),
        ("let = <{}|{}|{}>\n", "1:5", "expected 'let NAME = <set literal>' (expected NAME)"),
        ("let  A\n", "1:7", "expected 'let NAME = <set literal>' (expected '=')"),
        ("  bind A = <{}|{}|{}>\n", "1:3", "unknown directive 'bind' (expected #, let, universe)"),
        ("let A B = <{a}|{}|{}>\n", "1:5", "expected 'let NAME = <set literal>' (expected NAME)"),
        ("let\n", "1:4", "expected 'let NAME = <set literal>' (expected NAME)"),
        ("let A == <{a}|{}|{}>\n", "1:8", "unexpected '=' (expected '<')"),
        ("let A = <{a}|{}|{}> junk\n", "1:21", "unexpected 'junk' (expected end of input)"),
        ("universe a,b\n", "1:11", "expected an element (expected '(', identifier, natural)"),
        # The first token names the directive, as whitespace only separates tokens.
        ("<{a}|{}|{}>\n", "1:1", "unknown directive '<' (expected #, let, universe)"),
    ])
    def test_parse_errors_name_their_column(self, capsys, tmp_path, text, where, message):
        path = tmp_path / "s.session"
        path.write_text(text, encoding="utf-8")
        got, out, err = run(capsys, "eval", "false", "--session", str(path))
        assert (got, out, err) == (2, "", f"error: {path}:{where}: {message}\n")

    @pytest.mark.parametrize("name", ["\u216b", "A B", "1A", "\u00b2",
                                      "o", "in", "notin", "false", "forall", "exists"])
    def test_let_names_follow_the_formula_syntax(self, capsys, tmp_path, name):
        path = tmp_path / "s.session"
        path.write_text(f"let {name} = <{{a}}|{{}}|{{}}>\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "false", "--session", str(path))
        assert (code, out, err) == (
            2, "", f"error: {path}:1:5: expected 'let NAME = <set literal>' (expected NAME)\n")

    def test_keyword_atoms_are_members_but_not_names(self, capsys, tmp_path):
        # An atom named by a formula keyword may be a member or a universe
        # entry, but no formula can name it.
        path = tmp_path / "s.session"
        path.write_text("let A = <{o, in}|{}|{}>\nuniverse o in\n", encoding="utf-8")
        assert run(capsys, "eval", "forall x . x in A", "--session", str(path)) == (0, "b\n", "")
        code, out, err = run(capsys, "eval", "o in A", "--session", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_model_binds_realm_atoms(self):
        session = Session(bindings={"A": parse_ncset("<{a}|{}|{}>")})
        model = session_model(session)
        assert model.env["a"] == Atom("a")
        assert model.env["A"] == session.bindings["A"]
        assert model.universe == (Atom("a"),)

    def test_explicit_bindings_beat_atom_names(self):
        session = Session(bindings={"a": parse_ncset("<{a}|{}|{}>")})
        model = session_model(session)
        assert isinstance(model.env["a"], NCSet)


class TestUsage:
    """A command line that fits no command is one error line and exit 2."""

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["parse"], ["parse", "p", "extra"], ["parse", "--bogus", "p"],
        ["eval", "p", "--session"], ["lattice", "x", "1", "1"], ["check", "--cases", "x"],
        ["parse", "p", "a\nb"], ["parse", "--session", "s.session", "p"],
    ], ids=["empty", "unknown-command", "missing", "extra", "unknown-option",
            "option-without-value", "not-an-int", "check-not-an-int", "newline",
            "parse-takes-no-session"])
    def test_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bzfc")
        assert err.endswith("--help)\n")

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["parse", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bzfc parse")

    @pytest.mark.parametrize("command, text, expected", [
        ("parse", "-p", "-p\n"),
        ("parse", "-!p", "-!p\n"),
        ("eval", "-false", "t\n"),
        ("valid", "-p", "invalid\nwitness: p=t\n"),
    ])
    def test_a_formula_may_start_with_minus(self, capsys, command, text, expected):
        assert run(capsys, command, text) == (0, expected, "")

    def test_a_formula_starting_with_two_minuses_goes_after_double_dash(self, capsys):
        assert run(capsys, "parse", "--", "--p") == (0, "--p\n", "")
        code, out, err = run(capsys, "parse", "--p")
        assert (code, out) == (2, "") and err.startswith("error: bzfc parse")


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bzfc", "eval", "false"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "f\n"

    def test_check_exit_code_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bzfc", "check", "--seed", "1", "--cases", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
