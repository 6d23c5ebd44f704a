"""The command-line surface: outputs, exit codes, sessions, round trips."""

import random
import subprocess
import sys

import pytest

from helpers import random_ncset
from bzfc.cardinal import Aleph, Cardinal, Fin, card_of
from bzfc.cli import Session, eval_arith, load_session, main, session_model
from bzfc.errors import ParseError
from bzfc.parareal import ParaReal
from bzfc.sets import Atom, Nat, NCSet, parse_ncset


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

    def test_real_division_identity(self, capsys):
        assert run(capsys, "arith", "--real", "(1 + b) / (1 + b)")[:2] == (0, "1\n")

    def test_real_literals(self, capsys):
        code, out, _ = run(capsys, "arith", "--real", "3/2 + 1/3 b - 2 n")
        assert (code, out) == (0, "3/2 + 1/3 b - 2 n\n")

    def test_cardinal_subtraction_rejected(self, capsys):
        assert run(capsys, "arith", "b - n")[0] == 2
        assert run(capsys, "arith", "1 / b")[0] == 2

    def test_not_invertible_is_a_guard(self, capsys):
        code, _, err = run(capsys, "arith", "--real", "1 / b")
        assert code == 4 and "not invertible" in err

    def test_parse_error(self, capsys):
        assert run(capsys, "arith", "2 +")[0] == 2
        assert run(capsys, "arith", "(1 + b")[0] == 2
        assert run(capsys, "arith", "--real", "aleph0")[0] == 2


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


class TestEvalArith:
    def test_juxtaposition(self):
        assert eval_arith("2b") == Cardinal.finite(0, 2, 0)
        assert eval_arith("aleph0 b") == Cardinal(Fin(0), Aleph(0), Fin(0))
        assert eval_arith("2 b n") == Cardinal.finite(0, 0, 0)

    def test_division_binds_before_juxtaposition(self):
        got = eval_arith("1/3 b", real=True)
        assert got == ParaReal(0, "1/3", 0)

    def test_unary_minus(self):
        assert eval_arith("-b + n", real=True) == ParaReal(0, -1, 1)
        assert eval_arith("- - 2", real=True) == ParaReal(2, 0, 0)

    def test_parens(self):
        assert eval_arith("(1 + b) * (1 + n)") == Cardinal.finite(1, 1, 1)

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
                           else Fin(rng.randint(0, 9)) for _ in range(3)))
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
        assert out.count("ok ") == 6

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
        from bzfc import cli as cli_module
        from bzfc.selfcheck import SuiteResult
        broken = SuiteResult("oracle-random", checks=3,
                             failures=["cong mismatch: <{a}|{}|{}> vs <{}|{}|{}>"])
        monkeypatch.setattr(cli_module.selfcheck, "run_all",
                            lambda seed, cases: [broken])
        code, out, _ = run(capsys, "check", "--seed", "1", "--cases", "5")
        assert code == 5
        assert "FAIL oracle-random" in out
        assert "<{a}|{}|{}>" in out


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
