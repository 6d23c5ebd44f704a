"""The benchmark's tracer (``perfbench/tracer.py``) wraps entry points by
name: ``holder.__dict__[attr]`` for every entry of its ``BOUNDARIES`` and
``COUNTED`` tables.  A name that moves, is renamed or is inherited from a
base class makes a traced run (``--trace 1``) fail with ``KeyError``, so
each one is checked here.  The tables are read from the file's syntax
tree; the benchmark's code is not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def table(name: str) -> tuple:
    """The literal value assigned to ``name`` at the top of the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACER}")


HOOKS = ([(module, owner, attr) for module, owner, attr, _ in table("BOUNDARIES")]
         + [(module, None, attr) for module, attr in table("COUNTED")])


@pytest.mark.parametrize("module, owner, attr", HOOKS,
                         ids=[".".join(filter(None, hook)) for hook in HOOKS])
def test_hook_is_defined_where_the_tracer_looks(module, owner, attr):
    holder = importlib.import_module(f"bzfc.{module}")
    if owner:
        holder = holder.__dict__[owner]
    assert attr in holder.__dict__


def test_cli_binds_the_library_entry_points_it_calls(monkeypatch):
    # The tracer swaps a wrapper in wherever a loaded module binds an entry
    # point.  The commands import the library's functions when they run, so
    # they read each one from its module at call time and reach the wrapper;
    # ``eval_arith`` and ``parse_formula`` are bound in ``cli`` itself.
    from bzfc import cardinal, checker, cli, formula, numerosity
    assert cli.parse_formula is formula.parse
    reached = []

    def spy(holder, name):
        original = getattr(holder, name)
        monkeypatch.setattr(holder, name,
                            lambda *args, **kwargs: reached.append(name) or original(*args, **kwargs))

    sets = ["<{a}|{}|{}>", "<{}|{b}|{}>"]
    for holder, name, argv in [(checker, "evaluate", ["eval", "false"]),
                               (checker, "valid_prop", ["valid", "p"]),
                               (cli, "eval_arith", ["arith", "b"]),
                               (numerosity, "cong_tv", ["cmp", *sets]),
                               (numerosity, "preceq_tv", ["cmp", *sets]),
                               (cardinal, "lattice_dot", ["lattice", "1", "0", "0"])]:
        spy(holder, name)
        assert cli.main(argv) == 0
        assert reached[-1:] == [name], argv


def test_parser_writes_out_restricted_binders_through_desugar(monkeypatch):
    # The tracer's formula.desugar group counts restricted binders only
    # while the parser calls desugar through the module's global name.
    from bzfc import formula
    calls, desugar = [], formula.desugar

    def counting(*args):
        calls.append(args)
        return desugar(*args)

    monkeypatch.setattr(formula, "desugar", counting)
    formula.parse("forall x in A . exists y in B . x = y")
    assert len(calls) == 2
