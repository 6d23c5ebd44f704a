"""The package namespace: names load their modules on first use.

Each check that looks at ``sys.modules`` runs in a fresh interpreter,
since the test process has imported every module already.
"""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import bzfc


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"import sys\n{code}\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "bzfc" or m.startswith("bzfc.")}


def test_import_loads_only_the_package():
    assert package_modules(loaded_after("import bzfc")) == {"bzfc"}


def test_submodules_load_only_what_they_use():
    loaded = loaded_after("from bzfc import checker, formula")
    assert {"bzfc.checker", "bzfc.formula"} <= loaded
    assert not loaded & {"bzfc.cardinal", "bzfc.parareal", "bzfc.numerosity",
                         "bzfc.oracle", "fractions"}


def test_size_comparisons_leave_the_arithmetic_unloaded():
    # perfbench's oracle-pairs workload sets up with just these modules.
    loaded = loaded_after("from bzfc import numerosity, oracle")
    assert {"bzfc.numerosity", "bzfc.oracle"} <= loaded
    assert not loaded & {"bzfc.cardinal", "bzfc.parareal", "fractions"}


def test_a_name_loads_its_home_module():
    loaded = loaded_after("from bzfc import T")
    assert package_modules(loaded) == {"bzfc", "bzfc.truth", "bzfc.value"}


def test_cli_leaves_the_self_check_unloaded():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "bzfc", "parse", "false"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "false\n")
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "bzfc.cli" in imported
    assert "bzfc.selfcheck" not in imported


def bz(*names: str) -> set[str]:
    return {f"bzfc.{name}" for name in names}


# Each command, the modules it needs and modules it must leave unloaded.
COMMANDS = [
    (["parse", "false"], set(),
     bz("cardinal", "parareal", "checker", "numerosity", "oracle", "selfcheck") | {"fractions"}),
    (["valid", "p"], bz("checker"), bz("cardinal", "parareal", "numerosity")),
    (["eval", "false"], bz("checker"), bz("cardinal", "parareal", "numerosity")),
    (["cmp", "<{a}|{}|{}>", "<{}|{b}|{}>"], bz("numerosity"), bz("checker", "cardinal", "parareal")),
    (["card", "<{a}|{}|{}>"], bz("cardinal"), bz("checker")),
    (["arith", "1 + b"], bz("cardinal"), bz("checker")),
    (["lattice", "1", "1", "1"], bz("cardinal"), bz("checker")),
]


@pytest.mark.parametrize("argv, loads, leaves", COMMANDS, ids=[argv[0] for argv, _, _ in COMMANDS])
def test_each_command_loads_only_the_modules_it_calls(argv, loads, leaves):
    loaded = loaded_after("import contextlib, io\nfrom bzfc.cli import main\n"
                          "with contextlib.redirect_stdout(io.StringIO()):\n"
                          f"    assert main({argv!r}) == 0")
    assert loads <= loaded
    assert not loaded & leaves


@pytest.mark.parametrize("name", bzfc.__all__)
def test_every_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"bzfc.{bzfc._HOME[name]}")
    assert getattr(bzfc, name) is home.__dict__[name]


def test_star_import_binds_all_names():
    namespace: dict = {}
    exec("from bzfc import *", namespace)
    assert set(bzfc.__all__) <= set(namespace)
    for name in bzfc.__all__:
        assert namespace[name] is getattr(bzfc, name)


def test_dir_lists_every_name():
    assert set(bzfc.__all__) <= set(dir(bzfc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        bzfc.nope  # noqa: B018
    assert not hasattr(bzfc, "nope")


def test_submodule_import_goes_through_the_import_system():
    from bzfc import cli
    assert cli is sys.modules["bzfc.cli"]


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, counting quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a forward reference such as "NCSet" or "list[Element]"
                names |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


@pytest.mark.parametrize("path", sorted(pathlib.Path(bzfc.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in imports for alias in node.names}
    assert sorted(imported - used_names(tree)) == []


def defined_names(tree: ast.Module) -> list[str]:
    """The functions and classes a module defines, at any depth, and the
    public names its top level assigns; dunder names are protocol, not API."""
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [leaf.id for target in targets for leaf in ast.walk(target)
                  if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)
                  and not leaf.id.startswith("_")]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_named_elsewhere():
    # A function, class or constant that nothing names but its definition is
    # API only the tests read. README's names count as documented API; the
    # export table in __init__.py, the only names that file holds, does not.
    package = pathlib.Path(bzfc.__file__).parent
    root = package.parents[1]
    sources = sorted(package.glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in
                     [*sources, *sorted((root / "perfbench").glob("*.py")), root / "README.md"]
                     if path != package / "__init__.py")
    defined: dict[str, int] = {}
    for path in sources:
        for name in defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            defined[name] = defined.get(name, 0) + 1
    unnamed = [name for name, count in defined.items()
               if len(re.findall(rf"\b{name}\b", text)) <= count]
    assert sorted(unnamed) == []
