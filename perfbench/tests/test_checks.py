"""The workloads' inputs and output checks.

A wrong answer from the program must be caught by the check and counted
as a failed op; on the program as it is, only the four known faults of
cli-mix fail.
"""

import itertools
import random

import cli_mix
import fo_eval
import harness
import oracle_pairs
import prop_valid
import reference as ref


def _one_round(ops):
    return harness.measure(ops, seconds=0.0, rng=random.Random(0), min_rounds=1)


def _flip(tv):
    from bzfc.truth import neg
    return neg(tv)


# ---------------------------------------------------------------------------
# Inputs


def test_schemata_are_valid():
    for schema in prop_valid.SCHEMATA:
        metas = [("letter", f"m{i}") for i in range(prop_valid._arity(schema))]
        f = prop_valid._substitute(schema, metas)
        for values in itertools.product("tbnf", repeat=len(metas)):
            env = {m[1]: ref.FLAGS_OF[v] for m, v in zip(metas, values)}
            assert ref.value(f, env=env)[0], (ref.render(f), values)


def test_invalid_formulas_fail_first_where_built_to():
    for key, f, kind, expect in prop_valid.formulas(7):
        names = sorted(ref.letters(f))
        if len(names) > 4:
            continue
        first = None
        for values in itertools.product("tbnf", repeat=len(names)):
            env = {n: ref.FLAGS_OF[v] for n, v in zip(names, values)}
            if not ref.value(f, env=env)[0]:
                first = values
                break
        assert first == expect, key


def test_seed_changes_inputs_not_their_shape():
    a, b = oracle_pairs.inputs(1), oracle_pairs.inputs(2)
    assert a != b
    sizes = [[tuple(map(len, x)) for x in (pa, pb)] for _, pa, pb in a]
    assert sizes == [[tuple(map(len, x)) for x in (pa, pb)] for _, pa, pb in b]
    fa, fb = prop_valid.formulas(1), prop_valid.formulas(2)
    assert [ref.render(x[1]) for x in fa] != [ref.render(x[1]) for x in fb]
    assert [(x[0], len(ref.letters(x[1]))) for x in fa] == [(x[0], len(ref.letters(x[1]))) for x in fb]
    assert len({ref.render(x[1]) for x in fa}) == len(fa) >= 100
    assert len(fo_eval.cases(1)) >= 100
    assert len(oracle_pairs.inputs(1)) >= 356


def test_inputs_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    code = """
import cli_mix, fo_eval, oracle_pairs, prop_valid

def canon(x):  # a set's repr follows the hash seed, its content must not
    if isinstance(x, (set, frozenset)):
        return sorted(map(canon, x), key=repr)
    if isinstance(x, (tuple, list)):
        return [canon(y) for y in x]
    if isinstance(x, dict):
        return sorted((k, canon(v)) for k, v in x.items())
    return x

print(canon([cli_mix.script(5), prop_valid.formulas(5), fo_eval.cases(5),
             oracle_pairs.inputs(5)]))
"""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = {subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed}).stdout
               for hash_seed in ("1", "2")}
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# Checks


def test_cli_mix_fails_only_the_known_faults(tmp_path):
    ops = cli_mix.build(3, str(tmp_path))
    result = _one_round(ops)
    assert result.wrong == []
    assert sorted(result.faults) == ["fault/0: ValueError", "fault/1: RecursionError",
                                     "fault/2: IsADirectoryError",
                                     "fault/3: UnicodeDecodeError"]
    assert len(ops) >= 100


def test_flipped_verdict_is_a_failed_op(monkeypatch):
    from bzfc import checker

    evaluate = checker.evaluate
    monkeypatch.setattr(checker, "evaluate", lambda f, m: _flip(evaluate(f, m)))
    ops = [op for op in fo_eval.build(1, "") if op.key.startswith(("q0", "q1", "q2"))]
    result = _one_round(ops)
    flipped = [w for w in result.wrong if "reference" in w]
    assert flipped and result.failed == len(result.wrong)
    assert result.attempted == sum(op.visits for op in ops)


def test_flipped_validity_is_a_failed_op(monkeypatch):
    from bzfc import checker

    valid_prop = checker.valid_prop

    def flipped(f):
        ok, witness = valid_prop(f)
        return (not ok), witness

    monkeypatch.setattr(checker, "valid_prop", flipped)
    ops = [op for op in prop_valid.build(1, "") if "/k1/" in op.key or "/k2/" in op.key]
    result = _one_round(ops)
    assert result.failed == sum(op.visits for op in ops) == len(result.wrong)


def test_flipped_oracle_is_a_failed_op(monkeypatch):
    from bzfc import oracle

    cong_brute = oracle.cong_brute
    monkeypatch.setattr(oracle, "cong_brute", lambda a, b: _flip(cong_brute(a, b)))
    ops = [op for op in oracle_pairs.build(1, "") if op.key.startswith("two-atom/")][:40]
    result = _one_round(ops)
    assert result.wrong
    assert all("oracle" in w for w in result.wrong)


def test_wrong_arith_is_a_failed_op(monkeypatch, tmp_path):
    from bzfc import cardinal

    def componentwise(x, y):  # forgets b*b = b, and b*n = 0 holds by accident
        return cardinal.Cardinal(x.kt * y.kt, x.kb * y.kb, x.kn * y.kn)

    monkeypatch.setattr(cardinal.Cardinal, "__mul__", componentwise)
    ops = [op for op in cli_mix.build(1, str(tmp_path)) if op.key.startswith("arith/")]
    result = _one_round(ops)
    assert result.wrong and result.failed == len(result.wrong)


def test_wrong_lattice_is_a_failed_op(monkeypatch, tmp_path):
    from bzfc import cardinal

    finite_lattice = cardinal.finite_lattice

    def short(bounds):
        nodes, edges = finite_lattice(bounds)
        return nodes[:-1], edges

    monkeypatch.setattr(cardinal, "finite_lattice", short)
    ops = [op for op in cli_mix.build(1, str(tmp_path)) if op.key.startswith("lattice/")]
    result = _one_round(ops)
    assert len(result.wrong) == len(ops)


def test_parse_that_prints_another_formula_is_a_failed_op(monkeypatch, tmp_path):
    from bzfc import cli, formula

    def drop_right(f):  # prints only the left side of a binary connective
        return formula.render(getattr(f, "left", f))

    monkeypatch.setattr(cli, "render", drop_right)
    ops = [op for op in cli_mix.build(1, str(tmp_path)) if op.key.startswith("parse/")]
    result = _one_round(ops)
    assert result.wrong and all("not the input formula" in w for w in result.wrong)

    monkeypatch.setattr(cli, "render", lambda f: "false")
    result = _one_round(ops)
    assert len(result.wrong) == len(ops)


def test_lattice_with_wrong_edges_is_a_failed_op(monkeypatch, tmp_path):
    from bzfc import cardinal

    finite_lattice = cardinal.finite_lattice

    def reversed_edges(bounds):
        nodes, edges = finite_lattice(bounds)
        return nodes, [(dst, src) for src, dst in edges]

    def no_edges(bounds):
        return finite_lattice(bounds)[0], []

    ops = [op for op in cli_mix.build(1, str(tmp_path))
           if op.key.startswith("lattice/") and op.key != "lattice/000"]
    for wrong in (reversed_edges, no_edges):
        monkeypatch.setattr(cardinal, "finite_lattice", wrong)
        result = _one_round(ops)
        assert len(result.wrong) == len(ops), wrong.__name__
