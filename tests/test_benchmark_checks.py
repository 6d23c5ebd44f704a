"""The benchmark's references check the program on every test run.

``perfbench/reference.py`` evaluates formulas with its own two-relation
recursion and imports nothing from ``bzfc``.  Here every op of the
four workloads runs once, and its output goes through the op's own
check, as it does in a benchmark run.  So every benchmark input stays
inside the guards, every ``cli-mix`` contract error keeps its exit code
and its single ``error:`` line, and on every ``oracle-pairs`` input the
closed forms agree with the counting oracle.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.mark.parametrize("workload", ["oracle_pairs", "prop_valid", "fo_eval", "cli_mix"])
def test_every_op_passes_its_check(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    ops = importlib.import_module(workload).build(SEED, str(tmp_path))
    wrong = [f"{op.key}: {problem}" for op in ops
             if (problem := op.check(op.run())) is not None]
    assert len(ops) > 100 and wrong == []
