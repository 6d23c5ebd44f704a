"""The benchmark's references check the evaluator on every test run.

``perfbench/reference.py`` evaluates formulas with its own two-relation
recursion and imports nothing from ``bzfc``.  Here every op of the
``prop-valid`` and ``fo-eval`` workloads runs once, and its output goes
through the op's own check, as it does in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.mark.parametrize("workload", ["prop_valid", "fo_eval"])
def test_every_op_passes_its_check(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    ops = importlib.import_module(workload).build(SEED, str(tmp_path))
    wrong = [f"{op.key}: {problem}" for op in ops
             if (problem := op.check(op.run())) is not None]
    assert len(ops) > 100 and wrong == []
