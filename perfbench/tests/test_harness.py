"""Rounds, probes, scaling, percentiles and failure counting on synthetic timings."""

import random

import pytest

import harness
from harness import Op


class FakeClock:
    """Time moves only when a scripted op or probe says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _ops(clock, durations_by_round):
    """Op i takes durations_by_round[r][i] on its r-th call."""
    calls = [0] * len(durations_by_round[0])

    def make(i):
        def run():
            clock.now += durations_by_round[min(calls[i], len(durations_by_round) - 1)][i]
            calls[i] += 1
            return i

        return Op(f"op{i}", run, lambda out, i=i: None if out == i else "wrong")

    return [make(i) for i in range(len(calls))]


def _probe(clock, seconds):
    def run():
        clock.now += seconds
        return 0

    return run


def _measure(ops, clock, probe_s=0.001, **kw):
    kw.setdefault("seconds", 0.0)
    return harness.measure(ops, rng=random.Random(1), clock=clock,
                           probe_fn=_probe(clock, probe_s), **kw)


def test_every_visit_is_sampled_and_probed():
    clock = FakeClock()
    rounds = [[0.5, 0.2, 0.9], [0.3, 0.4, 0.1], [0.6, 0.1, 0.2]]
    result = _measure(_ops(clock, rounds), clock, min_rounds=3)
    assert [sorted(s) for s in result.samples] == [
        pytest.approx(sorted(x)) for x in ([0.5, 0.3, 0.6], [0.2, 0.4, 0.1], [0.9, 0.1, 0.2])]
    assert result.rounds == 3 and result.attempted == 9 and result.failed == 0
    assert result.round_times == pytest.approx([1.6, 0.8, 0.9])
    # One probe per PROBE_EVERY_S of op time.
    assert len(result.probes) == pytest.approx(3.3 / harness.PROBE_EVERY_S, abs=1)


def test_times_are_means_scaled_to_the_reference_probe():
    clock = FakeClock()
    ops = _ops(clock, [[0.010, 0.020], [0.030, 0.020], [0.020, 0.020]])
    # The probe takes twice the reference time: the machine runs slow,
    # so every op's mean is halved.
    result = _measure(ops, clock, probe_s=2 * harness.PROBE_REF_S, min_rounds=3)
    assert harness.scale(result) == pytest.approx(0.5)
    assert harness.op_times(result) == pytest.approx([0.010, 0.010])
    metrics = harness.end_to_end(result)
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.020)
    assert metrics["op_p50_ms"] == pytest.approx(10.0)
    assert metrics["op_p90_ms"] == pytest.approx(10.0)


def test_rounds_are_whole_and_fill_the_budget():
    clock = FakeClock()
    # Probes cost nothing here, so each round takes exactly 0.5 s; another
    # round starts only if it should end within the budget.
    result = _measure(_ops(clock, [[0.125] * 4]), clock, probe_s=0.0, seconds=2.0, min_rounds=1)
    assert result.rounds == 4
    assert result.attempted == 16


def test_traced_rounds_follow_plain_ones_in_whole_steps():
    import contextlib

    clock = FakeClock()
    wrapped = []

    @contextlib.contextmanager
    def traced_round(step):
        wrapped.append(("enter", step))
        yield lambda i: contextlib.nullcontext(wrapped.append(("op", step, i)))
        wrapped.append(("exit", step))

    # Each round takes 0.5 s, so a step of two rounds takes 1 s and two
    # steps fill a 2.5 s budget.
    result = _measure(_ops(clock, [[0.25, 0.25]]), clock, probe_s=0.0, seconds=2.5,
                      min_rounds=2, traced_round=traced_round)
    assert result.rounds == 4 and result.attempted == 8
    assert result.round_times == pytest.approx([0.5] * 4)
    assert [w for w in wrapped if w[0] != "op"] == [
        ("enter", 0), ("exit", 0), ("enter", 1), ("exit", 1)]
    assert sorted(w for w in wrapped if w[0] == "op") == [
        ("op", 0, 0), ("op", 0, 1), ("op", 1, 0), ("op", 1, 1)]


def test_every_visit_is_an_attempt():
    clock = FakeClock()
    ops = [op._replace(visits=v) for op, v in zip(_ops(clock, [[0.25, 0.5]]), (3, 1))]
    result = _measure(ops, clock, min_rounds=2)
    assert result.rounds == 2 and result.attempted == 8
    assert [len(s) for s in result.samples] == [6, 2]
    assert result.round_times == pytest.approx([1.25, 1.25])


def test_faults_and_wrong_outputs_are_failed_ops():
    clock = FakeClock()

    def boom():
        clock.now += 0.01
        raise RecursionError("deep")

    def slow_ok():
        clock.now += 0.02
        return 1

    ops = [Op("ok", slow_ok, lambda out: None),
           Op("fault", boom, lambda out: None),
           Op("wrong", lambda: 2, lambda out: "not two")]
    result = _measure(ops, clock, min_rounds=2)
    assert result.attempted == 6 and result.failed == 4
    assert result.faults == ["fault: RecursionError"] * 2
    assert result.wrong == ["wrong: not two"] * 2
    assert [len(s) for s in result.samples] == [2, 0, 0]
    assert len(harness.op_times(result)) == 1


def test_trimmed_mean_drops_both_ends():
    values = [100.0] + [1.0] * 8 + [-100.0]
    assert harness.trimmed_mean(values) == 1.0
    assert harness.trimmed_mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        harness.trimmed_mean([])


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]   # 1..100
    assert harness.percentile(values, 0.5) == pytest.approx(50.5)
    assert harness.percentile(values, 0.9) == pytest.approx(90.1)
    assert sum(v > harness.percentile(values, 0.9) for v in values) == 10
    assert harness.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_end_to_end_needs_a_success_and_a_probe():
    empty = harness.Result([[]], [0.001], 1, 1, 1, [], ["x: E"], [0.0])
    with pytest.raises(ValueError):
        harness.end_to_end(empty)
    unprobed = harness.Result([[0.001]], [], 1, 1, 0, [], [], [0.001])
    with pytest.raises(ValueError):
        harness.end_to_end(unprobed)


def test_probe_does_fixed_work():
    assert harness.probe() == harness.probe() == 1500
