"""Timing with checked outputs, scaled by a probe of the machine's speed.

Every workload is a fixed list of ops.  A round runs each op ``visits``
times, in an order shuffled per round, with one caller in a closed
loop.  Rounds repeat until the time budget is spent (at least
``min_rounds``).

The machine's own speed moves by tens of percent, both within a second
and from one minute to the next, and no number of rounds in one run
averages out the slow minutes.  So the harness also runs a fixed
pure-Python probe, which never touches the program, after every
``PROBE_EVERY_S`` of op time.  Each op's time is the trimmed mean of its
visits, scaled by ``PROBE_REF_S`` / (trimmed mean probe time of the
run): the time the op would take on this machine when the probe takes
``PROBE_REF_S``.  The probe shares the slow and fast phases of the ops
around it, so the scaling cancels them.

Short timings are bimodal (fast, or slowed by a neighbour), so a median
jumps from one mode to the other as the slow share nears a half; a mean
moves smoothly with that share, in the ops and in the probe alike.  The
trim (``TRIM`` of the samples at each end) drops rare long stalls.  See
README.md for the figures that led to this over best-of-rounds.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable, NamedTuple

PROBE_EVERY_S = 0.01
PROBE_REF_S = 0.5e-3
TRIM = 0.1


def probe() -> int:
    """Fixed interpreter work: dict, tuple and str operations."""
    counts: dict = {}
    for i in range(1500):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + len(str(i))
    return len(counts)


class Op(NamedTuple):
    """One unit of work: ``run`` is timed, ``check`` is not.

    ``check(output)`` returns None when the output is right, otherwise a
    one-line description of what is wrong.  ``visits`` is fixed by the
    workload's design, never by timing, so every round attempts the same
    ops the same number of times.  Cheap ops get several visits: they
    cost little and more samples steady their mean.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    visits: int = 1


class Result(NamedTuple):
    samples: list[list[float]]  # per op, the time of every visit that succeeded
    probes: list[float]         # every probe time
    rounds: int
    attempted: int
    failed: int
    wrong: list[str]            # outputs that failed their check
    faults: list[str]           # ops that raised
    round_times: list[float]    # per round, the summed time of the timed regions


def visit_list(ops: list[Op]) -> list[int]:
    return [i for i, op in enumerate(ops) for _ in range(op.visits)]


class Sampler:
    """Runs rounds of ops and probes and keeps what they measured."""

    def __init__(self, ops: list[Op], clock=time.perf_counter, probe_fn=probe):
        self.ops = ops
        self.clock = clock
        self.probe_fn = probe_fn
        self.visits = visit_list(ops)
        self.samples: list[list[float]] = [[] for _ in ops]
        self.verified: list = [None] * len(ops)
        self.probes: list[float] = []
        self.wrong: list[str] = []
        self.faults: list[str] = []
        self.round_times: list[float] = []
        self.failed = 0
        self._since_probe = 0.0

    def round(self, rng, around: Callable[[int], Any] | None = None) -> float:
        """One round in a fresh shuffled order; returns its timed seconds.

        An output equal to one this op already produced and passed is not
        checked again: the program is deterministic, so only a change of
        output needs a fresh check.  ``around(i)`` may return a context
        manager entered around each timed call (the tracer uses it)."""
        clock = self.clock
        order = list(self.visits)
        rng.shuffle(order)
        total = 0.0
        for i in order:
            op = self.ops[i]
            ctx = around(i) if around is not None else None
            try:
                if ctx is None:
                    t0 = clock()
                    out = op.run()
                    elapsed = clock() - t0
                else:
                    with ctx:
                        t0 = clock()
                        out = op.run()
                        elapsed = clock() - t0
            except Exception as err:  # a fault in the program: count it, keep measuring
                self.failed += 1
                self.faults.append(f"{op.key}: {type(err).__name__}")
                continue
            if self.verified[i] is None or out != self.verified[i]:
                problem = op.check(out)
                if problem is not None:
                    self.failed += 1
                    self.wrong.append(f"{op.key}: {problem}")
                    continue
                self.verified[i] = out
            total += elapsed
            self.samples[i].append(elapsed)
            self._since_probe += elapsed
            while self._since_probe >= PROBE_EVERY_S:
                self._since_probe -= PROBE_EVERY_S
                self.probes.append(timed_probe(clock, self.probe_fn))
        self.round_times.append(total)
        return total

    def result(self) -> Result:
        rounds = len(self.round_times)
        return Result(self.samples, self.probes, rounds, rounds * len(self.visits),
                      self.failed, self.wrong, self.faults, self.round_times)


def measure(ops: list[Op], seconds: float, rng, min_rounds: int = 3,
            clock=time.perf_counter, probe_fn=probe, traced_round=None) -> Result:
    """Whole steps until ``seconds`` would be exceeded by one more.

    A step is one round, or with ``traced_round`` two: a plain round and
    then one inside ``traced_round(step)``, a context manager whose value
    is that round's ``around`` callback.  Round times then alternate
    plain and traced."""
    sampler = Sampler(ops, clock, probe_fn)
    start = clock()
    while True:
        step_start = clock()
        sampler.round(rng)
        if traced_round is not None:
            with traced_round(len(sampler.round_times) // 2) as around:
                sampler.round(rng, around)
        now = clock()
        if len(sampler.round_times) >= min_rounds and now - start + (now - step_start) > seconds:
            break
    return sampler.result()


def timed_probe(clock=time.perf_counter, probe_fn=probe) -> float:
    t0 = clock()
    probe_fn()
    return clock() - t0


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def trimmed_mean(values: list[float]) -> float:
    """Mean after dropping ``TRIM`` of the values at each end."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def scale(result: Result) -> float:
    """Factor that takes this run's times to a probe time of PROBE_REF_S."""
    if not result.probes:
        raise ValueError("no probe ran")
    return PROBE_REF_S / trimmed_mean(result.probes)


def op_times(result: Result) -> list[float]:
    """Scaled time of every op that succeeded at least once."""
    factor = scale(result)
    return [trimmed_mean(s) * factor for s in result.samples if s]


def end_to_end(result: Result) -> dict[str, float]:
    """ops_per_s, op_p50_ms and op_p90_ms over the ops that succeeded."""
    times = op_times(result)
    if not times:
        raise ValueError("no op succeeded")
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": percentile(times, 0.9) * 1e3,
    }
