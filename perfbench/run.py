"""Benchmark for bzfc: one workload per run, results as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the same object,
with each op's best time and each round's time, is written to
``perfbench/out/``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics (see README.md).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

import cli_mix  # noqa: E402  (the benchmark's own modules; none imports bzfc at load)
import fo_eval  # noqa: E402
import harness  # noqa: E402
import oracle_pairs  # noqa: E402
import prop_valid  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = {
    "oracle-pairs": oracle_pairs.build,
    "prop-valid": prop_valid.build,
    "fo-eval": fo_eval.build,
    "cli-mix": cli_mix.build,
}
SETUPS = 7          # set-ups per run; setup_s is their median
SETUP_PROBES = 10   # probes before, between and after the set-ups
MIN_ROUNDS = 3
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str]) -> dict:
    spec = {"--workload": str, "--seed": int, "--seconds": float, "--trace": int}
    if len(argv) != 2 * len(spec):
        raise SystemExit(f"usage: run.py {' '.join(f'{k} V' for k in spec)}")
    args = {}
    for flag, text in zip(argv[::2], argv[1::2]):
        if flag not in spec or flag in args:
            raise SystemExit(f"unknown or repeated argument {flag}")
        try:
            args[flag] = spec[flag](text)
        except ValueError:
            raise SystemExit(f"bad value for {flag}: {text!r}") from None
    if args["--workload"] not in WORKLOADS:
        raise SystemExit(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    if args["--trace"] not in (0, 1) or args["--seconds"] <= 0:
        raise SystemExit("--trace is 0 or 1 and --seconds is positive")
    return {k[2:]: v for k, v in args.items()}


def setup(build, seed: int, workdir: str, baseline: set[str]) -> tuple[float, list]:
    """Import bzfc afresh and build the workload's ops; returns (seconds, ops).

    Every module imported since ``baseline`` is dropped first, so each
    set-up pays for importing the program and what it pulls in."""
    for name in list(sys.modules):
        if name not in baseline:
            del sys.modules[name]
    t0 = time.perf_counter()
    import bzfc
    ops = build(seed, workdir)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(bzfc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bzfc imported from {bzfc.__file__}, not from {SRC}")
    return elapsed, ops


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bzfc", "__init__.py")):
        print(f"error: no program source at {SRC}/bzfc", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    name, seed = args["workload"], args["seed"]
    workdir = os.path.join(OUT_DIR, name)
    os.makedirs(workdir, exist_ok=True)

    baseline = set(sys.modules)
    setups, setup_probes = [], []
    for _ in range(SETUPS):
        setup_probes += [harness.timed_probe() for _ in range(SETUP_PROBES)]
        elapsed, ops = setup(WORKLOADS[name], seed, workdir, baseline)
        setups.append(elapsed)
    setup_probes += [harness.timed_probe() for _ in range(SETUP_PROBES)]
    order_rng = random.Random(seed)

    if args["trace"]:
        result, metrics = traced_run(ops, args["seconds"], order_rng,
                                     os.path.join(OUT_DIR, f"spans-{name}-{seed}.tsv"))
        units = dict(tracing.PER_LAYER)
    else:
        result = harness.measure(ops, args["seconds"], order_rng, MIN_ROUNDS)
        metrics = harness.end_to_end(result)
        # The set-ups all run in the first second, so they are scaled by
        # the probes around them, not by the run's.
        metrics["setup_s"] = (statistics.median(setups) * harness.PROBE_REF_S
                              / harness.trimmed_mean(setup_probes))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS

    for line in (result.wrong + result.faults)[:20]:
        print(f"failed: {line}", file=sys.stderr)
    report = {
        "correct": not result.wrong,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    text = json.dumps(report)
    detail = dict(report, rounds=result.rounds, round_seconds=result.round_times,
                  setup_seconds=setups,
                  setup_probe_mean_ms=harness.trimmed_mean(setup_probes) * 1e3,
                  probes=len(result.probes),
                  probe_mean_ms=harness.trimmed_mean(result.probes) * 1e3,
                  probe_min_ms=min(result.probes) * 1e3,
                  mean_ms={op.key: harness.trimmed_mean(t) * 1e3
                           for op, t in zip(ops, result.samples) if t},
                  best_ms={op.key: min(t) * 1e3 for op, t in zip(ops, result.samples) if t})
    with open(os.path.join(OUT_DIR, f"result-{name}-{seed}-trace{args['trace']}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{name} seed {seed}: {result.rounds} rounds of {len(ops)} ops; round seconds "
          + " ".join(f"{t:.3f}" for t in result.round_times), file=sys.stderr)
    print(text)
    return 0


def traced_run(ops, seconds: float, rng, spans_path: str):
    """Plain and traced rounds in turn; per-layer metrics per traced round.

    The first round is plain, so outputs are checked before any traced
    round and no check runs while the wrappers count."""
    tracer = tracing.Tracer()

    @contextlib.contextmanager
    def traced_round(step: int):
        tracer.round = step
        tracer.install()
        try:
            yield lambda i: tracer.op_span(ops[i].key)
        finally:
            tracer.uninstall()

    result = harness.measure(ops, seconds, rng, min_rounds=2, traced_round=traced_round)
    plain = statistics.median(result.round_times[0::2])
    traced = statistics.median(result.round_times[1::2])
    metrics = tracer.metrics(result.rounds // 2)
    metrics["cli.startup_ms"] = tracing.startup_ms(ROOT)
    metrics["trace.overhead_pct"] = (traced - plain) / plain * 100
    tracer.write_spans(spans_path)
    return result, metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
