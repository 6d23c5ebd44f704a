"""Per-layer tracing from outside the program.

The tracer replaces public entry points of the ``bzfc`` modules with
wrappers for the length of a traced round and puts the originals back
afterwards; the untraced rounds run the program untouched.

Every wrapped entry point belongs to a boundary group such as
``sets.image``.  A call entering a group from outside it opens a span
(name, start, end, parent span, op); a call made while the same group is
already innermost only counts, so recursion and a group's calls to
itself stay inside the enclosing span.  A span's self time is its
duration minus the time its child spans cover.

Spans of the high-frequency leaf groups (``LEAF``), which can run
millions of times per round, are folded into their parent as they close
instead of being stored; every other span is kept in memory and written
out once, at the end.  ``bzfc.truth`` cannot be wrapped from outside:
``checker`` binds the connectives into tables at import and ``sets``
imports ``conj``/``disj`` by name, so its cost sits inside the callers'
self time.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time
from collections import defaultdict

# (module, owner class or None, attribute, group)
BOUNDARIES = (
    ("oracle", None, "cong_brute", "oracle"),
    ("oracle", None, "preceq_brute", "oracle"),
    ("sets", "ClassicalFn", "image", "sets.image"),
    ("sets", "NCSet", "eq_tv", "sets.relate"),
    ("sets", "NCSet", "subset_tv", "sets.relate"),
    ("sets", "NCSet", "member_tv", "sets.member_tv"),
    ("sets", None, "parse_ncset", "sets.parse_ncset"),
    ("numerosity", None, "cong_tv", "numerosity"),
    ("numerosity", None, "preceq_tv", "numerosity"),
    ("checker", None, "valid_prop", "checker.valid"),
    ("checker", None, "evaluate", "checker.evaluate"),
    ("formula", None, "parse", "formula.parse"),
    ("formula", None, "desugar", "formula.desugar"),
    ("formula", None, "render", "formula.render"),
    ("cardinal", None, "lattice_dot", "cardinal.lattice"),
    ("cardinal", "Cardinal", "__add__", "cardinal.arith"),
    ("cardinal", "Cardinal", "__mul__", "cardinal.arith"),
    ("cardinal", "Cardinal", "le_tv", "cardinal.compare"),
    ("cardinal", "Cardinal", "eq_tv", "cardinal.compare"),
    ("parareal", "ParaReal", "__add__", "parareal"),
    ("parareal", "ParaReal", "__sub__", "parareal"),
    ("parareal", "ParaReal", "__mul__", "parareal"),
    ("parareal", "ParaReal", "__neg__", "parareal"),
    ("parareal", "ParaReal", "__truediv__", "parareal"),
    ("parareal", "ParaReal", "inverse", "parareal"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "load_session", "cli.session"),
    ("cli", None, "session_model", "cli.session"),
    ("cli", None, "eval_arith", "cli.arith"),
)

# Count-only boundaries: no span, only work counts.
COUNTED = (
    ("oracle", "enumerate_countings"),  # oracle.countings: countings yielded
    ("checker", "eval_prop"),           # checker.nodes, checker.assignments
    ("cardinal", "finite_lattice"),     # cardinal.lattice_edges
)

# Groups whose first argument is input text: count its characters.
CHARS = {"formula.parse": "formula.parse_chars", "sets.parse_ncset": "sets.parse_ncset_chars"}

LEAF = frozenset({"sets.image", "sets.relate", "sets.member_tv", "numerosity",
                  "cardinal.arith", "cardinal.compare", "parareal"})

PER_LAYER = (
    ("oracle.calls", "count"), ("oracle.countings", "count"),
    ("oracle.countings_per_call", "ratio"), ("oracle.self_ms", "ms"),
    ("sets.image_calls", "count"), ("sets.image_ms", "ms"),
    ("sets.relate_calls", "count"), ("sets.relate_ms", "ms"),
    ("sets.member_tv_calls", "count"), ("sets.member_tv_ms", "ms"),
    ("sets.parse_ncset_chars", "count"), ("sets.parse_ncset_ms", "ms"),
    ("numerosity.calls", "count"), ("numerosity.ms", "ms"),
    ("checker.valid_calls", "count"), ("checker.assignments", "count"),
    ("checker.nodes", "count"), ("checker.assignments_per_valid", "ratio"),
    ("checker.valid_self_ms", "ms"),
    ("checker.evaluate_calls", "count"), ("checker.evaluate_self_ms", "ms"),
    ("formula.parse_calls", "count"), ("formula.parse_chars", "count"),
    ("formula.parse_ms", "ms"), ("formula.parse_us_per_char", "us"),
    ("formula.desugar_calls", "count"), ("formula.desugar_ms", "ms"),
    ("formula.render_ms", "ms"),
    ("cardinal.lattice_edges", "count"), ("cardinal.lattice_ms", "ms"),
    ("cardinal.arith_calls", "count"), ("cardinal.compare_calls", "count"),
    ("cardinal.ms", "ms"),
    ("parareal.calls", "count"), ("parareal.ms", "ms"),
    ("cli.main_calls", "count"), ("cli.main_self_ms", "ms"),
    ("cli.session_load_ms", "ms"), ("cli.arith_parse_self_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class _Frame:
    __slots__ = ("group", "start", "child", "span")

    def __init__(self, group: str, start: float, span: int):
        self.group = group
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Spans, counts and per-group times for one run."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []       # (id, parent id, round, op, group, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.round = 0
        self.op = ""
        self._eval_depth = 0
        self._next_span = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, group: str) -> _Frame:
        self._next_span += 1
        frame = _Frame(group, 0.0, self._next_span)
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        group = frame.group
        self.calls[group] += 1
        self.incl[group] += duration
        self.self_[group] += duration - frame.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
        if group not in LEAF:
            self.spans.append((frame.span, parent.span if parent else -1, self.round,
                               self.op, group, frame.start, end))

    def op_span(self, key: str):
        return _OpSpan(self, key)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, group: str):
        tracer = self
        stack = self.stack
        chars = CHARS.get(group)

        def traced(*args, **kwargs):
            if not stack or stack[-1].group == group:
                return fn(*args, **kwargs)
            if chars:
                tracer.counts[chars] += len(args[0])
            frame = tracer.open(group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        traced.__wrapped__ = fn
        return traced

    def _wrap_counted(self, fn, name: str):
        tracer = self
        counts = self.counts
        if name == "enumerate_countings":
            def traced(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if tracer.stack:
                        counts["oracle.countings"] += 1
                    yield item
        elif name == "eval_prop":
            def traced(*args, **kwargs):
                if tracer.stack:
                    counts["checker.nodes"] += 1
                    if tracer._eval_depth == 0:
                        counts["checker.assignments"] += 1
                tracer._eval_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._eval_depth -= 1
        else:
            def traced(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.stack:
                    counts["cardinal.lattice_edges"] += len(result[1])
                return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every boundary in the currently imported ``bzfc``."""
        modules = {name: importlib.import_module(f"bzfc.{name}")
                   for name in ("oracle", "sets", "numerosity", "checker", "formula",
                                "cardinal", "parareal", "cli")}
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "bzfc" or name.startswith("bzfc."))]
        replacements = []
        for mod_name, owner, attr, group in BOUNDARIES:
            holder = getattr(modules[mod_name], owner) if owner else modules[mod_name]
            original = holder.__dict__[attr]
            replacements.append((holder, attr, original, self._wrap(original, group), owner))
        for mod_name, attr in COUNTED:
            original = modules[mod_name].__dict__[attr]
            replacements.append((modules[mod_name], attr, original,
                                 self._wrap_counted(original, attr), None))
        for holder, attr, original, wrapper, owner in replacements:
            if owner:
                self._set(holder, attr, wrapper)
                continue
            # Module functions are also bound by name in other modules
            # (``cli`` imports ``evaluate``, ``parse as parse_formula``, ...).
            for module in loaded:
                for name, obj in list(vars(module).items()):
                    if obj is original:
                        self._set(module, name, wrapper)

    def _set(self, holder, attr, value) -> None:
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        c, incl, self_, k = self.calls, self.incl, self.self_, self.counts

        def per(x):
            return x / rounds

        def ms(x):
            return x * 1e3 / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        parse_ms = ms(incl["formula.parse"])
        parse_chars = per(k["formula.parse_chars"])
        return {
            "oracle.calls": per(c["oracle"]),
            "oracle.countings": per(k["oracle.countings"]),
            "oracle.countings_per_call": ratio(k["oracle.countings"], c["oracle"]),
            "oracle.self_ms": ms(self_["oracle"]),
            "sets.image_calls": per(c["sets.image"]),
            "sets.image_ms": ms(incl["sets.image"]),
            "sets.relate_calls": per(c["sets.relate"]),
            "sets.relate_ms": ms(incl["sets.relate"]),
            "sets.member_tv_calls": per(c["sets.member_tv"]),
            "sets.member_tv_ms": ms(incl["sets.member_tv"]),
            "sets.parse_ncset_chars": per(k["sets.parse_ncset_chars"]),
            "sets.parse_ncset_ms": ms(incl["sets.parse_ncset"]),
            "numerosity.calls": per(c["numerosity"]),
            "numerosity.ms": ms(incl["numerosity"]),
            "checker.valid_calls": per(c["checker.valid"]),
            "checker.assignments": per(k["checker.assignments"]),
            "checker.nodes": per(k["checker.nodes"]),
            "checker.assignments_per_valid": ratio(k["checker.assignments"], c["checker.valid"]),
            "checker.valid_self_ms": ms(self_["checker.valid"]),
            "checker.evaluate_calls": per(c["checker.evaluate"]),
            "checker.evaluate_self_ms": ms(self_["checker.evaluate"]),
            "formula.parse_calls": per(c["formula.parse"]),
            "formula.parse_chars": parse_chars,
            "formula.parse_ms": parse_ms,
            "formula.parse_us_per_char": ratio(parse_ms * 1e3, parse_chars),
            "formula.desugar_calls": per(c["formula.desugar"]),
            "formula.desugar_ms": ms(incl["formula.desugar"]),
            "formula.render_ms": ms(incl["formula.render"]),
            "cardinal.lattice_edges": per(k["cardinal.lattice_edges"]),
            "cardinal.lattice_ms": ms(incl["cardinal.lattice"]),
            "cardinal.arith_calls": per(c["cardinal.arith"]),
            "cardinal.compare_calls": per(c["cardinal.compare"]),
            "cardinal.ms": ms(incl["cardinal.arith"] + incl["cardinal.compare"]),
            "parareal.calls": per(c["parareal"]),
            "parareal.ms": ms(incl["parareal"]),
            "cli.main_calls": per(c["cli.main"]),
            "cli.main_self_ms": ms(self_["cli.main"]),
            "cli.session_load_ms": ms(incl["cli.session"]),
            "cli.arith_parse_self_ms": ms(self_["cli.arith"]),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tround\top\tname\tstart_us\tend_us\n")
            for span, parent, rnd, op, group, start, end in self.spans:
                out.write(f"{span}\t{parent}\t{rnd}\t{op}\t{group}\t"
                          f"{start * 1e6:.1f}\t{end * 1e6:.1f}\n")


class _OpSpan:
    """Root span of one op, so every span knows the op it belongs to."""

    def __init__(self, tracer: Tracer, key: str):
        self.tracer = tracer
        self.key = key

    def __enter__(self):
        self.tracer.op = self.key
        self.frame = self.tracer.open("op")
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.frame)
        return False


def startup_ms(root: str) -> float:
    """Best fresh ``python -m bzfc parse false`` minus best ``python -c pass``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def best(argv: list[str]) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=60)
            times.append(time.perf_counter() - t0)
            if done.returncode != 0:
                raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr[-200:]!r}")
        return min(times)

    cli = best([sys.executable, "-m", "bzfc", "parse", "false"])
    bare = best([sys.executable, "-c", "pass"])
    return (cli - bare) * 1e3
