"""Spans around the calls into each multigp layer, and the per-layer metrics.

Tracing rebinds module attributes of the program for the duration of a
``with Tracer.installed():`` block and restores them afterwards:

* ``engine.make_toolbox`` so the ``Toolbox`` callables handed to
  ``engine.evolve_*`` are wrapped (``toolbox.spawn``, ``.crossover``,
  ``.mutate``, ``.evaluate``, ``.describe``);
* ``engine.evolve_steady_state`` / ``engine.evolve_tournament``
  (``engine.run``), which also read the draw count of the run's RNG;
* ``mep.decode``, ``lgp.execute`` and ``ifgp.decode`` (``<enc>.decode``);
* ``harness.make_problem`` (``core.make_problem``) and
  ``harness.RandomSource``, replaced by the counting subclass below;
* the report writers in ``harness`` and ``cli`` (``harness.emit``);
* ``harness._run_task`` (``harness.run_task``), which in a pool worker ships
  the worker's spans back with the task's result.

A span is ``(pid, id, parent id, name, tag, start, end, data)``; ``tag`` is the
technique or variant, ``data`` a count: primitive operations applied for
``toolbox.evaluate``, structural units (function genes, instructions,
operator tokens) for ``<enc>.decode`` and RNG draws for ``engine.run``.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import itertools
import json
import os
import statistics
import time
from collections import defaultdict

from multigp import cli, core, engine, harness, ifgp, lgp, mep

from checker import CASES
from workloads import TECHNIQUE_OF, TECHNIQUES

perf_counter = time.perf_counter

VARIANT_OF = {pair: variant for variant, pair in harness.VARIANTS.items()}
_TOOLBOX_FIELDS = ("spawn", "crossover", "mutate", "evaluate", "describe")
_OPERATOR_TOKENS = frozenset("+-*/")

#: the installed tracer; ``_receive`` adds the spans pool workers ship back to it
_active = None


class CountingRandom(core.RandomSource):
    """RandomSource that counts every 64-bit word it draws."""

    __slots__ = ("draws",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = 0

    def next_uint64(self) -> int:
        self.draws += 1
        return core.RandomSource.next_uint64(self)


def _structural_units(name: str, args, result) -> int:
    if name == "mep.decode":
        return sum(not g.is_terminal for g in args[0].genes)
    if name == "lgp.decode":
        return len(args[0].instructions)
    return sum(tok in _OPERATOR_TOKENS for tok in result.tokens)


def _receive(outcome: tuple, pid: int, spans: list) -> tuple:
    _active.spans.extend((pid,) + span[1:] for span in spans)
    return outcome


class _Shipped:
    """A pool task's result with the worker's spans; unpickles to the result."""

    def __init__(self, outcome, spans):
        self.outcome, self.spans = outcome, spans

    def __reduce__(self):
        return _receive, (tuple(self.outcome), os.getpid(), self.spans)


class Tracer:
    def __init__(self):
        self.home_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _open(self):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, tag, t0, data=None):
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((self.pid, sid, parent, name, tag, t0, t1, data))

    def wrap(self, fn, name, tag=None):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, tag, t0)
        return traced

    def _wrap_evaluate(self, fn, tag):
        def evaluate(chrom):
            sid, parent = self._open()
            ops0 = core.ops_applied()
            t0 = perf_counter()
            try:
                return fn(chrom)
            finally:
                self._close(sid, parent, "toolbox.evaluate", tag, t0, core.ops_applied() - ops0)
        return evaluate

    def _wrap_decode(self, fn, name):
        def decode(*args):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                t1 = perf_counter()
                self._stack.pop()
            self.spans.append((self.pid, sid, parent, name, None, t0, t1,
                               _structural_units(name, args, result)))
            return result
        return decode

    def _wrap_evolve(self, fn):
        def evolve(toolbox, cfg, rng):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(toolbox, cfg, rng)
            finally:
                self._close(sid, parent, "engine.run", VARIANT_OF[cfg.technique, cfg.mode],
                            t0, getattr(rng, "draws", None))
        return evolve

    def _wrap_make_toolbox(self, fn):
        def make_toolbox(cfg, cases):
            box = fn(cfg, cases)
            tech = cfg.technique
            fields = {f: self.wrap(getattr(box, f), f"toolbox.{f}", tech) for f in _TOOLBOX_FIELDS}
            fields["evaluate"] = self._wrap_evaluate(box.evaluate, tech)
            return dataclasses.replace(box, **fields)
        return make_toolbox

    def _wrap_run_task(self, fn):
        def run_task(task):
            in_worker = os.getpid() != self.home_pid
            if in_worker and self.pid != os.getpid():
                self.pid = os.getpid()
                self._stack.clear()
            mark = len(self.spans)
            outcome = self.wrap(fn, "harness.run_task", task[0])(task)
            if not in_worker:
                return outcome
            shipped = self.spans[mark:]
            del self.spans[mark:]
            return _Shipped(outcome, shipped)
        # pool.map pickles the function by name; it must resolve to this wrapper
        run_task.__module__, run_task.__qualname__ = fn.__module__, fn.__qualname__
        return run_task

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced program attributes; restore them on exit."""
        global _active
        patches = [
            (engine, "make_toolbox", self._wrap_make_toolbox(engine.make_toolbox)),
            (engine, "evolve_steady_state", self._wrap_evolve(engine.evolve_steady_state)),
            (engine, "evolve_tournament", self._wrap_evolve(engine.evolve_tournament)),
            (mep, "decode", self._wrap_decode(mep.decode, "mep.decode")),
            (lgp, "execute", self._wrap_decode(lgp.execute, "lgp.decode")),
            (ifgp, "decode", self._wrap_decode(ifgp.decode, "ifgp.decode")),
            (harness, "make_problem", self.wrap(harness.make_problem, "core.make_problem")),
            (harness, "RandomSource", CountingRandom),
            (harness, "_run_task", self._wrap_run_task(harness._run_task)),
        ]
        for module in (harness, cli):
            for name in ("write_csv", "write_run_log", "emit_plot"):
                patches.append((module, name, self.wrap(getattr(module, name), "harness.emit", name)))
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, value in patches:
            setattr(module, name, value)
        _active = self
        try:
            yield self
        finally:
            for module, name, value in saved:
                setattr(module, name, value)
            _active = None

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for pid, sid, parent, name, tag, t0, t1, data in self.spans:
                fh.write(json.dumps([name, tag, pid, sid, parent, t0, t1, data]) + "\n")


def rng_draws_per_s(draws: int = 200_000, blocks: int = 5) -> float:
    """Median rate of ``RandomSource.randint`` over a few timed blocks."""
    rng = core.RandomSource(12345)
    rates = []
    for _ in range(blocks):
        t0 = perf_counter()
        for _ in range(draws // blocks):
            rng.randint(1000)
        rates.append(draws // blocks / (perf_counter() - t0))
    return statistics.median(rates)


def layer_metrics(spans: list[tuple], jobs: int, traced_wall: float, emit_batches: int) -> tuple[dict, list[str]]:
    """Per-layer figures from the spans, and any operation-count mismatches.

    ``traced_wall`` is the wall time of the traced timed phase and
    ``emit_batches`` the number of report emissions it made.
    """
    durations = defaultdict(list)   # (name, tag) -> [seconds]
    data = defaultdict(list)        # (name, tag) -> [count]
    child_time = defaultdict(float)  # (pid, parent id) -> seconds of direct children
    decode_units = {}                # (pid, evaluate span id) -> structural units
    for pid, sid, parent, name, tag, t0, t1, count in spans:
        durations[name, tag].append(t1 - t0)
        if count is not None:
            data[name, tag].append(count)
        if parent is not None:
            child_time[pid, parent] += t1 - t0
        if name.endswith(".decode") and parent is not None:
            decode_units[pid, parent] = count

    problems = []
    for pid, sid, parent, name, tag, t0, t1, count in spans:
        if name == "toolbox.evaluate" and count != decode_units.get((pid, sid), -1) * CASES:
            problems.append(f"{tag}: evaluation applied {count} operations, structure "
                            f"gives {decode_units.get((pid, sid))} x {CASES}")

    def mean(name, tag=None, scale=1.0):
        values = durations.get((name, tag))
        return scale * sum(values) / len(values) if values else float("nan")

    m = {}
    m["core.rng_draws_per_s"] = (rng_draws_per_s(), "draws/s")
    for tech in TECHNIQUES:
        draws = [d for v, t in TECHNIQUE_OF.items() if t == tech for d in data.get(("engine.run", v), [])]
        m[f"core.rng_draws_per_run.{tech}"] = (sum(draws) / len(draws), "count")
    for tech in TECHNIQUES:
        ops = data[("toolbox.evaluate", tech)]
        m[f"core.ops_per_eval.{tech}"] = (sum(ops) / len(ops), "count")
    m["core.make_problem_us"] = (mean("core.make_problem", None, 1e6), "us")
    for tech in TECHNIQUES:
        evals = durations[("toolbox.evaluate", tech)]
        m[f"{tech}.fitness_us"] = (mean("toolbox.evaluate", tech, 1e6), "us")
        m[f"{tech}.decode_us"] = (mean(f"{tech}.decode", None, 1e6), "us")
        m[f"{tech}.ns_per_op"] = (1e9 * sum(evals) / sum(data[("toolbox.evaluate", tech)]), "ns")
        for op in ("crossover", "mutate", "spawn"):
            m[f"{tech}.{op}_us"] = (mean(f"toolbox.{op}", tech, 1e6), "us")
    for tech in TECHNIQUES:
        self_times = [t1 - t0 - child_time[pid, sid]
                      for pid, sid, parent, name, tag, t0, t1, _ in spans
                      if name == "engine.run" and TECHNIQUE_OF[tag] == tech]
        m[f"engine.self_ms_per_run.{tech}"] = (1e3 * sum(self_times) / len(self_times), "ms")
    for variant in harness.VARIANTS:
        m[f"engine.run_ms.{variant}"] = (mean("engine.run", variant, 1e3), "ms")
    serial = sum(sum(durations[("engine.run", v)]) for v in harness.VARIANTS)
    m["harness.parallel_efficiency"] = (serial / (jobs * traced_wall), "ratio")
    emitted = sum(sum(durations.get(("harness.emit", w), [])) for w in ("write_csv", "write_run_log", "emit_plot"))
    m["harness.emit_ms"] = (1e3 * emitted / max(emit_batches, 1), "ms")
    return m, problems
