"""A fixed reference loop that gauges how fast the machine is running right now.

On a host shared with other tenants the same evolution run can take 200 ms
one second and 350 ms the next, and the speed drifts over minutes. The
loop below does the program's kind of work (64-bit integer arithmetic as in
the pure-Python RNG, small numpy operations over 20-case vectors, frozen
dataclass construction) without using any of the program's code, so a change
to the program never moves it. Timing it between the workload's units tells
how much the machine slowed the units down, and the benchmark divides that
out. A workload whose units keep several cores busy times
the loop on as many processes at once (``Gauge``).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from dataclasses import dataclass

import numpy as np

from checker import unit_draws

#: the loop's duration when the host of the README's reference figures ran
#: at its fastest (the lowest decile over 300 passes)
NOMINAL_S = 0.009


@dataclass(frozen=True)
class _Gene:
    op: str
    arg1: int
    arg2: int


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    draws = unit_draws(7, 4000)
    xs = np.array(draws[:20]) * 10.0
    acc = xs.copy()
    with np.errstate(all="ignore"):
        for _ in range(400):
            acc = acc * xs + xs
            small = np.abs(acc) < 1e-12
            acc = np.where(small, 1.0, acc / np.where(small, 1.0, xs))
            float(np.abs(acc - xs).sum())
            bool(np.isfinite(acc).all())
    genes = tuple(_Gene("add", i, i // 2) for i in range(1500))
    sum(g.arg1 for g in genes if g.op == "add")
    return time.perf_counter() - t0



def _passes(count: int) -> float:
    return statistics.median(reference_seconds() for _ in range(count))


def _serve(conn) -> None:
    """Helper process: time the reference loop each time the parent asks."""
    while count := conn.recv():
        conn.send(_passes(count))


class Gauge:
    """Times the reference loop on ``width`` processes at once.

    A sample is the median of ``passes`` passes, averaged over the processes.
    The ``width - 1`` helper processes block on their pipe between samples,
    so they take no processor time while the workload's units run.
    """

    WARM_UP = 3

    def __init__(self, width: int, passes: int):
        self.passes = passes
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in range(width - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            proc.start()
            self._conns.append(ours)
            self._procs.append(proc)
        for _ in range(self.WARM_UP):
            self.sample()

    def sample(self) -> float:
        for conn in self._conns:
            conn.send(self.passes)
        own = _passes(self.passes)
        return statistics.fmean([own] + [conn.recv() for conn in self._conns])

    def close(self) -> None:
        for conn in self._conns:
            conn.send(0)
            conn.close()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
