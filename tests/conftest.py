"""Shared test helpers: a scripted random source, small case-set builders, a
dataset writer, the operator rule as a reference, and the store-free oracles
the row store is checked against."""

import csv

import numpy as np
import pytest

from multigp import core, ifgp, lgp
from multigp.core import FitnessCaseSet, PrimitiveSet, RowTable, best


class StubRandom:
    """Random source replaying a scripted draw sequence.

    Each entry is ("randint", value) or ("random", value); requesting the
    wrong kind or exhausting the script fails the test immediately.  Derived
    draws (coin, uniform, sample_distinct) consume base draws exactly like
    the real source.
    """

    def __init__(self, draws):
        self.draws = list(draws)
        self.seed = -1

    def _next(self, kind):
        assert self.draws, f"draw script exhausted on a {kind} request"
        expected_kind, value = self.draws.pop(0)
        assert expected_kind == kind, (
            f"script expected a {expected_kind} draw, code requested {kind}"
        )
        return value

    def randint(self, n):
        value = self._next("randint")
        assert 0 <= value < n, f"scripted randint value {value} outside [0, {n})"
        return value

    def random(self):
        return self._next("random")

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def coin(self):
        return self.random() < 0.5

    def sample_distinct(self, n, k):
        out = []
        while len(out) < k:
            v = self.randint(n)
            if v not in out:
                out.append(v)
        return out

    def assert_exhausted(self):
        assert not self.draws, f"{len(self.draws)} scripted draws left unused"


def make_cases(xs, targets):
    return FitnessCaseSet(inputs=np.asarray(xs, dtype=float),
                          targets=np.asarray(targets, dtype=float))


@pytest.fixture
def five_cases():
    xs = np.array([0.5, 1.0, 2.0, 3.5, 7.0])
    return make_cases(xs, xs ** 2 + xs)


def write_cases_csv(cases, path):
    """Persist a univariate case set as ``x,target`` rows, 17 significant digits."""
    if cases.num_inputs != 1:
        raise ValueError("CSV datasets are univariate")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "target"])
        for x, t in zip(cases.inputs[:, 0], cases.targets):
            writer.writerow([f"{x:.17g}", f"{t:.17g}"])


# --- store-free oracles ---

def vector_apply(op, a, b):
    """Apply one binary operator elementwise over aligned case vectors, as a
    reference for the store's block evaluator.

    add/sub/mul are plain IEEE double operations; div returns a/b unless
    ``|b| < core.DIV_EPSILON``, in which case it returns 1.0.  Non-finite
    results (overflow) propagate to the caller, which is expected to mark the
    surrounding row invalid.
    """
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        small = np.abs(b) < core.DIV_EPSILON
        if small.any():
            return np.where(small, 1.0, a / np.where(small, 1.0, b))
        return a / b
    raise ValueError(f"unknown operator {op!r}")


def evaluate_rows(rows, leaves, cases):
    """Run post-order rows ``(op, a, b)`` once over all cases, with no store.

    A leaf row (``op is None``) copies ``leaves[a]``; an operation row applies
    ``op`` to the earlier rows ``a`` and ``b`` as ``vector_apply`` does.
    Invalidity propagates from a row to every row built on top of it.  The
    whole table is one block of the store's block evaluator, and it counts no
    operation.
    """
    values = np.empty((len(rows), cases.n))
    valid = []
    errors = core._evaluate_block(rows, leaves, values, list(values), 0, valid, cases.targets)
    return RowTable(values, np.array(valid, dtype=bool), np.array(errors))


def operations(rows, cases):
    """Primitive applications one evaluation of ``rows`` counts."""
    return sum(op is not None for op, _, _ in rows) * cases.n


def ssa_rows(prog):
    """The program in SSA form: a leaf row per register, then per constant
    operand in order of appearance, then a row per instruction.  Returns the
    rows, the scalar leaves after the inputs' and the row of r[0]'s final
    value."""
    registers = prog.num_registers
    last = list(range(registers))
    constants, body = [], []
    for ins in prog.instructions:
        operands = []
        for src in (ins.src1, ins.src2):
            if isinstance(src, int):
                operands.append(last[src])
            else:
                constants.append(src)
                operands.append(("constant", len(constants) - 1))
        last[ins.dest] = ("instruction", len(body))
        body.append((ins.op, *operands))
    first = registers + len(constants)

    def row(ref):
        if isinstance(ref, int):
            return ref
        kind, j = ref
        return registers + j if kind == "constant" else first + j

    rows = [(None, k, 0) for k in range(first)]
    rows += [(op, row(a), row(b)) for op, a, b in body]
    scalars = [lgp.REGISTER_INIT] * (registers - prog.num_inputs) + constants
    return rows, scalars, row(last[0])


def reference_execute(prog, cases):
    """(table, row of r[0], applied operations) from the SSA rows."""
    rows, scalars, output = ssa_rows(prog)
    table = evaluate_rows(rows, [*cases.inputs.T[:prog.num_inputs], *scalars], cases)
    return table, output, operations(rows, cases)


def reference_fitness(technique, chrom, cases, mode):
    """The store-free fitness: (fitness, locus, applied operations) of one
    reading, from ``evaluate_rows`` over MEP's genes, IFGP's decoded rows or
    LGP's SSA rows."""
    if technique == "lgp":
        table, output, ops = reference_execute(chrom, cases)
        first = len(table.errors) - len(chrom)
        single = output - first if output >= first else lgp.INITIAL_R0
    else:
        if technique == "mep":
            rows = chrom.genes
        else:
            rows = ifgp.decode(chrom, PrimitiveSet.for_inputs(cases.num_inputs)).rows
        table, ops = evaluate_rows(rows, cases.inputs.T, cases), operations(rows, cases)
        first, output = 0, len(rows) - 1
        single = output
    errors = table.errors.tolist()
    if mode == "single":
        return errors[output], single, ops
    fit, row = best(errors[first:])
    return fit, row, ops
