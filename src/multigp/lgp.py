"""Linear Genetic Programming: fixed-length three-address register programs.

SS-LGP reads register r[0] once the whole program has run; MS-LGP treats the
value written by every instruction as a candidate output, at no extra
execution cost beyond the single forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    OP_SYMBOLS,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    RowStore,
    RowTable,
    best,
    check_mode,
    recombine,
)

#: registers added on top of the problem inputs in every LGP run
SUPPLEMENTARY_REGISTERS = 4

#: initial content of registers not fed by a problem input
REGISTER_INIT = 1.0

#: trace index reported by single-solution fitness when r[0] is never written
INITIAL_R0 = -1


class LgpInstruction(NamedTuple):
    """``r[dest] = src1 op src2``.

    Operands are register indices (int) or literal constants (float); the
    benchmark presets generate register operands only.
    """

    dest: int
    op: str
    src1: int | float
    src2: int | float


@dataclass(frozen=True)
class LgpProgram:
    instructions: tuple[LgpInstruction, ...]
    num_registers: int
    num_inputs: int

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class LgpTrace:
    """One execution's rows, copied out of the store it lowered into: a leaf
    row per register's initial value and per constant operand, then one row
    per instruction in program order."""

    table: RowTable
    program: LgpProgram
    output: int  # row holding r[0] once the program has run

    @property
    def dests(self) -> tuple[int, ...]:
        """Destination register of each instruction."""
        return tuple(ins.dest for ins in self.program.instructions)

    @property
    def first(self) -> int:
        """Row of the first instruction."""
        return len(self.table.errors) - len(self.program)

    @property
    def written(self) -> np.ndarray:
        """(L, n) value written by each instruction."""
        return self.table.values[self.first:]

    @property
    def valid(self) -> np.ndarray:
        return self.table.valid[self.first:]

    @property
    def errors(self) -> np.ndarray:
        return self.table.errors[self.first:]


def _random_operand(num_registers, rng, constant_rate, constant_range):
    if constant_rate > 0.0 and rng.random() < constant_rate:
        return rng.uniform(*constant_range)
    return rng.randint(num_registers)


def random_program(
    length: int,
    num_registers: int,
    num_inputs: int,
    prims: PrimitiveSet,
    rng: RandomSource,
    constant_rate: float = 0.0,
    constant_range: tuple[float, float] = (-10.0, 10.0),
) -> LgpProgram:
    """Uniform random program.  Constant operands stay off unless requested."""
    if length < 1:
        raise ValueError("program length must be at least 1")
    if num_registers < max(1, num_inputs):
        raise ValueError("not enough registers")
    instructions = []
    for _ in range(length):
        dest = rng.randint(num_registers)
        op = prims.functions[rng.randint(len(prims.functions))]
        src1 = _random_operand(num_registers, rng, constant_rate, constant_range)
        src2 = _random_operand(num_registers, rng, constant_rate, constant_range)
        instructions.append(LgpInstruction(dest, op, src1, src2))
    return LgpProgram(tuple(instructions), num_registers, num_inputs)


def execute(prog: LgpProgram, cases: FitnessCaseSet,
            store: RowStore | None = None) -> LgpTrace | tuple[list[float], float]:
    """Run the program once over all cases, recording every destination write.

    Input registers start from the case inputs, supplementary registers from
    ``REGISTER_INIT``.  Each operand reads the row that last wrote its
    register, so a record is valid only if its value is finite and no
    non-finite value entered its computation through the data flow.

    The program lowers straight into a row store: ``last[r]`` is the id of
    register r's current row, and each instruction interns ``(op, last[src1],
    last[src2])``.  Through a run's ``store``, the errors of the instruction
    rows come back, with the error of r[0]'s final row.  Without one, the
    rows of a fresh store sized to the program are copied out as a trace.
    """
    if prog.num_inputs > cases.num_inputs:
        raise ValueError("program expects more inputs than the case set provides")
    registers, inputs = prog.num_registers, prog.num_inputs
    count = registers + 3 * len(prog.instructions)  # the most rows one call adds
    traced = store is None
    if traced:
        store = RowStore(cases, 0)
    start = store.reserve(count)
    ids, scalar = store.ids, store.scalar
    new: list[tuple] = []
    fresh: list = []
    initial = list(range(inputs))  # case input k is the store's row k
    if registers > inputs:
        initial += [scalar(REGISTER_INIT, start, new, fresh)] * (registers - inputs)
    last = initial.copy()
    constants: list[int] = []
    local: list[int] = []
    for dest, op, a, b in prog.instructions:
        try:
            key = (op, last[a], last[b])
        except TypeError:  # a constant operand, a scalar leaf
            operands = []
            for src in (a, b):
                if type(src) is int:
                    operands.append(last[src])
                else:
                    constants.append(scalar(src, start, new, fresh))
                    operands.append(constants[-1])
            key = (op, *operands)
        i = ids.get(key)
        if i is None:
            i = ids[key] = start + len(new)
            new.append(key)
        last[dest] = i
        local.append(i)
    errors = store.commit(start, new, fresh, len(local))
    if not traced:
        return [errors[i] for i in local], errors[last[0]]
    locus = _output_locus(prog)
    first = registers + len(constants)
    return LgpTrace(store.table([*initial, *constants, *local]), prog,
                    0 if locus == INITIAL_R0 else first + locus)


def _output_locus(prog: LgpProgram) -> int:
    """Index of the last instruction that writes r[0], or ``INITIAL_R0``."""
    instructions = prog.instructions
    for j in range(len(instructions) - 1, -1, -1):
        if instructions[j].dest == 0:
            return j
    return INITIAL_R0


def fitness(prog: LgpProgram, cases: FitnessCaseSet, mode: str = "multi",
            store: RowStore | None = None) -> tuple[float, int]:
    """Program fitness plus the trace index that provided it.

    single: error of r[0]'s final content (``INITIAL_R0`` if no instruction
    ever wrote r[0], in which case the register still holds the case input).
    multi: minimum error over every destination write in the trace.
    """
    check_mode(mode)
    errors, output = execute(prog, cases, store or RowStore(cases, 0))
    if mode == "single":
        return output, _output_locus(prog)
    return best(errors)


def crossover_uniform(p1: LgpProgram, p2: LgpProgram, rng: RandomSource) -> tuple[LgpProgram, LgpProgram]:
    """Fair-coin instruction-level uniform recombination, built in one pass
    (one coin per slot, in order)."""
    if len(p1) != len(p2) or p1.num_registers != p2.num_registers or p1.num_inputs != p2.num_inputs:
        raise ValueError("parents must share length and register configuration")
    o1, o2 = recombine(p1.instructions, p2.instructions, iter(rng.coin, None))
    return (
        LgpProgram(o1, p1.num_registers, p1.num_inputs),
        LgpProgram(o2, p1.num_registers, p1.num_inputs),
    )


def mutate(
    prog: LgpProgram,
    mutations: int,
    prims: PrimitiveSet,
    rng: RandomSource,
    constant_rate: float = 0.0,
    constant_range: tuple[float, float] = (-10.0, 10.0),
) -> LgpProgram:
    """Micro-mutation: each hit resamples one field of one instruction.

    Field order is dest, operator, src1, src2; both the instruction and the
    field are drawn uniformly, with replacement across hits.
    """
    if mutations < 0:
        raise ValueError("mutation count cannot be negative")
    instructions = list(prog.instructions)
    for _ in range(mutations):
        at = rng.randint(len(instructions))
        ins = instructions[at]
        which = rng.randint(4)
        if which == 0:
            ins = LgpInstruction(rng.randint(prog.num_registers), ins.op, ins.src1, ins.src2)
        elif which == 1:
            op = prims.functions[rng.randint(len(prims.functions))]
            ins = LgpInstruction(ins.dest, op, ins.src1, ins.src2)
        elif which == 2:
            src = _random_operand(prog.num_registers, rng, constant_rate, constant_range)
            ins = LgpInstruction(ins.dest, ins.op, src, ins.src2)
        else:
            src = _random_operand(prog.num_registers, rng, constant_rate, constant_range)
            ins = LgpInstruction(ins.dest, ins.op, ins.src1, src)
        instructions[at] = ins
    return LgpProgram(tuple(instructions), prog.num_registers, prog.num_inputs)


def _operand_text(src) -> str:
    return f"r[{src}]" if isinstance(src, int) else f"{src:g}"


def render(prog: LgpProgram) -> str:
    """C-like program dump (``r[2] = r[5] + r[4];`` per line)."""
    return "\n".join(
        f"r[{ins.dest}] = {_operand_text(ins.src1)} {OP_SYMBOLS[ins.op]} {_operand_text(ins.src2)};"
        for ins in prog.instructions
    )
