"""Linear Genetic Programming: fixed-length three-address register programs.

SS-LGP reads register r[0] once the whole program has run; MS-LGP treats the
value written by every instruction as a candidate output, at no extra
execution cost beyond the single forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .core import (
    EVERY_ROW,
    OP_SYMBOLS,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    RowStore,
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


def execute(prog: LgpProgram, cases: FitnessCaseSet, store: RowStore,
            cone: list[bool] | None = None) -> tuple[list[int], int]:
    """Run the program once over all cases, recording each destination write.

    Input registers start from the case inputs, supplementary registers from
    ``REGISTER_INIT``.  Each operand reads the row that last wrote its
    register, so a record is valid only if its value is finite and no
    non-finite value entered its computation through the data flow.

    The program lowers straight into the row store: ``last[r]`` is the id of
    register r's current row, and each instruction interns ``(op, last[src1],
    last[src2])``.  Returns the store ids of the instructions' rows, in
    program order, and of r[0]'s final row.  Given a ``cone`` mask, only its
    instructions are interned, computed and given an id; the store counts
    every instruction all the same.
    """
    if prog.num_inputs > cases.num_inputs:
        raise ValueError("program expects more inputs than the case set provides")
    registers, inputs = prog.num_registers, prog.num_inputs
    start = store.reserve(registers + 3 * len(prog.instructions))  # the most rows one call adds
    ids, scalar = store.ids, store.scalar
    new: list[tuple] = []
    fresh: list = []
    last = list(range(inputs))  # case input k is the store's row k
    if registers > inputs:
        last += [scalar(REGISTER_INIT, start, new, fresh)] * (registers - inputs)
    local: list[int] = []
    for dest, op, a, b in compress(prog.instructions, cone or EVERY_ROW):
        try:
            key = (op, last[a], last[b])
        except TypeError:  # a constant operand, a scalar leaf
            key = (op, *[last[src] if type(src) is int else scalar(src, start, new, fresh)
                         for src in (a, b)])
        i = ids.get(key)
        if i is None:
            i = ids[key] = start + len(new)
            new.append(key)
        last[dest] = i
        local.append(i)
    store.commit(start, new, fresh, len(prog.instructions))
    return local, last[0]


def cone(prog: LgpProgram) -> list[bool]:
    """Per-instruction mask of the dependency cone of r[0]'s final value, the
    instructions the single reading reads: a liveness pass backward from
    r[0]'s last write, empty when no instruction writes r[0].  The
    instructions outside it are structural introns (Brameier & Banzhaf,
    *Linear Genetic Programming*, 2007, ch. 3)."""
    live = [False] * prog.num_registers  # whose current value a marked instruction reads
    live[0] = True
    marked = []
    for dest, _, a, b in reversed(prog.instructions):
        hit = live[dest]
        marked.append(hit)
        if hit:
            live[dest] = False
            if type(a) is int:
                live[a] = True
            if type(b) is int:
                live[b] = True
    marked.reverse()
    return marked


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
    ever wrote r[0], in which case the register still holds the case input),
    which computes just the instructions in its cone.  multi: minimum error
    over every destination write in the trace.
    """
    check_mode(mode)
    store = store or RowStore(cases, 0)
    if mode == "single":
        return store.errors[execute(prog, cases, store, cone(prog))[1]], _output_locus(prog)
    ids = execute(prog, cases, store)[0]
    errors = store.errors
    return best([errors[i] for i in ids])


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
