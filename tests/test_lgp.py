import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigp import lgp
from multigp.core import (
    DIV_EPSILON,
    MODES,
    OP_SYMBOLS,
    OPERATORS,
    PrimitiveSet,
    RandomSource,
    RowStore,
    best,
    ops_applied,
    recombine,
    reset_ops,
)
from multigp.lgp import (
    INITIAL_R0,
    REGISTER_INIT,
    SUPPLEMENTARY_REGISTERS,
    LgpInstruction,
    LgpProgram,
    crossover_uniform,
    execute,
    fitness,
    mutate,
    random_program,
    render,
)

from conftest import StubRandom, make_cases, reference_execute

X = PrimitiveSet.for_inputs(1)

I = LgpInstruction


def program(*instructions, registers=8, inputs=1):
    return LgpProgram(tuple(instructions), registers, inputs)


# Worked multi-solution example: six instructions over eight registers.
TRACE_SAMPLE = program(
    I(5, "mul", 3, 2),
    I(3, "add", 1, 6.0),
    I(0, "mul", 4, 7),
    I(6, "sub", 4, 1),
    I(1, "mul", 6, 7.0),
    I(2, "div", 3, 4),
)


# --- oracle: prefix re-execution per record, scalar arithmetic ---

def run_prefix(prog, upto, x_row):
    """Re-run instructions [0..upto] from scratch for one case.

    Returns (value written by instruction `upto`, valid flag), tracking
    register taint exactly as the specification of validity demands.
    """
    regs = [REGISTER_INIT] * prog.num_registers
    regs[: prog.num_inputs] = [x_row[j] for j in range(prog.num_inputs)]
    ok_regs = [True] * prog.num_registers
    value, ok = None, True
    for i in range(upto + 1):
        ins = prog.instructions[i]
        a = regs[ins.src1] if isinstance(ins.src1, int) else ins.src1
        b = regs[ins.src2] if isinstance(ins.src2, int) else ins.src2
        if ins.op == "add":
            v = a + b
        elif ins.op == "sub":
            v = a - b
        elif ins.op == "mul":
            v = a * b
        else:
            v = 1.0 if abs(b) < 1e-12 else a / b
        ok = math.isfinite(v)
        if isinstance(ins.src1, int):
            ok = ok and ok_regs[ins.src1]
        if isinstance(ins.src2, int):
            ok = ok and ok_regs[ins.src2]
        regs[ins.dest] = v
        ok_regs[ins.dest] = ok
        value = v
    return value, ok


def oracle_fitness_multi(prog, cases):
    best = math.inf
    for i in range(len(prog)):
        err, ok = 0.0, True
        for k in range(cases.n):
            v, valid = run_prefix(prog, i, cases.inputs[k])
            if not valid or not math.isfinite(v):
                ok = False
                break
            err = err + abs(v - cases.targets[k])
        if ok:
            best = min(best, err)
    return best


# --- validation ---

def validate_program(prog, prims=None):
    """Raise ValueError unless every representation invariant holds."""
    if len(prog) < 1:
        raise ValueError("program must hold at least one instruction")
    if not 1 <= prog.num_inputs <= prog.num_registers:
        raise ValueError("register file must cover the problem inputs")
    functions = prims.functions if prims is not None else None
    for i, ins in enumerate(prog.instructions):
        if not 0 <= ins.dest < prog.num_registers:
            raise ValueError(f"instruction {i}: destination out of range")
        if ins.op not in OP_SYMBOLS or (functions is not None and ins.op not in functions):
            raise ValueError(f"instruction {i}: unknown operator {ins.op!r}")
        for src in (ins.src1, ins.src2):
            if isinstance(src, int) and not 0 <= src < prog.num_registers:
                raise ValueError(f"instruction {i}: source register out of range")


def test_validate_accepts_sample_program():
    validate_program(TRACE_SAMPLE, X)


def test_validate_rejects_bad_programs():
    with pytest.raises(ValueError):
        validate_program(program(registers=8))
    with pytest.raises(ValueError):
        validate_program(program(I(8, "add", 0, 0)))
    with pytest.raises(ValueError):
        validate_program(program(I(0, "pow", 0, 0)))
    with pytest.raises(ValueError):
        validate_program(program(I(0, "add", 9, 0)))
    with pytest.raises(ValueError):
        validate_program(LgpProgram((I(0, "add", 0, 0),), 2, 3))


def test_random_programs_always_validate():
    rng = RandomSource(404)
    for trial in range(2000):
        prog = random_program(1 + rng.randint(12), 5, 1, X, rng)
        validate_program(prog, X)
        assert all(isinstance(ins.src1, int) and isinstance(ins.src2, int)
                   for ins in prog.instructions)


def test_random_program_constants_appear_only_when_enabled():
    rng = RandomSource(405)
    prog = random_program(200, 5, 1, X, rng, constant_rate=0.5, constant_range=(-2.0, 2.0))
    consts = [s for ins in prog.instructions for s in (ins.src1, ins.src2)
              if isinstance(s, float)]
    assert consts
    assert all(-2.0 <= c <= 2.0 for c in consts)


# --- execution and the worked trace ---

def test_sample_trace_values_by_hand():
    # r[0] = x, r[1..7] start at 1; constants 6 and 7 appear literally
    cases = make_cases([[5.0]], [0.0])
    trace = execute(TRACE_SAMPLE, cases)
    assert list(trace.dests) == [5, 3, 0, 6, 1, 2]
    assert [v[0] for v in trace.written] == [1.0, 7.0, 1.0, 0.0, 0.0, 7.0]
    assert trace.valid.all()


def test_sample_trace_is_input_independent():
    # nothing in the sample reads r[0], so any input gives the same trace
    a = execute(TRACE_SAMPLE, make_cases([[5.0]], [0.0]))
    b = execute(TRACE_SAMPLE, make_cases([[-3.5]], [0.0]))
    assert np.array_equal(a.written, b.written)


def test_execute_matches_prefix_reexecution_oracle():
    rng = RandomSource(500)
    for trial in range(300):
        cases = make_cases(
            [[rng.uniform(0, 10)] for _ in range(5)],
            [rng.uniform(0, 10) for _ in range(5)],
        )
        # every other program mixes constant operands into the registers
        prog = random_program(1 + rng.randint(12), 5, 1, X, rng, constant_rate=0.3 * (trial % 2))
        trace = execute(prog, cases)
        for i in range(len(prog)):
            for k in range(cases.n):
                v, ok = run_prefix(prog, i, cases.inputs[k])
                if trace.valid[i]:
                    assert trace.written[i, k] == v
        got, _ = fitness(prog, cases, "multi")
        assert got == oracle_fitness_multi(prog, cases)
        r0_writes = [i for i, ins in enumerate(prog.instructions) if ins.dest == 0]
        assert trace.output == (trace.first + r0_writes[-1] if r0_writes else 0)


def test_fitness_through_a_row_store_matches_with_constants_and_two_inputs():
    rng = RandomSource(501)
    cases = make_cases([[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(5)],
                       [rng.uniform(0, 10) for _ in range(5)])
    store = RowStore(cases)
    prims = PrimitiveSet.for_inputs(2)
    for trial in range(300):
        # every third program's constants are all 0.0, so programs share
        # constant rows, and some divide by zero
        prog = random_program(1 + rng.randint(12), 6, 2, prims, rng, constant_rate=0.3,
                              constant_range=(0.0, 2.0 * (trial % 3)))
        for mode in MODES:
            assert fitness(prog, cases, mode, store) == fitness(prog, cases, mode)


# --- execute against the SSA lowering evaluated by evaluate_rows (conftest) ---

def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


_NANS = struct.unpack("<3d", bytes.fromhex("000000000000f87f" "010000000000f87f" "000000000000f8ff"))
_CONSTANTS = [0.0, -0.0, DIV_EPSILON, -DIV_EPSILON, 1e300, -1e300, *_NANS]


@st.composite
def _program_sequences(draw):
    """Random programs over one case set, later ones often an earlier one
    with a few slots redrawn, so that they share rows."""
    inputs = draw(st.integers(1, 2))
    registers = inputs + SUPPLEMENTARY_REGISTERS
    n = draw(st.sampled_from([1, 3, 20]))
    cases_value = st.floats(-1e6, 1e6, allow_nan=False)
    cases = make_cases(draw(st.lists(st.lists(cases_value, min_size=inputs, max_size=inputs),
                                     min_size=n, max_size=n)),
                       draw(st.lists(cases_value, min_size=n, max_size=n)))
    register = st.integers(0, registers - 1)
    operand = st.one_of(register, register, register, st.sampled_from(_CONSTANTS))
    instruction = st.builds(I, register, st.sampled_from(OPERATORS), operand, operand)
    programs = []
    for _ in range(draw(st.integers(1, 5))):
        if programs and draw(st.booleans()):
            instructions = list(draw(st.sampled_from(programs)).instructions)
            for _ in range(draw(st.integers(0, 3))):
                instructions[draw(st.integers(0, len(instructions) - 1))] = draw(instruction)
        else:
            instructions = draw(st.lists(instruction, min_size=1, max_size=40))
        programs.append(program(*instructions, registers=registers, inputs=inputs))
    return cases, programs


@given(_program_sequences())
@settings(max_examples=300, deadline=None)
def test_execute_lowers_into_the_store_as_the_ssa_rows_evaluate(sequence):
    cases, programs = sequence
    # one store shared by the whole sequence, and one whose budget holds less
    # than one program, so that it grows and then clears on most calls
    stores = [RowStore(cases), RowStore(cases, 0)]
    for _ in range(2):
        for prog in programs:
            table, output, ops = reference_execute(prog, cases)
            want_errors = table.errors.tolist()
            first = len(want_errors) - len(prog)
            reset_ops()
            trace = execute(prog, cases)
            assert ops_applied() == ops
            assert trace.table.values.tobytes() == table.values.tobytes()
            assert trace.table.valid.tobytes() == table.valid.tobytes()
            assert trace.table.errors.tobytes() == table.errors.tobytes()
            assert (trace.first, trace.output) == (first, output)
            for store in stores:
                reset_ops()
                errors, output_error = execute(prog, cases, store)
                assert ops_applied() == ops
                assert _bits(errors) == table.errors[first:].tobytes()
                assert _bits([output_error]) == _bits([want_errors[output]])
            want = {"multi": best(want_errors[first:]),
                    "single": (want_errors[output], output - first if output >= first else INITIAL_R0)}
            for store in [None, *stores]:
                for mode in MODES:
                    reset_ops()
                    fit, locus = fitness(prog, cases, mode, store)
                    assert ops_applied() == ops
                    assert (_bits([fit]), locus) == (_bits([want[mode][0]]), want[mode][1])
            reset_ops()


def test_register_taint_propagates_through_data_flow():
    huge = 1e308
    cases = make_cases([[huge]], [0.0])
    prog = program(
        I(1, "mul", 0, 0),   # overflows to inf -> r1 tainted
        I(2, "div", 0, 1),   # finite (x / inf = 0) but reads tainted r1
        I(3, "add", 4, 4),   # untouched by the taint
        registers=5,
    )
    trace = execute(prog, cases)
    assert list(trace.valid) == [False, False, True]
    errs = trace.errors
    assert math.isinf(errs[0]) and math.isinf(errs[1])
    assert errs[2] == 2.0


def test_constant_operands_never_taint():
    cases = make_cases([[2.0]], [0.0])
    prog = program(I(1, "div", 0, math.inf), I(2, "mul", 0, math.inf), registers=3)
    trace = execute(prog, cases)
    # x / inf = 0 is finite and valid; x * inf is invalid by its own value
    assert list(trace.valid) == [True, False]
    assert fitness(prog, cases, "multi") == (0.0, 0)


def test_execute_rejects_missing_inputs():
    cases = make_cases([[1.0]], [1.0])
    with pytest.raises(ValueError):
        execute(LgpProgram((I(0, "add", 0, 0),), 6, 2), cases)


# --- fitness modes ---

def test_single_mode_reads_last_write_to_r0(five_cases):
    prog = program(
        I(1, "add", 0, 0),
        I(0, "mul", 0, 0),   # last r0 write, index 1
        I(2, "add", 0, 1),
        registers=3,
    )
    trace = execute(prog, five_cases)
    errs = trace.errors
    got, idx = fitness(prog, five_cases, "single")
    assert idx == 1
    assert got == errs[1]


def test_single_mode_without_r0_write_scores_the_input(five_cases):
    prog = program(I(1, "add", 0, 0), I(2, "mul", 1, 1), registers=3)
    got, idx = fitness(prog, five_cases, "single")
    assert idx == INITIAL_R0
    assert got == np.abs(five_cases.inputs[:, 0] - five_cases.targets).sum()


def test_multi_mode_never_exceeds_single_when_r0_written(five_cases):
    rng = RandomSource(321)
    checked = 0
    for trial in range(10_000):
        prog = random_program(1 + rng.randint(10), 5, 1, X, rng)
        if not any(ins.dest == 0 for ins in prog.instructions):
            continue
        checked += 1
        multi, _ = fitness(prog, five_cases, "multi")
        single, _ = fitness(prog, five_cases, "single")
        assert multi <= single
    assert checked > 5000


def test_fitness_rejects_unknown_mode(five_cases):
    with pytest.raises(ValueError):
        fitness(TRACE_SAMPLE, five_cases, "best")


# --- crossover ---

PARENT_1 = program(
    I(5, "mul", 3, 2),
    I(3, "add", 1, 6.0),
    I(0, "mul", 4, 7),
    I(5, "sub", 4, 1),
    I(1, "mul", 6, 7.0),
    I(0, "add", 0, 4),
    I(2, "div", 3, 4),
)
PARENT_2 = program(
    I(2, "add", 0, 3),
    I(1, "mul", 2, 6),
    I(4, "sub", 6, 4.0),
    I(6, "div", 5, 2),
    I(2, "add", 1, 7.0),
    I(1, "add", 2, 4),
    I(0, "mul", 4, 3.0),
)
TAKE_FIRST = [True, False, True, True, False, False, False]
EXPECTED_O1 = program(
    I(5, "mul", 3, 2),
    I(1, "mul", 2, 6),
    I(0, "mul", 4, 7),
    I(5, "sub", 4, 1),
    I(2, "add", 1, 7.0),
    I(1, "add", 2, 4),
    I(0, "mul", 4, 3.0),
)
EXPECTED_O2 = program(
    I(2, "add", 0, 3),
    I(3, "add", 1, 6.0),
    I(4, "sub", 6, 4.0),
    I(6, "div", 5, 2),
    I(1, "mul", 6, 7.0),
    I(0, "add", 0, 4),
    I(2, "div", 3, 4),
)


def test_crossover_uniform_draws_one_coin_per_slot():
    draws = [("random", 0.1 if take else 0.9) for take in TAKE_FIRST]
    rng = StubRandom(draws)
    o1, o2 = crossover_uniform(PARENT_1, PARENT_2, rng)
    assert o1 == EXPECTED_O1
    assert o2 == EXPECTED_O2
    rng.assert_exhausted()


def test_crossover_swaps_whole_instructions():
    rng = RandomSource(600)
    for trial in range(200):
        p1 = random_program(7, 5, 1, X, rng)
        p2 = random_program(7, 5, 1, X, rng)
        o1, o2 = crossover_uniform(p1, p2, rng)
        for i in range(7):
            pair = {o1.instructions[i], o2.instructions[i]}
            assert pair == {p1.instructions[i], p2.instructions[i]}


def test_crossover_uniform_takes_one_word_per_slot_and_agrees_with_the_mask():
    make = RandomSource(601)
    rng, replay = RandomSource(602), RandomSource(602)
    # 70 crossovers cross several of the source's 256-word refills
    for length in [1, 2, 3, 4, 7, 20, 40] * 10:
        p1 = random_program(length, 5, 1, X, make, constant_rate=0.2)
        p2 = random_program(length, 5, 1, X, make, constant_rate=0.2)
        offspring = crossover_uniform(p1, p2, rng)
        mask = [replay.coin() for _ in range(length)]
        assert tuple(o.instructions for o in offspring) == recombine(p1.instructions, p2.instructions, mask)
        # both streams stand at the same word: the crossover took `length` words
        assert rng.next_uint64() == replay.next_uint64()


def test_crossover_rejects_mismatched_parents():
    short = program(I(0, "add", 0, 0))
    with pytest.raises(ValueError):
        crossover_uniform(short, PARENT_1, RandomSource(0))
    other_registers = LgpProgram(PARENT_1.instructions, 9, 1)
    with pytest.raises(ValueError):
        crossover_uniform(PARENT_1, other_registers, RandomSource(0))


# --- mutation ---

def test_micro_mutation_golden_pair():
    after = program(
        I(5, "mul", 3, 2),
        I(3, "add", 6, 0),
        I(0, "add", 4, 7),
        I(4, "sub", 4, 1),
        I(1, "mul", 6, 2.0),
        I(0, "add", 0, 4),
        I(0, "div", 3, 4),
    )
    # field codes: 0 dest, 1 operator, 2 first source, 3 second source;
    # operand redraws gate on constant_rate first (0.9 register, 0.1 constant)
    draws = [
        ("randint", 1), ("randint", 2), ("random", 0.9), ("randint", 6),
        ("randint", 1), ("randint", 3), ("random", 0.9), ("randint", 0),
        ("randint", 2), ("randint", 1), ("randint", 0),
        ("randint", 3), ("randint", 0), ("randint", 4),
        ("randint", 4), ("randint", 3), ("random", 0.1), ("random", 0.6),
        ("randint", 6), ("randint", 0), ("randint", 0),
    ]
    rng = StubRandom(draws)
    got = mutate(PARENT_1, 6, X, rng, constant_rate=0.5, constant_range=(-10.0, 10.0))
    rng.assert_exhausted()
    expected_constant = -10.0 + 20.0 * 0.6
    assert got.instructions[4].src2 == expected_constant
    assert abs(got.instructions[4].src2 - 2.0) < 1e-12
    normalised = LgpProgram(
        got.instructions[:4]
        + (I(1, "mul", 6, 2.0),)
        + got.instructions[5:],
        got.num_registers,
        got.num_inputs,
    )
    assert normalised == after


def test_mutation_preserves_validity():
    rng = RandomSource(31)
    for trial in range(2000):
        prog = random_program(1 + rng.randint(10), 5, 1, X, rng)
        mutated = mutate(prog, 2, X, rng)
        validate_program(mutated, X)
        assert len(mutated) == len(prog)


def test_mutation_count_zero_is_identity():
    assert mutate(PARENT_1, 0, X, RandomSource(1)) == PARENT_1
    with pytest.raises(ValueError):
        mutate(PARENT_1, -1, X, RandomSource(1))


# --- rendering ---

def test_render_c_style_lines():
    text = render(TRACE_SAMPLE)
    assert text.splitlines() == [
        "r[5] = r[3] * r[2];",
        "r[3] = r[1] + 6;",
        "r[0] = r[4] * r[7];",
        "r[6] = r[4] - r[1];",
        "r[1] = r[6] * 7;",
        "r[2] = r[3] / r[4];",
    ]


# --- cost parity ---

def test_execution_cost_independent_of_fitness_mode(five_cases):
    prog = random_program(20, 5, 1, X, RandomSource(8))
    reset_ops()
    fitness(prog, five_cases, "multi")
    multi_cost = ops_applied()
    reset_ops()
    fitness(prog, five_cases, "single")
    single_cost = ops_applied()
    reset_ops()
    assert multi_cost == single_cost == len(prog) * five_cases.n
