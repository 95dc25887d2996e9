"""Acceptance gate: nine checks covering oracle equivalence, worked goldens,
the multi-versus-single benchmark claims, cost parity, determinism and the
evolution-loop contracts.  Each criterion is one test; run with -v for a
pass/fail line per criterion.

The benchmark criteria 4 and 6 share one session fixture of 100 runs per
(variant, problem) cell at the preset configuration (population 50, length
20, IFGP length 30, 51 generations); criterion 5 adds one more 100-run
cell.  Expect roughly ten minutes for the fixture.
"""

import math
import time

import pytest

from multigp import cli, ifgp, lgp, mep
from multigp.core import (
    PROBLEM_IDS,
    PrimitiveSet,
    RandomSource,
    make_problem,
    ops_applied,
    reset_ops,
)
from multigp.engine import EvolutionConfig, binary_tournament, run_evolution
from multigp.harness import VARIANTS, run_one, variant_pair

from conftest import StubRandom, make_cases

# seed feeding run i of every benchmark point (run i uses BASE_SEED + i)
BASE_SEED = 201
PRESET_RUNS = 100

FIVE_CASES = make_cases(
    [0.5, 1.0, 2.0, 3.5, 7.0],
    [0.75, 2.0, 6.0, 15.75, 56.0],
)


# --- independent oracles, duplicated here on purpose ---

def _mep_gene_scalar(chrom, index, row):
    """Recursive single-case evaluation of one MEP gene: (value, valid)."""
    g = chrom.genes[index]
    if g.is_terminal:
        return row[g.arg1], True
    a, ok_a = _mep_gene_scalar(chrom, g.arg1, row)
    b, ok_b = _mep_gene_scalar(chrom, g.arg2, row)
    if g.op == "add":
        v = a + b
    elif g.op == "sub":
        v = a - b
    elif g.op == "mul":
        v = a * b
    else:
        v = 1.0 if abs(b) < 1e-12 else a / b
    return v, ok_a and ok_b and math.isfinite(v)


def _lgp_prefix_scalar(prog, upto, x_row):
    """Re-execute instructions [0..upto] for one case; value written by the
    last one plus a taint flag over everything it depended on."""
    regs = [lgp.REGISTER_INIT] * prog.num_registers
    regs[: prog.num_inputs] = [x_row[j] for j in range(prog.num_inputs)]
    ok = [True] * prog.num_registers
    value, valid = None, True
    for i in range(upto + 1):
        ins = prog.instructions[i]
        a = regs[ins.src1] if isinstance(ins.src1, int) else ins.src1
        b = regs[ins.src2] if isinstance(ins.src2, int) else ins.src2
        a_ok = ok[ins.src1] if isinstance(ins.src1, int) else True
        b_ok = ok[ins.src2] if isinstance(ins.src2, int) else True
        if ins.op == "add":
            v = a + b
        elif ins.op == "sub":
            v = a - b
        elif ins.op == "mul":
            v = a * b
        else:
            v = 1.0 if abs(b) < 1e-12 else a / b
        regs[ins.dest] = v
        ok[ins.dest] = a_ok and b_ok and math.isfinite(v)
        value, valid = v, ok[ins.dest]
    return value, valid


def _coins(*takes):
    """A scripted source whose fair coins come out as ``takes`` (True keeps
    parent 1's gene in offspring 1)."""
    return StubRandom([("random", 0.1 if take else 0.9) for take in takes])


def test_criterion_1_mep_oracle_equivalence():
    rng = RandomSource(3101)
    prims = PrimitiveSet.for_inputs(1)
    started = time.perf_counter()
    for trial in range(1000):
        chrom = mep.random_chromosome(1 + rng.randint(16), prims, rng)
        table = mep.decode(chrom, FIVE_CASES)
        brute = math.inf
        for i in range(len(chrom)):
            row_ok = True
            err = 0.0
            for k in range(FIVE_CASES.n):
                v, ok = _mep_gene_scalar(chrom, i, FIVE_CASES.inputs[k])
                row_ok = row_ok and ok
                if row_ok:
                    assert math.isclose(v, table.values[i, k], rel_tol=1e-12)
                    err = err + abs(v - FIVE_CASES.targets[k])
            assert bool(table.valid[i]) is row_ok
            if row_ok:
                brute = min(brute, err)
        fit, _ = mep.fitness(chrom, FIVE_CASES, "multi")
        assert fit == brute
    elapsed = time.perf_counter() - started
    print(f"criterion 1: 1000 chromosomes matched the recursive oracle "
          f"in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_lgp_oracle_equivalence():
    rng = RandomSource(3102)
    prims = PrimitiveSet.for_inputs(1)
    started = time.perf_counter()
    for trial in range(1000):
        prog = lgp.random_program(
            1 + rng.randint(12), 5, 1, prims, rng,
            constant_rate=0.3, constant_range=(-5.0, 5.0),
        )
        brute = math.inf
        for i in range(len(prog.instructions)):
            err = 0.0
            ok_all = True
            for k in range(FIVE_CASES.n):
                v, ok = _lgp_prefix_scalar(prog, i, FIVE_CASES.inputs[k])
                if not ok:
                    ok_all = False
                    break
                err = err + abs(v - FIVE_CASES.targets[k])
            if ok_all:
                brute = min(brute, err)
        fit, _ = lgp.fitness(prog, FIVE_CASES, "multi")
        assert fit == brute
    elapsed = time.perf_counter() - started
    print(f"criterion 2: 1000 programs matched prefix re-execution "
          f"in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_3_worked_goldens():
    # integer genome to infix expression, with all four distinct sub-trees
    ab = PrimitiveSet(terminals=("a", "b"))
    expr = ifgp.decode(ifgp.IfgpChromosome((7, 3, 2, 0, 5, 2)), ab)
    assert expr.text == "b/(a+a)"
    subs = ifgp.subexpressions(expr)
    assert len(subs) == 4
    assert {ifgp.canonical(n) for n in subs} == {"a", "b", "(a+a)", "(b/(a+a))"}

    # worked MEP chromosome: gene 7 holds (a+b)*(c+d)
    abcd = PrimitiveSet(terminals=("a", "b", "c", "d"))
    T, F = mep.MepGene.terminal, mep.MepGene.function
    sample = mep.MepChromosome((
        T(0), T(1), F("add", 0, 1), T(2), T(3), F("add", 3, 4), F("mul", 2, 5),
    ))
    assert mep.expression(sample, 6, abcd) == "(a+b)*(c+d)"

    # MEP uniform recombination golden pair
    mep_p1 = mep.MepChromosome((
        T(1), F("mul", 0, 0), F("add", 1, 0), T(0), F("mul", 2, 1), T(0),
        F("sub", 0, 3),
    ))
    o1, o2 = mep.crossover_uniform(mep_p1, sample, _coins(False, True, True, False, True, False, True))
    assert o1 == mep.MepChromosome((
        T(0), F("mul", 0, 0), F("add", 1, 0), T(2), F("mul", 2, 1),
        F("add", 3, 4), F("sub", 0, 3),
    ))
    assert o2 == mep.MepChromosome((
        T(1), T(1), F("add", 0, 1), T(0), T(3), T(0), F("mul", 2, 5),
    ))

    # LGP uniform recombination golden pair
    I = lgp.LgpInstruction
    lgp_p1 = lgp.LgpProgram((
        I(5, "mul", 3, 2), I(3, "add", 1, 6.0), I(0, "mul", 4, 7),
        I(5, "sub", 4, 1), I(1, "mul", 6, 7.0), I(0, "add", 0, 4),
        I(2, "div", 3, 4),
    ), 8, 1)
    lgp_p2 = lgp.LgpProgram((
        I(2, "add", 0, 3), I(1, "mul", 2, 6), I(4, "sub", 6, 4.0),
        I(6, "div", 5, 2), I(2, "add", 1, 7.0), I(1, "add", 2, 4),
        I(0, "mul", 4, 3.0),
    ), 8, 1)
    o1, o2 = lgp.crossover_uniform(lgp_p1, lgp_p2, _coins(True, False, True, True, False, False, False))
    assert o1 == lgp.LgpProgram((
        I(5, "mul", 3, 2), I(1, "mul", 2, 6), I(0, "mul", 4, 7),
        I(5, "sub", 4, 1), I(2, "add", 1, 7.0), I(1, "add", 2, 4),
        I(0, "mul", 4, 3.0),
    ), 8, 1)
    assert o2 == lgp.LgpProgram((
        I(2, "add", 0, 3), I(3, "add", 1, 6.0), I(4, "sub", 6, 4.0),
        I(6, "div", 5, 2), I(1, "mul", 6, 7.0), I(0, "add", 0, 4),
        I(2, "div", 3, 4),
    ), 8, 1)
    print("criterion 3: decode and recombination goldens reproduced")


@pytest.fixture(scope="session")
def preset_rates():
    """Success rates for all six variants on f1..f4 at the preset
    configuration, 100 paired runs per cell."""
    rates = {}
    for variant in VARIANTS:
        length = 30 if "ifgp" in variant else 20
        for problem in PROBLEM_IDS:
            wins = 0
            for i in range(PRESET_RUNS):
                wins += run_one(variant, problem, length, 50,
                                BASE_SEED + i).success
            rates[variant, problem] = wins / PRESET_RUNS
    return rates


def test_criterion_4_multi_dominates_single(preset_rates):
    for (variant, problem), rate in sorted(preset_rates.items()):
        print(f"  {variant:8s} {problem}: {rate:.2f}")
    failures = []
    for technique in ("mep", "lgp", "ifgp"):
        multi, single = variant_pair(technique)
        for problem in PROBLEM_IDS:
            m, s = preset_rates[multi, problem], preset_rates[single, problem]
            if m < s:
                failures.append(f"{multi} {m:.2f} < {single} {s:.2f} on {problem}")
    print("criterion 4: " + ("dominance holds on every problem"
                             if not failures else "; ".join(failures)))
    assert not failures, failures


def test_criterion_5_mep_band_on_the_easiest_problem():
    started = time.perf_counter()
    wins = 0
    for i in range(PRESET_RUNS):
        wins += run_one("mep", "f2", 12, 50, BASE_SEED + i).success
    elapsed = time.perf_counter() - started
    rate = wins / PRESET_RUNS
    print(f"criterion 5: mep f2 at length 12 -> {rate:.2f} in {elapsed:.0f}s")
    assert rate >= 0.80
    assert elapsed < 120.0


def test_criterion_6_hard_problem_bands(preset_rates):
    sep = preset_rates["sep", "f3"]
    ss_lgp = preset_rates["ss-lgp", "f3"]
    mep_rate = preset_rates["mep", "f3"]
    ms_lgp = preset_rates["ms-lgp", "f3"]
    print(f"criterion 6: sep f3 {sep:.2f} (<= 0.20), ss-lgp f3 {ss_lgp:.2f} "
          f"(<= 0.15), mep {mep_rate:.2f} > sep, ms-lgp {ms_lgp:.2f} > ss-lgp")
    assert sep <= 0.20
    assert mep_rate > sep
    assert ms_lgp > ss_lgp
    assert ss_lgp <= 0.15


def test_criterion_7_identical_decoding_cost_per_mode():
    cases = FIVE_CASES
    prims = PrimitiveSet.for_inputs(1)
    rng = RandomSource(3107)
    checked = 0
    for trial in range(100):
        chrom = mep.random_chromosome(20, prims, rng)
        prog = lgp.random_program(20, 5, 1, prims, rng)
        tree = ifgp.random_chromosome(30, prims, rng)
        for multi_call, single_call in (
            (lambda: mep.fitness(chrom, cases, "multi"),
             lambda: mep.fitness(chrom, cases, "single")),
            (lambda: lgp.fitness(prog, cases, "multi"),
             lambda: lgp.fitness(prog, cases, "single")),
            (lambda: ifgp.fitness(tree, cases, prims, "multi"),
             lambda: ifgp.fitness(tree, cases, prims, "single")),
        ):
            reset_ops()
            multi_call()
            multi_cost = ops_applied()
            reset_ops()
            single_call()
            single_cost = ops_applied()
            assert multi_cost == single_cost
            checked += multi_cost > 0
    reset_ops()
    print(f"criterion 7: multi and single cost the same operations "
          f"({checked} nonzero comparisons)")
    assert checked > 0


def test_criterion_8_preset_experiment_is_byte_deterministic(tmp_path):
    args = ["paper", "mep-exp1", "--runs", "2", "--problems", "f1,f2",
            "--values", "4,8", "--seed", "7"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    produced = sorted(p.name for p in first.iterdir())
    assert produced == sorted(p.name for p in second.iterdir())
    assert "figure1.csv" in produced
    assert "figure1-f1.svg" in produced
    for name in produced:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"criterion 8: {len(produced)} emitted files byte-identical "
          f"across reruns")


def test_criterion_9_evolution_loop_contracts():
    for seed in range(100):
        cases = make_problem("f1", RandomSource(seed))
        cfg = EvolutionConfig("mep", 8, population_size=10, generations=15)
        series = run_evolution(cfg, cases, RandomSource(seed)).best_per_generation
        assert all(b <= a for a, b in zip(series, series[1:])), seed

    fits = [1.0, 2.0, 3.0, 4.0]
    rng = RandomSource(3109)
    trials = 10_000
    wins = sum(binary_tournament(fits, rng) == 0 for _ in range(trials))
    frequency = wins / trials
    print(f"criterion 9: 100 runs non-increasing; binary tournament picks "
          f"the best with frequency {frequency:.4f} (expected 0.4375)")
    assert abs(frequency - 7 / 16) <= 0.02
