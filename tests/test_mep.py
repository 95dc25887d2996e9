import math

import numpy as np
import pytest

from multigp import mep
from multigp.core import PrimitiveSet, RandomSource, ops_applied, reset_ops
from multigp.mep import (
    MepChromosome,
    MepGene,
    crossover_uniform,
    crossover_with_mask,
    decode,
    expression,
    fitness,
    mutate,
    random_chromosome,
    render,
)

from conftest import StubRandom, make_cases

ABCD = PrimitiveSet(terminals=("a", "b", "c", "d"))
X = PrimitiveSet.for_inputs(1)

T = MepGene.terminal
F = MepGene.function


def chromosome(*genes):
    return MepChromosome(tuple(genes))


# E1=a, E2=b, E3=a+b, E4=c, E5=d, E6=c+d, E7=(a+b)*(c+d)
SAMPLE = chromosome(
    T(0), T(1), F("add", 0, 1), T(2), T(3), F("add", 3, 4), F("mul", 2, 5),
)


# --- oracle: independent recursive evaluation of one gene ---

def eval_gene_recursive(chrom, index, row, terminals):
    """Scalar re-evaluation of E_index on one case via plain recursion.

    Returns (value, valid); valid goes False as soon as any intermediate
    value in the dependency cone is non-finite.
    """
    g = chrom.genes[index]
    if g.is_terminal:
        return row[g.arg1], True
    a, ok_a = eval_gene_recursive(chrom, g.arg1, row, terminals)
    b, ok_b = eval_gene_recursive(chrom, g.arg2, row, terminals)
    if g.op == "add":
        v = a + b
    elif g.op == "sub":
        v = a - b
    elif g.op == "mul":
        v = a * b
    else:
        v = 1.0 if abs(b) < 1e-12 else a / b
    return v, ok_a and ok_b and math.isfinite(v)


def oracle_table(chrom, cases):
    """(values, valid) per gene, everything recomputed per case from scratch."""
    terminals = None
    values, valid = [], []
    for i in range(len(chrom)):
        row_vals, row_ok = [], True
        for k in range(cases.n):
            v, ok = eval_gene_recursive(chrom, i, cases.inputs[k], terminals)
            row_vals.append(v)
            row_ok = row_ok and ok
        values.append(row_vals)
        valid.append(row_ok)
    return values, valid


def oracle_fitness_multi(chrom, cases):
    values, valid = oracle_table(chrom, cases)
    best = math.inf
    for row_vals, ok in zip(values, valid):
        if not ok:
            continue
        err = 0.0
        for v, t in zip(row_vals, cases.targets):
            err = err + abs(v - t)
        best = min(best, err)
    return best


# --- representation and validation ---

def validate_chromosome(chrom, prims):
    """Raise ValueError unless every representation invariant holds."""
    if len(chrom) < 1:
        raise ValueError("chromosome must hold at least one gene")
    if not chrom.genes[0].is_terminal:
        raise ValueError("first gene must encode a terminal")
    for i, g in enumerate(chrom.genes):
        if g.is_terminal:
            if not 0 <= g.arg1 < len(prims.terminals):
                raise ValueError(f"gene {i}: terminal index {g.arg1} out of range")
        else:
            if g.op not in prims.functions:
                raise ValueError(f"gene {i}: unknown operator {g.op!r}")
            if not (0 <= g.arg1 < i and 0 <= g.arg2 < i):
                raise ValueError(f"gene {i}: arguments must point backwards")


def test_validate_accepts_sample_chromosome():
    validate_chromosome(SAMPLE, ABCD)


def test_validate_rejects_function_in_first_gene():
    with pytest.raises(ValueError):
        validate_chromosome(chromosome(F("add", 0, 0)), ABCD)


def test_validate_rejects_forward_references():
    with pytest.raises(ValueError):
        validate_chromosome(chromosome(T(0), F("add", 0, 1)), ABCD)
    with pytest.raises(ValueError):
        validate_chromosome(chromosome(T(0), F("add", 2, 0)), ABCD)


def test_validate_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        validate_chromosome(chromosome(T(4)), ABCD)
    with pytest.raises(ValueError):
        validate_chromosome(chromosome(T(0), F("pow", 0, 0)), ABCD)
    with pytest.raises(ValueError):
        validate_chromosome(MepChromosome(()), ABCD)


def test_random_chromosomes_always_validate():
    rng = RandomSource(2024)
    for trial in range(10_000):
        length = 1 + rng.randint(16)
        chrom = random_chromosome(length, ABCD, rng)
        validate_chromosome(chrom, ABCD)
        assert chrom.genes[0].is_terminal


def test_random_generator_splits_functions_evenly_past_position_zero():
    rng = RandomSource(55)
    genes = [g for _ in range(2000) for g in random_chromosome(8, X, rng).genes[1:]]
    share = sum(not g.is_terminal for g in genes) / len(genes)
    assert 0.45 < share < 0.55


def test_random_chromosome_rejects_empty_length():
    with pytest.raises(ValueError):
        random_chromosome(0, X, RandomSource(1))


# --- decoding against the recursive oracle ---

def test_decode_matches_recursive_oracle_on_sample(five_cases):
    chrom = chromosome(T(0), F("mul", 0, 0), F("add", 1, 0), F("div", 2, 1))
    table = decode(chrom, five_cases)
    values, valid = oracle_table(chrom, five_cases)
    assert [bool(v) for v in table.valid] == valid
    for i in range(len(chrom)):
        np.testing.assert_allclose(table.values[i], values[i], rtol=1e-12)


def test_decode_random_chromosomes_match_oracle():
    rng = RandomSource(77)
    for trial in range(300):
        cases = make_cases(
            [[rng.uniform(0, 10)] for _ in range(5)],
            [rng.uniform(0, 10) for _ in range(5)],
        )
        chrom = random_chromosome(1 + rng.randint(16), X, rng)
        table = decode(chrom, cases)
        values, valid = oracle_table(chrom, cases)
        assert [bool(v) for v in table.valid] == valid
        for i in range(len(chrom)):
            if valid[i]:
                np.testing.assert_allclose(table.values[i], values[i], rtol=1e-12)


def test_invalid_rows_taint_everything_built_on_them():
    # gene 1 overflows to inf; gene 2 divides by it, which is finite again
    huge = 1e308
    cases = make_cases([[huge]], [0.0])
    chrom = chromosome(T(0), F("mul", 0, 0), F("div", 0, 1), F("add", 2, 0))
    table = decode(chrom, cases)
    assert list(table.valid) == [True, False, False, False]
    errs = table.errors
    assert errs[0] == huge
    assert all(math.isinf(e) for e in errs[1:])


def test_division_by_zero_is_protected_not_tainted():
    cases = make_cases([[0.0], [2.0]], [1.0, 1.0])
    chrom = chromosome(T(0), F("div", 0, 0))
    table = decode(chrom, cases)
    assert table.valid.all()
    # 0/0 -> 1.0 by protection; 2/2 = 1.0
    assert list(table.values[1]) == [1.0, 1.0]


# --- fitness modes ---

def test_multi_fitness_equals_brute_force_min_exactly(five_cases):
    rng = RandomSource(99)
    for trial in range(300):
        chrom = random_chromosome(1 + rng.randint(16), X, rng)
        got, idx = fitness(chrom, five_cases, "multi")
        assert got == oracle_fitness_multi(chrom, five_cases)
        errs = decode(chrom, five_cases).errors
        assert idx == int(np.argmin(errs))


def test_single_fitness_reads_last_gene(five_cases):
    chrom = chromosome(T(0), F("mul", 0, 0), F("add", 1, 0))
    errs = decode(chrom, five_cases).errors
    got, idx = fitness(chrom, five_cases, "single")
    assert got == errs[-1]
    assert idx == len(chrom) - 1


def test_multi_fitness_never_exceeds_single(five_cases):
    rng = RandomSource(123)
    for trial in range(10_000):
        chrom = random_chromosome(1 + rng.randint(12), X, rng)
        multi, _ = fitness(chrom, five_cases, "multi")
        single, _ = fitness(chrom, five_cases, "single")
        assert multi <= single


def test_fitness_rejects_unknown_mode(five_cases):
    with pytest.raises(ValueError):
        fitness(SAMPLE, five_cases, "best")


def test_tie_breaks_to_lowest_gene_index():
    cases = make_cases([[3.0]], [3.0])
    chrom = chromosome(T(0), T(0), T(0))  # every gene fits perfectly
    got, idx = fitness(chrom, cases, "multi")
    assert got == 0.0
    assert idx == 0


# --- crossover ---

PARENT_1 = chromosome(
    T(1), F("mul", 0, 0), F("add", 1, 0), T(0), F("mul", 2, 1), T(0), F("sub", 0, 3),
)
PARENT_2 = SAMPLE
TAKE_FIRST = [False, True, True, False, True, False, True]
EXPECTED_O1 = chromosome(
    T(0), F("mul", 0, 0), F("add", 1, 0), T(2), F("mul", 2, 1), F("add", 3, 4), F("sub", 0, 3),
)
EXPECTED_O2 = chromosome(
    T(1), T(1), F("add", 0, 1), T(0), T(3), T(0), F("mul", 2, 5),
)


def test_uniform_recombination_golden_pair():
    o1, o2 = crossover_with_mask(PARENT_1, PARENT_2, TAKE_FIRST)
    assert o1 == EXPECTED_O1
    assert o2 == EXPECTED_O2


def test_crossover_uniform_draws_one_coin_per_position():
    # coin() is random() < 0.5, so 0.1 keeps parent 1's gene and 0.9 swaps
    draws = [("random", 0.9 if not take else 0.1) for take in TAKE_FIRST]
    rng = StubRandom(draws)
    o1, o2 = crossover_uniform(PARENT_1, PARENT_2, rng)
    assert o1 == EXPECTED_O1
    assert o2 == EXPECTED_O2
    rng.assert_exhausted()


def test_crossover_offspring_partition_parent_genes():
    rng = RandomSource(17)
    for trial in range(200):
        p1 = random_chromosome(9, ABCD, rng)
        p2 = random_chromosome(9, ABCD, rng)
        o1, o2 = crossover_uniform(p1, p2, rng)
        for i in range(9):
            assert {o1.genes[i], o2.genes[i]} == {p1.genes[i], p2.genes[i]}
        validate_chromosome(o1, ABCD)
        validate_chromosome(o2, ABCD)


def test_crossover_rejects_mismatched_parents():
    with pytest.raises(ValueError):
        crossover_uniform(chromosome(T(0)), chromosome(T(0), T(1)), RandomSource(0))
    with pytest.raises(ValueError):
        crossover_with_mask(SAMPLE, SAMPLE, [True])


# --- mutation ---

def test_mutation_golden_pair():
    before = chromosome(
        T(0), F("mul", 0, 0), T(1), F("mul", 1, 1), T(1), F("add", 2, 4), T(0),
    )
    after = chromosome(
        T(0), F("mul", 0, 0), F("add", 0, 1), F("mul", 1, 1), T(1), F("add", 0, 4), T(0),
    )
    draws = [
        # hit 1: gene 3 becomes the function  + 1, 2
        ("randint", 2), ("random", 0.1), ("randint", 0), ("randint", 0), ("randint", 1),
        # hit 2: gene 6 becomes  + 1, 5  (argument 3 redrawn as 1)
        ("randint", 5), ("random", 0.1), ("randint", 0), ("randint", 0), ("randint", 4),
    ]
    rng = StubRandom(draws)
    got = mutate(before, 2, ABCD, rng)
    assert got == after
    rng.assert_exhausted()


def test_mutation_preserves_invariants():
    rng = RandomSource(31)
    for trial in range(2000):
        chrom = random_chromosome(1 + rng.randint(12), ABCD, rng)
        mutated = mutate(chrom, 2, ABCD, rng)
        validate_chromosome(mutated, ABCD)
        assert len(mutated) == len(chrom)


def test_mutation_count_zero_is_identity():
    assert mutate(SAMPLE, 0, ABCD, RandomSource(1)) == SAMPLE
    with pytest.raises(ValueError):
        mutate(SAMPLE, -1, ABCD, RandomSource(1))


# --- rendering ---

def test_render_uses_one_based_labels():
    assert render(SAMPLE, ABCD).splitlines() == [
        "1: a",
        "2: b",
        "3: + 1, 2",
        "4: c",
        "5: d",
        "6: + 4, 5",
        "7: * 3, 6",
    ]


def test_expression_tree_rendering():
    assert expression(SAMPLE, 0, ABCD) == "a"
    assert expression(SAMPLE, 2, ABCD) == "a+b"
    assert expression(SAMPLE, 5, ABCD) == "c+d"
    assert expression(SAMPLE, 6, ABCD) == "(a+b)*(c+d)"


# --- cost parity ---

def test_decode_cost_independent_of_fitness_mode(five_cases):
    chrom = random_chromosome(20, X, RandomSource(8))
    reset_ops()
    fitness(chrom, five_cases, "multi")
    multi_cost = ops_applied()
    reset_ops()
    fitness(chrom, five_cases, "single")
    single_cost = ops_applied()
    reset_ops()
    assert multi_cost == single_cost
    functions = sum(not g.is_terminal for g in chrom.genes)
    assert multi_cost == functions * five_cases.n
