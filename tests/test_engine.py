import dataclasses
import functools
import math

import pytest

from multigp import engine, ifgp, lgp, mep
from multigp.core import (
    MODES,
    PROBLEM_IDS,
    ROW_STORE_BYTES,
    PrimitiveSet,
    RandomSource,
    RowStore,
    make_problem,
    ops_applied,
)
from multigp.engine import (
    SUCCESS_THRESHOLD,
    TECHNIQUES,
    EvolutionConfig,
    RunResult,
    Toolbox,
    binary_tournament,
    evolve_steady_state,
    evolve_tournament,
    make_toolbox,
    run_evolution,
)
from multigp.harness import VARIANTS

from conftest import StubRandom, reference_fitness


# --- configuration validation ---

def test_config_accepts_the_benchmark_presets():
    for technique in TECHNIQUES:
        for mode in MODES:
            EvolutionConfig(technique, 20, mode).validate()


@pytest.mark.parametrize("cfg", [
    EvolutionConfig("cgp", 20),
    EvolutionConfig("mep", 20, mode="best"),
    EvolutionConfig("mep", 0),
    EvolutionConfig("ifgp", 1),  # needs the reserved repair gene
    EvolutionConfig("mep", 20, population_size=0),
    EvolutionConfig("mep", 20, generations=0),
    EvolutionConfig("mep", 20, crossover_probability=1.2),
    EvolutionConfig("mep", 20, crossover_probability=-0.1),
    EvolutionConfig("mep", 20, mutations=-1),
    EvolutionConfig("lgp", 20, population_size=3),  # tournament of four
])
def test_config_rejects_bad_fields(cfg):
    with pytest.raises(ValueError):
        cfg.validate()


# --- binary tournament ---

def test_tournament_picks_the_fitter_of_two():
    fits = [1.0, 2.0]
    rng = StubRandom([("randint", 0), ("randint", 1)])
    assert binary_tournament(fits, rng) == 0
    rng = StubRandom([("randint", 1), ("randint", 0)])
    assert binary_tournament(fits, rng) == 0


def test_tournament_tie_keeps_the_first_pick():
    rng = StubRandom([("randint", 1), ("randint", 0)])
    assert binary_tournament([2.0, 2.0], rng) == 1


def test_tournament_win_frequency_for_the_best_of_four():
    # best of [1,2,3,4] wins when drawn first (1/4) or second against a
    # strictly worse first pick (3/4 * 1/4), i.e. with probability 7/16
    fits = [1.0, 2.0, 3.0, 4.0]
    rng = RandomSource(424242)
    trials = 10_000
    wins = sum(binary_tournament(fits, rng) == 0 for _ in range(trials))
    assert abs(wins / trials - 7 / 16) <= 0.02


# --- rigged toolboxes: individuals are (name, fitness) pairs ---

def rigged_toolbox(spawns, mutants=None, crossovers=None):
    spawn_queue = list(spawns)
    mutate_queue = None if mutants is None else list(mutants)
    cross_queue = list(crossovers or [])
    crossed = []

    def crossover(a, b, rng):
        crossed.append((a, b))
        return cross_queue.pop(0)

    def mutate(ind, rng):
        return ind if mutate_queue is None else mutate_queue.pop(0)

    tb = Toolbox(
        spawn=lambda rng: spawn_queue.pop(0),
        crossover=crossover,
        mutate=mutate,
        evaluate=lambda ind: ind[1],
        describe=lambda ind: ind[0],
    )
    return tb, crossed


def test_steady_state_keeps_equal_fitness_children_out():
    # event 1 produces a child tying the worst individual: no replacement.
    # event 2 then crosses slot 1 with itself, which exposes the survivor.
    tb, crossed = rigged_toolbox(
        spawns=[("a", 1.0), ("b", 5.0)],
        mutants=[("c", 5.0), ("d", 7.0), ("g", 0.5), ("h", 9.9)],
        crossovers=[(("e", 9.0), ("f", 9.5))],
    )
    cfg = EvolutionConfig("mep", 4, population_size=2, generations=2)
    rng = StubRandom([
        ("randint", 0), ("randint", 0), ("randint", 0), ("randint", 0),
        ("random", 0.95),
        ("randint", 1), ("randint", 1), ("randint", 1), ("randint", 1),
        ("random", 0.1),
    ])
    result = evolve_steady_state(tb, cfg, rng)
    rng.assert_exhausted()
    assert crossed == [(("b", 5.0), ("b", 5.0))]
    assert result.best_per_generation == [1.0, 0.5]
    assert result.best_individual == ("g", 0.5)
    assert result.evaluations == 2 + 2 * 2 * (2 // 2)
    assert result.expression == "g"


def test_steady_state_replaces_the_first_occurring_worst():
    # fitness 9.0 appears at slots 1 and 2; a better child must land on slot 1
    tb, crossed = rigged_toolbox(
        spawns=[("a", 3.0), ("b", 9.0), ("c", 9.0), ("d", 1.0)],
        mutants=[("e", 2.0), ("f", 8.5), ("g", 0.5), ("h", 9.9)],
        crossovers=[(("x", 5.0), ("y", 5.0))],
    )
    cfg = EvolutionConfig("mep", 4, population_size=4, generations=1)
    rng = StubRandom([
        ("randint", 0), ("randint", 0), ("randint", 3), ("randint", 3),
        ("random", 0.95),
        ("randint", 1), ("randint", 1), ("randint", 2), ("randint", 2),
        ("random", 0.1),
    ])
    result = evolve_steady_state(tb, cfg, rng)
    rng.assert_exhausted()
    # event 2 read slots 1 and 2: slot 1 now holds the child, slot 2 is intact
    assert crossed == [(("e", 2.0), ("c", 9.0))]
    assert result.best_per_generation == [0.5]
    assert result.best_individual == ("g", 0.5)
    assert result.evaluations == 4 + 2 * 2


def test_steady_state_replaces_the_first_of_tied_infinite_worsts():
    # invalid individuals score +inf; slots 0, 2 and 3 tie as worst, so the
    # events replace slot 0, then slot 2, then slot 3
    inf = math.inf
    tb, crossed = rigged_toolbox(
        spawns=[("a", inf), ("b", 2.0), ("c", inf), ("d", inf)],
        mutants=[("e", 4.0), ("f", 8.5), ("g", 0.5), ("h", 9.9),
                 ("i", 7.0), ("j", 9.0), ("k", 9.5), ("l", 9.6)],
        crossovers=[(("x", 5.0), ("y", 5.0))] * 3,
    )
    cfg = EvolutionConfig("mep", 4, population_size=4, generations=2)
    rng = StubRandom([
        ("randint", 1), ("randint", 1), ("randint", 1), ("randint", 1),
        ("random", 0.95),
        ("randint", 0), ("randint", 0), ("randint", 2), ("randint", 2),
        ("random", 0.1),
        ("randint", 2), ("randint", 2), ("randint", 3), ("randint", 3),
        ("random", 0.1),
        ("randint", 3), ("randint", 3), ("randint", 3), ("randint", 3),
        ("random", 0.1),
    ])
    result = evolve_steady_state(tb, cfg, rng)
    rng.assert_exhausted()
    # events 2-4 each cross the slot the event before replaced with the next
    # tied slot, still intact (event 4 has none left and reads slot 3 twice)
    assert crossed == [
        (("e", 4.0), ("c", inf)),
        (("g", 0.5), ("d", inf)),
        (("i", 7.0), ("i", 7.0)),
    ]
    assert result.best_per_generation == [0.5, 0.5]
    assert result.best_individual == ("g", 0.5)


def test_steady_state_prefers_the_first_offspring_on_ties():
    tb, _ = rigged_toolbox(
        spawns=[("a", 5.0), ("b", 6.0)],
        mutants=[("c", 1.0), ("d", 1.0)],
    )
    cfg = EvolutionConfig("mep", 4, population_size=2, generations=1)
    rng = StubRandom([
        ("randint", 0), ("randint", 0), ("randint", 0), ("randint", 0),
        ("random", 0.95),
    ])
    result = evolve_steady_state(tb, cfg, rng)
    rng.assert_exhausted()
    assert result.best_individual == ("c", 1.0)


def test_crossover_gate_draw_is_consumed_even_at_probability_zero():
    # the per-event draw schedule stays fixed whatever the crossover setting
    tb, crossed = rigged_toolbox(
        spawns=[("a", 5.0), ("b", 6.0)],
        mutants=[("c", 9.0), ("d", 9.5)],
    )
    cfg = EvolutionConfig("mep", 4, population_size=2, generations=1,
                          crossover_probability=0.0)
    rng = StubRandom([
        ("randint", 0), ("randint", 0), ("randint", 0), ("randint", 0),
        ("random", 0.5),
    ])
    evolve_steady_state(tb, cfg, rng)
    rng.assert_exhausted()
    assert crossed == []


def test_tournament_of_four_parents_losers_and_unconditional_replacement():
    # event 1: picks rank b,d,c,a; offspring e (worse) and f overwrite the
    # losers c and a.  event 2 picks e as a parent, proving the worse
    # offspring really evicted c.  event 3 exposes f sitting in slot 0.
    tb, crossed = rigged_toolbox(
        spawns=[("a", 4.0), ("b", 1.0), ("c", 3.0),
                ("d", 2.0), ("y", 40.0), ("z", 50.0)],
        crossovers=[
            (("e", 9.0), ("f", 0.9)),
            (("g", 9.9), ("h", 9.8)),
            (("i", 9.7), ("j", 9.6)),
        ],
    )
    cfg = EvolutionConfig("lgp", 4, population_size=6, generations=1)
    rng = StubRandom([
        ("randint", 0), ("randint", 1), ("randint", 2), ("randint", 3),
        ("random", 0.1),
        ("randint", 2), ("randint", 4), ("randint", 5), ("randint", 1),
        ("random", 0.1),
        ("randint", 0), ("randint", 1), ("randint", 2), ("randint", 3),
        ("random", 0.1),
    ])
    result = evolve_tournament(tb, cfg, rng)
    rng.assert_exhausted()
    assert [(a[0], b[0]) for a, b in crossed] == [("b", "d"), ("b", "e"), ("f", "b")]
    assert result.best_individual == ("f", 0.9)
    assert result.best_per_generation == [0.9]
    assert result.evaluations == 6 + 2 * 3


def test_tournament_of_four_needs_four_individuals():
    tb, _ = rigged_toolbox(spawns=[("a", 1.0)] * 3)
    cfg = EvolutionConfig("lgp", 4, population_size=3, generations=1)
    with pytest.raises(ValueError):
        evolve_tournament(tb, cfg, StubRandom([]))


def test_run_evolution_dispatches_lgp_to_the_four_tournament(monkeypatch):
    cases = make_problem("f1", RandomSource(11))
    monkeypatch.setattr(engine, "evolve_tournament", lambda tb, cfg, rng: "tournament")
    monkeypatch.setattr(engine, "evolve_steady_state", lambda tb, cfg, rng: "steady state")
    for technique in TECHNIQUES:
        loop = run_evolution(EvolutionConfig(technique, 6), cases, RandomSource(1))
        assert loop == ("tournament" if technique == "lgp" else "steady state")


def test_success_threshold_is_strict():
    for fit, expect in [(SUCCESS_THRESHOLD, False), (0.0099, True), (0.0, True)]:
        tb, _ = rigged_toolbox(spawns=[("a", fit)])
        cfg = EvolutionConfig("mep", 4, population_size=1, generations=1)
        result = evolve_steady_state(tb, cfg, StubRandom([]))
        assert result.success is expect


def test_population_of_one_evolves_nothing():
    tb, crossed = rigged_toolbox(spawns=[("a", 2.0)])
    cfg = EvolutionConfig("mep", 4, population_size=1, generations=5)
    result = evolve_steady_state(tb, cfg, StubRandom([]))
    assert result.best_per_generation == [2.0] * 5
    assert result.evaluations == 1
    assert crossed == []


# --- real runs ---

@pytest.mark.parametrize("technique,length", [("mep", 8), ("lgp", 8), ("ifgp", 10)])
def test_best_fitness_never_increases(technique, length):
    cases = make_problem("f1", RandomSource(21))
    for seed in range(5):
        cfg = EvolutionConfig(technique, length, population_size=8, generations=12)
        result = run_evolution(cfg, cases, RandomSource(100 + seed))
        series = result.best_per_generation
        assert len(series) == cfg.generations
        assert all(series[i + 1] <= series[i] for i in range(len(series) - 1))
        assert result.final_fitness == series[-1] == min(series)
        assert result.evaluations == 8 + 2 * 12 * (8 // 2)
        assert result.success is (result.final_fitness < SUCCESS_THRESHOLD)


def test_runs_are_reproducible_and_seed_sensitive():
    cases = make_problem("f2", RandomSource(3))
    cfg = EvolutionConfig("mep", 10, population_size=10, generations=8)
    a = run_evolution(cfg, cases, RandomSource(777))
    b = run_evolution(cfg, cases, RandomSource(777))
    c = run_evolution(cfg, cases, RandomSource(778))
    assert a.seed == 777
    assert a.best_per_generation == b.best_per_generation
    assert a.final_fitness == b.final_fitness
    assert a.expression == b.expression
    assert a.best_per_generation != c.best_per_generation


def test_make_toolbox_produces_working_closures():
    cases = make_problem("f1", RandomSource(9))
    rng = RandomSource(10)
    for technique, length in [("mep", 8), ("lgp", 8), ("ifgp", 10)]:
        tb = make_toolbox(EvolutionConfig(technique, length), cases)
        a, b = tb.spawn(rng), tb.spawn(rng)
        fit = tb.evaluate(a)
        assert isinstance(fit, float) and (fit >= 0.0 or math.isinf(fit))
        o1, o2 = tb.crossover(a, b, rng)
        m = tb.mutate(o1, rng)
        assert type(m) is type(a) is type(o2)
        assert isinstance(tb.describe(a), str) and tb.describe(a)


def test_lgp_description_names_the_output_register():
    cases = make_problem("f1", RandomSource(9))
    tb = make_toolbox(EvolutionConfig("lgp", 8, mode="single"), cases)
    text = tb.describe(tb.spawn(RandomSource(10)))
    assert "output: r[" in text


# --- the run's row store against the store-free reference fitness ---

STORE_LENGTHS = {"mep": 12, "lgp": 12, "ifgp": 20}


def _fitness(technique, cases, mode, store=None):
    """The encoding's fitness as the toolbox calls it, optionally through a store."""
    prims = PrimitiveSet.for_inputs(cases.num_inputs)
    if technique == "mep":
        return lambda c: mep.fitness(c, cases, mode, store)
    if technique == "lgp":
        return lambda c: lgp.fitness(c, cases, mode, store)
    return lambda c: ifgp.fitness(c, cases, prims, mode, store)


class CountingStore(RowStore):
    """RowStore that counts how often it starts over."""

    clears = 0

    def _clear(self, count):
        CountingStore.clears += 1
        super()._clear(count)


# the store-free fitness is conftest.reference_fitness: evaluate_rows over
# the chromosome's rows (LGP's in SSA form), with no store at all.  Budgets:
# the usual size; 24 rows of 20 cases, so the store starts over every few
# evaluations; and less than one chromosome's rows, so it grows to one
# chromosome and starts over on nearly every evaluation
@pytest.mark.parametrize("budget", [ROW_STORE_BYTES, 24 * 8 * 20, 0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_evaluation_through_the_store_matches_the_store_free_fitness(monkeypatch, variant, budget):
    technique, mode = VARIANTS[variant]
    monkeypatch.setattr(CountingStore, "clears", 0)
    monkeypatch.setattr(engine, "RowStore", functools.partial(CountingStore, budget=budget))
    checked = []

    def checked_toolbox(cfg, cases):
        box = make_toolbox(cfg, cases)

        def evaluate(chrom):
            ops0 = ops_applied()
            got = box.evaluate(chrom)
            want, _, ops = reference_fitness(technique, chrom, cases, mode)
            assert got.hex() == want.hex()
            assert ops_applied() - ops0 == ops > 0
            checked.append(got)
            return got

        return dataclasses.replace(box, evaluate=evaluate)

    monkeypatch.setattr(engine, "make_toolbox", checked_toolbox)
    for seed, problem in ((31, "f1"), (32, "f3")):
        rng = RandomSource(seed)
        cases = make_problem(problem, rng)
        cfg = EvolutionConfig(technique, STORE_LENGTHS[technique], mode, population_size=12, generations=10)
        run_evolution(cfg, cases, rng)
    assert len(checked) == 2 * (12 + 10 * 12)
    assert (CountingStore.clears > 50) is (budget < ROW_STORE_BYTES)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_re_evaluation_computes_no_row_but_counts_every_operation(technique):
    cases = make_problem("f2", RandomSource(41))
    store = RowStore(cases)
    through_store = _fitness(technique, cases, "multi", store)
    pure = _fitness(technique, cases, "multi")
    rng = RandomSource(42)
    box = make_toolbox(EvolutionConfig(technique, STORE_LENGTHS[technique]), cases)
    chrom = box.spawn(rng)
    ops0 = ops_applied()
    first = through_store(chrom)
    computed = store.computed_rows
    ops1 = ops_applied()
    again = through_store(chrom)
    ops2 = ops_applied()
    assert pure(chrom) == first == again
    nominal = ops_applied() - ops2
    assert nominal > 0 and ops1 - ops0 == ops2 - ops1 == nominal
    assert 0 < computed * cases.n <= nominal
    assert store.computed_rows == computed


# --- what bench/tracing.py reads of an IFGP evaluation ---

@pytest.mark.parametrize("mode", MODES)
def test_each_ifgp_evaluation_decodes_once_and_applies_its_operator_tokens(monkeypatch, mode):
    # the tracer rebinds ifgp.decode, calls it with positional arguments only
    # and counts the operator tokens of its result
    decoded = []
    real_decode = ifgp.decode

    def counting_decode(*args):
        result = real_decode(*args)
        decoded.append(sum(token in "+-*/" for token in result.tokens))
        return result

    monkeypatch.setattr(ifgp, "decode", counting_decode)
    evaluations = []

    def counting_toolbox(cfg, cases):
        box = make_toolbox(cfg, cases)

        def evaluate(chrom):
            mark, ops0 = len(decoded), ops_applied()
            fit = box.evaluate(chrom)
            evaluations.append((decoded[mark:], ops_applied() - ops0, cases.n))
            return fit

        return dataclasses.replace(box, evaluate=evaluate)

    monkeypatch.setattr(engine, "make_toolbox", counting_toolbox)
    for seed, problem in ((71, "f1"), (72, "f4")):
        rng = RandomSource(seed)
        cases = make_problem(problem, rng)
        run_evolution(EvolutionConfig("ifgp", 12, mode, population_size=10, generations=6), cases, rng)
    assert len(evaluations) == 2 * (10 + 6 * 10)
    for units, ops, n in evaluations:
        assert len(units) == 1
        assert ops == units[0] * n
    assert any(ops > 0 for _, ops, _ in evaluations)


# --- each loop against a self-contained reference ---

def _reference_result(toolbox, rng, best, best_fit, series, evaluations):
    return RunResult(seed=rng.seed, best_per_generation=series, final_fitness=best_fit,
                     success=best_fit < SUCCESS_THRESHOLD, evaluations=evaluations,
                     best_individual=best, expression=toolbox.describe(best))


def scan_every_event(toolbox, cfg, rng):
    """``evolve_steady_state`` as first written: the worst individual is
    looked up anew at every mating event, whether or not one was replaced."""
    population = [toolbox.spawn(rng) for _ in range(cfg.population_size)]
    fitnesses = [toolbox.evaluate(ind) for ind in population]
    evaluations = cfg.population_size
    best_idx, best_fit = min(enumerate(fitnesses), key=lambda kv: kv[1])
    best = population[best_idx]
    series = []
    for _ in range(cfg.generations):
        for _ in range(cfg.population_size // 2):
            p1 = binary_tournament(fitnesses, rng)
            p2 = binary_tournament(fitnesses, rng)
            if rng.random() < cfg.crossover_probability:
                o1, o2 = toolbox.crossover(population[p1], population[p2], rng)
            else:
                o1, o2 = population[p1], population[p2]
            o1 = toolbox.mutate(o1, rng)
            o2 = toolbox.mutate(o2, rng)
            f1 = toolbox.evaluate(o1)
            f2 = toolbox.evaluate(o2)
            evaluations += 2
            child, child_fit = (o1, f1) if f1 <= f2 else (o2, f2)
            if child_fit < best_fit:
                best, best_fit = child, child_fit
            worst = fitnesses.index(max(fitnesses))
            if child_fit < fitnesses[worst]:
                population[worst] = child
                fitnesses[worst] = child_fit
        series.append(best_fit)
    return _reference_result(toolbox, rng, best, best_fit, series, evaluations)


def tournament_of_four(toolbox, cfg, rng):
    """``evolve_tournament`` as a loop of its own: four distinct slots per
    event, ranked by a stable sort; the best two mate and their offspring
    overwrite the other two."""
    population = [toolbox.spawn(rng) for _ in range(cfg.population_size)]
    fitnesses = [toolbox.evaluate(ind) for ind in population]
    evaluations = cfg.population_size
    best_idx, best_fit = min(enumerate(fitnesses), key=lambda kv: kv[1])
    best = population[best_idx]
    series = []
    for _ in range(cfg.generations):
        for _ in range(cfg.population_size // 2):
            picks = rng.sample_distinct(cfg.population_size, 4)
            parent1, parent2, loser1, loser2 = sorted(picks, key=fitnesses.__getitem__)
            if rng.random() < cfg.crossover_probability:
                o1, o2 = toolbox.crossover(population[parent1], population[parent2], rng)
            else:
                o1, o2 = population[parent1], population[parent2]
            o1 = toolbox.mutate(o1, rng)
            o2 = toolbox.mutate(o2, rng)
            f1 = toolbox.evaluate(o1)
            f2 = toolbox.evaluate(o2)
            evaluations += 2
            contender, contender_fit = (o1, f1) if f1 <= f2 else (o2, f2)
            if contender_fit < best_fit:
                best, best_fit = contender, contender_fit
            population[loser1], fitnesses[loser1] = o1, f1
            population[loser2], fitnesses[loser2] = o2, f2
        series.append(best_fit)
    return _reference_result(toolbox, rng, best, best_fit, series, evaluations)


def tying_toolbox(cfg, cases):
    """Individuals are small integers and a fitness takes one of four
    values, so the worst (and the best) tie nearly always."""
    return Toolbox(
        spawn=lambda rng: rng.randint(16),
        crossover=lambda a, b, rng: ((a + b) % 16, (a * b + rng.randint(16)) % 16),
        mutate=lambda ind, rng: (ind + rng.randint(3)) % 16,
        evaluate=lambda ind: float(ind % 4),
        describe=str,
    )


@pytest.mark.parametrize("variant", ["mep", "sep", "ifgp", "ss-ifgp", "ties",
                                     "ms-lgp", "ss-lgp", "ties-of-four"])
def test_steady_state_replaces_the_worst_a_scan_at_every_event_finds(variant):
    # the tournament-of-four variants check evolve_tournament the same way
    technique, mode = VARIANTS.get(variant, ("lgp" if variant == "ties-of-four" else "mep", "multi"))
    loop, reference = ((evolve_tournament, tournament_of_four) if technique == "lgp"
                       else (evolve_steady_state, scan_every_event))
    toolbox = tying_toolbox if variant.startswith("ties") else make_toolbox
    for seed, population in ((81, 2), (82, 5), (83, 12), (84, 31)):
        if technique == "lgp":
            population = max(population, 4)
        cases = make_problem(PROBLEM_IDS[seed % 4], RandomSource(seed))
        length = 10 if technique == "ifgp" else 6
        cfg = EvolutionConfig(technique, length, mode, population_size=population, generations=8)
        got = loop(toolbox(cfg, cases), cfg, RandomSource(seed))
        want = reference(toolbox(cfg, cases), cfg, RandomSource(seed))
        assert got == want
