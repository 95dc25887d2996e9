"""The evolution loop shared by the three encodings, run under one of two
selection schemes: binary-tournament steady state for MEP/SEP and
IFGP/SS-IFGP, and the tournament of four for the LGP variants.  A scheme
supplies only how an event picks its parents and where its offspring go; the
loop tracks the best individual ever seen outside the population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from . import ifgp, lgp, mep
from .core import FitnessCaseSet, PrimitiveSet, RandomSource, RowStore, check_mode, check_settings

#: a run succeeds when its final best fitness falls below this
SUCCESS_THRESHOLD = 0.01

TECHNIQUES = ("mep", "lgp", "ifgp")


@dataclass(frozen=True)
class EvolutionConfig:
    technique: str
    chromosome_length: int
    mode: str = "multi"
    population_size: int = 50
    generations: int = 51
    crossover_probability: float = 0.9
    mutations: int = 2

    def validate(self) -> None:
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}")
        check_mode(self.mode)
        min_length = 2 if self.technique == "ifgp" else 1
        if self.chromosome_length < min_length:
            raise ValueError(f"{self.technique} needs chromosome length >= {min_length}")
        check_settings(self, "population_size", "generations")
        if self.technique == "lgp" and self.population_size < 4:
            raise ValueError("tournament of four needs a population of at least 4")


@dataclass
class Toolbox:
    """Encoding-specific operations the evolution loop is written against."""

    spawn: Callable[[RandomSource], Any]
    crossover: Callable[[Any, Any, RandomSource], tuple[Any, Any]]
    mutate: Callable[[Any, RandomSource], Any]
    evaluate: Callable[[Any], float]
    describe: Callable[[Any], str]


@dataclass
class RunResult:
    seed: int
    best_per_generation: list[float] = field(repr=False)
    final_fitness: float
    success: bool
    evaluations: int
    best_individual: Any = field(repr=False)
    expression: str


def make_toolbox(cfg: EvolutionConfig, cases: FitnessCaseSet) -> Toolbox:
    """The run's operations; ``evaluate`` and ``describe`` go through one
    RowStore per run."""
    cfg.validate()
    prims = PrimitiveSet.for_inputs(cases.num_inputs)
    length, mode, muts = cfg.chromosome_length, cfg.mode, cfg.mutations
    store = RowStore(cases)

    if cfg.technique == "mep":
        return Toolbox(
            spawn=lambda rng: mep.random_chromosome(length, prims, rng),
            crossover=mep.crossover_uniform,
            mutate=lambda c, rng: mep.mutate(c, muts, prims, rng),
            evaluate=lambda c: mep.fitness(c, cases, mode, store)[0],
            describe=lambda c: mep.expression(c, mep.fitness(c, cases, mode, store)[1], prims),
        )
    if cfg.technique == "lgp":
        registers = cases.num_inputs + lgp.SUPPLEMENTARY_REGISTERS
        return Toolbox(
            spawn=lambda rng: lgp.random_program(length, registers, cases.num_inputs, prims, rng),
            crossover=lgp.crossover_uniform,
            mutate=lambda p, rng: lgp.mutate(p, muts, prims, rng),
            evaluate=lambda p: lgp.fitness(p, cases, mode, store)[0],
            describe=lambda p: _describe_program(p, cases, mode, store),
        )
    return Toolbox(
        spawn=lambda rng: ifgp.random_chromosome(length, prims, rng),
        crossover=ifgp.crossover_two_point,
        mutate=lambda c, rng: ifgp.mutate(c, muts, prims, rng),
        evaluate=lambda c: ifgp.fitness(c, cases, prims, mode, store)[0],
        describe=lambda c: _describe_infix(c, cases, prims, mode, store),
    )


def _describe_infix(chrom, cases, prims, mode, store) -> str:
    _, row = ifgp.fitness(chrom, cases, prims, mode, store)
    return ifgp.render(ifgp.Subexpression(ifgp.decode(chrom, prims), row))


def _describe_program(prog, cases, mode, store) -> str:
    _, idx = lgp.fitness(prog, cases, mode, store)
    if idx == lgp.INITIAL_R0:
        output = "output: r[0] initial value"
    else:
        output = f"output: r[{prog.instructions[idx].dest}] after instruction {idx + 1}"
    return lgp.render(prog) + "\n" + output


def binary_tournament(fitnesses, rng: RandomSource) -> int:
    """Two uniform picks with replacement; the fitter wins, ties keep the first."""
    i = rng.randint(len(fitnesses))
    j = rng.randint(len(fitnesses))
    return i if fitnesses[i] <= fitnesses[j] else j


def _steady_state(population, fitnesses, rng):
    # first of tied worst; fitness is never NaN, and only a replacement moves it
    worst = fitnesses.index(max(fitnesses))

    def select():
        return binary_tournament(fitnesses, rng), binary_tournament(fitnesses, rng)

    def place(picks, o1, f1, o2, f2, child, child_fit):
        nonlocal worst
        if child_fit < fitnesses[worst]:
            population[worst], fitnesses[worst] = child, child_fit
            worst = fitnesses.index(max(fitnesses))

    return select, place


def _tournament_of_four(population, fitnesses, rng):
    def select():
        picks = rng.sample_distinct(len(population), 4)
        return sorted(picks, key=fitnesses.__getitem__)  # stable: ties keep draw order

    def place(picks, o1, f1, o2, f2, child, child_fit):
        _, _, loser1, loser2 = picks
        population[loser1], fitnesses[loser1] = o1, f1
        population[loser2], fitnesses[loser2] = o2, f2

    return select, place


def _evolve(toolbox: Toolbox, cfg: EvolutionConfig, rng: RandomSource, scheme) -> RunResult:
    """The one loop: population_size // 2 mating events per generation.

    ``scheme(population, fitnesses, rng)`` gives the scheme's two steps:
    ``select()`` returns an event's slots, its two parents first, and
    ``place(picks, o1, f1, o2, f2, child, child_fit)`` puts the offspring
    into the population, ``child`` being the better one (the first on a tie).
    """
    cfg.validate()
    population = [toolbox.spawn(rng) for _ in range(cfg.population_size)]
    fitnesses = [toolbox.evaluate(ind) for ind in population]
    evaluations = cfg.population_size
    best_idx, best_fit = min(enumerate(fitnesses), key=lambda kv: kv[1])
    best = population[best_idx]
    select, place = scheme(population, fitnesses, rng)
    series = []
    for _ in range(cfg.generations):
        for _ in range(cfg.population_size // 2):
            picks = select()
            o1, o2 = population[picks[0]], population[picks[1]]
            if rng.random() < cfg.crossover_probability:
                o1, o2 = toolbox.crossover(o1, o2, rng)
            o1, o2 = toolbox.mutate(o1, rng), toolbox.mutate(o2, rng)
            f1, f2 = toolbox.evaluate(o1), toolbox.evaluate(o2)
            evaluations += 2
            child, child_fit = (o1, f1) if f1 <= f2 else (o2, f2)
            if child_fit < best_fit:
                best, best_fit = child, child_fit
            place(picks, o1, f1, o2, f2, child, child_fit)
        series.append(best_fit)
    return RunResult(seed=rng.seed, best_per_generation=series, final_fitness=best_fit,
                     success=best_fit < SUCCESS_THRESHOLD, evaluations=evaluations,
                     best_individual=best, expression=toolbox.describe(best))


def evolve_steady_state(toolbox: Toolbox, cfg: EvolutionConfig, rng: RandomSource) -> RunResult:
    """Binary-tournament steady state (MEP/SEP and IFGP/SS-IFGP).

    Per event the better of the two mutated offspring replaces the current
    worst individual, but only when strictly better than it.
    """
    return _evolve(toolbox, cfg, rng, _steady_state)


def evolve_tournament(toolbox: Toolbox, cfg: EvolutionConfig, rng: RandomSource) -> RunResult:
    """Tournament-of-four steady state (LGP variants).

    Four distinct individuals are sampled per event; the best two act as
    parents and their mutated offspring replace the two losers
    unconditionally.
    """
    return _evolve(toolbox, cfg, rng, _tournament_of_four)


def run_evolution(cfg: EvolutionConfig, cases: FitnessCaseSet, rng: RandomSource) -> RunResult:
    """One full run of the loop matching the configured technique."""
    toolbox = make_toolbox(cfg, cases)
    if cfg.technique == "lgp":
        return evolve_tournament(toolbox, cfg, rng)
    return evolve_steady_state(toolbox, cfg, rng)
