"""Evolution loops shared by the three encodings: the steady-state scheme used
by MEP/SEP and IFGP/SS-IFGP, and the tournament-of-four scheme used by the LGP
variants.  Both track the best individual ever seen outside the population.
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
    """Encoding-specific operations the evolution loops are written against."""

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


def _spawn_population(toolbox, cfg, rng):
    population = [toolbox.spawn(rng) for _ in range(cfg.population_size)]
    fitnesses = [toolbox.evaluate(ind) for ind in population]
    return population, fitnesses


def _offspring(toolbox, cfg, rng, parent1, parent2):
    if rng.random() < cfg.crossover_probability:
        o1, o2 = toolbox.crossover(parent1, parent2, rng)
    else:
        o1, o2 = parent1, parent2
    o1 = toolbox.mutate(o1, rng)
    o2 = toolbox.mutate(o2, rng)
    return o1, toolbox.evaluate(o1), o2, toolbox.evaluate(o2)


def _finish(toolbox, rng, best, best_fit, series, evaluations) -> RunResult:
    return RunResult(
        seed=rng.seed,
        best_per_generation=series,
        final_fitness=best_fit,
        success=best_fit < SUCCESS_THRESHOLD,
        evaluations=evaluations,
        best_individual=best,
        expression=toolbox.describe(best),
    )


def evolve_steady_state(toolbox: Toolbox, cfg: EvolutionConfig, rng: RandomSource) -> RunResult:
    """Binary-tournament steady state (MEP/SEP and IFGP/SS-IFGP).

    One generation is population_size // 2 mating events.  Per event the
    better of the two mutated offspring replaces the current worst individual,
    but only when strictly better than it.
    """
    cfg.validate()
    population, fitnesses = _spawn_population(toolbox, cfg, rng)
    evaluations = cfg.population_size
    best_idx, best_fit = min(enumerate(fitnesses), key=lambda kv: kv[1])
    best = population[best_idx]
    # first of tied worst; fitness is never NaN, and only a replacement moves it
    worst = fitnesses.index(max(fitnesses))
    series = []
    for _ in range(cfg.generations):
        for _ in range(cfg.population_size // 2):
            p1 = binary_tournament(fitnesses, rng)
            p2 = binary_tournament(fitnesses, rng)
            o1, f1, o2, f2 = _offspring(toolbox, cfg, rng, population[p1], population[p2])
            evaluations += 2
            child, child_fit = (o1, f1) if f1 <= f2 else (o2, f2)
            if child_fit < best_fit:
                best, best_fit = child, child_fit
            if child_fit < fitnesses[worst]:
                population[worst] = child
                fitnesses[worst] = child_fit
                worst = fitnesses.index(max(fitnesses))
        series.append(best_fit)
    return _finish(toolbox, rng, best, best_fit, series, evaluations)


def evolve_tournament(toolbox: Toolbox, cfg: EvolutionConfig, rng: RandomSource) -> RunResult:
    """Tournament-of-four steady state (LGP variants).

    Four distinct individuals are sampled per event; the best two act as
    parents and their mutated offspring replace the two losers
    unconditionally.  The best individual ever evaluated is tracked outside
    the population, so it cannot be lost to a replacement.
    """
    cfg.validate()
    population, fitnesses = _spawn_population(toolbox, cfg, rng)
    evaluations = cfg.population_size
    best_idx, best_fit = min(enumerate(fitnesses), key=lambda kv: kv[1])
    best = population[best_idx]
    series = []
    for _ in range(cfg.generations):
        for _ in range(cfg.population_size // 2):
            picks = rng.sample_distinct(cfg.population_size, 4)
            ranked = sorted(picks, key=fitnesses.__getitem__)  # stable: ties keep draw order
            parent1, parent2, loser1, loser2 = ranked
            o1, f1, o2, f2 = _offspring(toolbox, cfg, rng, population[parent1], population[parent2])
            evaluations += 2
            contender, contender_fit = (o1, f1) if f1 <= f2 else (o2, f2)
            if contender_fit < best_fit:
                best, best_fit = contender, contender_fit
            population[loser1], fitnesses[loser1] = o1, f1
            population[loser2], fitnesses[loser2] = o2, f2
        series.append(best_fit)
    return _finish(toolbox, rng, best, best_fit, series, evaluations)


def run_evolution(cfg: EvolutionConfig, cases: FitnessCaseSet, rng: RandomSource) -> RunResult:
    """One full run of the loop matching the configured technique."""
    toolbox = make_toolbox(cfg, cases)
    if cfg.technique == "lgp":
        return evolve_tournament(toolbox, cfg, rng)
    return evolve_steady_state(toolbox, cfg, rng)
