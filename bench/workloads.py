"""The benchmark's three workloads, their timed loop and their output checks.

Each workload is a closed loop driven from one process: it runs whole rounds
of units (one ``harness.run_one`` call, or one ``cli.main(["paper", ...])``
call) until the time budget is spent. Every unit names its technique and the
number of evolution runs it attempts, so throughput is counted per encoding.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from multigp import cli, core, harness, ifgp, lgp, mep

import checker
import reference
from checker import CASES, CheckError

perf_counter = time.perf_counter

VARIANTS = tuple(harness.VARIANTS)
TECHNIQUES = ("mep", "lgp", "ifgp")
TECHNIQUE_OF = {variant: tech for variant, (tech, _) in harness.VARIANTS.items()}
MODE_OF = {variant: mode for variant, (_, mode) in harness.VARIANTS.items()}
PROBLEMS = ("f1", "f2", "f3", "f4")
GENERATIONS = 51
PRIMS = core.PrimitiveSet.for_inputs(1)


def run_seed(seed: int, round_index: int) -> int:
    """Seed of every run in one round; all six variants share it."""
    return seed * 10_000 + round_index


@dataclass(frozen=True)
class RunSpec:
    variant: str
    problem: str
    length: int
    population: int
    seed: int

    @property
    def technique(self) -> str:
        return TECHNIQUE_OF[self.variant]

    def task(self) -> tuple:
        """The tuple ``harness.run_sweep`` would send a worker for this run."""
        return (self.variant, self.problem, self.length, self.population, self.seed,
                GENERATIONS, 0.9, 2, None)


@dataclass
class Unit:
    technique: str
    runs: int
    call: Callable[[], object]
    spec: RunSpec | None = None        # in-process units
    paper: tuple | None = None         # (preset, problem, base seed, out dir)


@dataclass
class Phase:
    """What one traced or untraced pass of the timed loop did.

    ``runs`` and ``seconds`` count, per technique, the completed runs and the
    wall time of their units; ``references`` holds the reference-loop samples
    taken before each round and after every unit.
    """

    runs: Counter = field(default_factory=Counter)
    seconds: defaultdict = field(default_factory=lambda: defaultdict(float))
    references: list = field(default_factory=list)
    done: list = field(default_factory=list)     # (unit, output)

    def execute(self, units: list[Unit], gauge: reference.Gauge) -> None:
        self.references.append(gauge.sample())
        for unit in units:
            t0 = perf_counter()
            output = unit.call()
            self.seconds[unit.technique] += perf_counter() - t0
            self.references.append(gauge.sample())
            self.runs[unit.technique] += unit.runs
            self.done.append((unit, output))

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def rate(self, techniques) -> float:
        """Runs of ``techniques`` per second of their units at the reference speed.

        The measured rate is multiplied by the median reference-loop time over
        ``reference.NOMINAL_S``, which divides out how slow the host ran.
        """
        runs = sum(self.runs[t] for t in techniques)
        seconds = sum(self.seconds[t] for t in techniques)
        return runs / seconds * statistics.median(self.references) / reference.NOMINAL_S


# --- checks shared by the workloads ---

def reading(technique: str, chrom, cases, mode: str) -> tuple[float, int]:
    """Fitness of one reading and the primitive operations it applied."""
    ops0 = core.ops_applied()
    if technique == "mep":
        fit = mep.fitness(chrom, cases, mode)[0]
    elif technique == "lgp":
        fit = lgp.fitness(chrom, cases, mode)[0]
    else:
        fit = ifgp.fitness(chrom, cases, PRIMS, mode)[0]
    return fit, core.ops_applied() - ops0


def structural_ops(technique: str, chrom) -> int:
    """Operations one evaluation must apply, counted from the chromosome."""
    if technique == "mep":
        units = sum(not g.is_terminal for g in chrom.genes)
    elif technique == "lgp":
        units = len(chrom.instructions)
    else:
        units = sum(tok in "+-*/" for tok in ifgp.decode(chrom, PRIMS).tokens)
    return units * CASES


def check_result(spec: RunSpec, result) -> None:
    """Raise CheckError unless an in-process run's outputs hold every property."""
    tech = spec.technique
    checker.check_run(tech, spec.problem, spec.seed, result.expression,
                      result.final_fitness, result.success)
    series = result.best_per_generation
    if len(series) != GENERATIONS or any(b > a for a, b in zip(series, series[1:])):
        raise CheckError(f"{spec}: best_per_generation is not a non-increasing series of {GENERATIONS}")
    if series[-1] != result.final_fitness:
        raise CheckError(f"{spec}: series ends at {series[-1]!r}, not at {result.final_fitness!r}")
    evaluations = spec.population + GENERATIONS * 2 * (spec.population // 2)
    if result.evaluations != evaluations:
        raise CheckError(f"{spec}: {result.evaluations} evaluations, expected {evaluations}")
    cases = core.make_problem(spec.problem, core.RandomSource(spec.seed))
    best = result.best_individual
    multi, multi_ops = reading(tech, best, cases, "multi")
    single, single_ops = reading(tech, best, cases, "single")
    own = multi if MODE_OF[spec.variant] == "multi" else single
    if own != result.final_fitness:
        raise CheckError(f"{spec}: best chromosome re-evaluates to {own!r}, run reported {result.final_fitness!r}")
    if not multi <= single:
        raise CheckError(f"{spec}: multi reading {multi!r} is worse than single reading {single!r}")
    expected = structural_ops(tech, best)
    if not multi_ops == single_ops == expected:
        raise CheckError(f"{spec}: readings applied {multi_ops}/{single_ops} operations, structure gives {expected}")


def check_problem_draws(seed: int) -> None:
    """Compare the program's problem instances with the independent derivation."""
    for problem in PROBLEMS:
        cases = core.make_problem(problem, core.RandomSource(seed))
        xs, targets = checker.fitness_cases(problem, seed)
        if list(cases.inputs[:, 0]) != xs:
            raise CheckError(f"{problem} seed {seed}: fitness-case inputs differ")
        for got, want in zip(cases.targets, targets):
            if abs(got - want) > checker.TARGET_TOL * abs(want):
                raise CheckError(f"{problem} seed {seed}: target {got!r} differs from {want!r}")


# --- in-process workloads ---

@dataclass(frozen=True)
class InProcess:
    """All six variants, one run each per round, through ``harness.run_one``."""

    lengths: dict
    population: int
    jobs = 1
    #: many short units: one pass per reference sample keeps its cost near 3 %
    reference_passes = 1

    def units(self, seed: int, round_index: int, out_dir: Path) -> list[Unit]:
        problem = PROBLEMS[round_index % len(PROBLEMS)]
        units = []
        for variant in VARIANTS:
            spec = RunSpec(variant, problem, self.lengths[TECHNIQUE_OF[variant]],
                           self.population, run_seed(seed, round_index))
            call = (lambda s=spec: harness.run_one(s.variant, s.problem, s.length, s.population, s.seed))
            units.append(Unit(spec.technique, 1, call, spec=spec))
        return units

    def check(self, done) -> tuple[int, list[str], list[str]]:
        """(failed runs, messages of failed runs, workload-level problems)."""
        messages = []
        for unit, result in done:
            try:
                check_result(unit.spec, result)
            except CheckError as exc:
                messages.append(str(exc))
        return len(messages), messages, []

    @staticmethod
    def same_outputs(a, b) -> bool:
        """Whether two passes over the same unit gave the same run."""
        (_, ra), (_, rb) = a, b
        return (ra.final_fitness, ra.expression) == (rb.final_fitness, rb.expression)

    @staticmethod
    def report(done) -> harness.ExperimentReport:
        """A sweep-style report of the runs, for the harness writers."""
        tallies = defaultdict(lambda: [0, 0])
        run_log = []
        for unit, result in done:
            s = unit.spec
            tally = tallies[s.variant, s.problem, s.length]
            tally[0] += result.success
            tally[1] += 1
            run_log.append({"variant": s.variant, "problem": s.problem, "param": "chromosome_length",
                            "value": s.length, "run": tally[1] - 1, "seed": s.seed,
                            "final_fitness": result.final_fitness, "success": result.success,
                            "expression": result.expression})
        points = [harness.SweepPoint(v, p, "chromosome_length", length, succ, runs)
                  for (v, p, length), (succ, runs) in tallies.items()]
        return harness.ExperimentReport(points=points, run_log=run_log)

    def first_task(self, seed: int) -> tuple:
        return self.units(seed, 0, Path("."))[0].spec.task()


# --- the paper workload ---

@dataclass(frozen=True)
class Paper:
    """The three ``*-exp1`` presets through ``cli.main`` with a fork pool."""

    presets: tuple = ("mep-exp1", "lgp-exp1", "ifgp-exp1")
    runs: int = 1
    jobs: int = 2
    #: a few long units: each reference sample is the median of several passes
    reference_passes: int = 5

    def units(self, seed: int, round_index: int, out_dir: Path) -> list[Unit]:
        problem = PROBLEMS[round_index % len(PROBLEMS)]
        base = run_seed(seed, round_index)
        target = out_dir / f"r{round_index}"
        units = []
        for name in self.presets:
            preset = harness.PRESET_EXPERIMENTS[name]
            argv = ["paper", name, "--runs", str(self.runs), "--problems", problem,
                    "--seed", str(base), "--jobs", str(self.jobs), "--out", str(target)]
            units.append(Unit(preset.technique, 2 * len(preset.values) * self.runs,
                              lambda argv=argv: self._call(argv), paper=(name, problem, base, target)))
        return units

    @staticmethod
    def _call(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @staticmethod
    def _files(unit: Unit) -> tuple[Path, Path, Path]:
        name, problem, _, target = unit.paper
        stem = harness.PRESET_EXPERIMENTS[name].figure
        return target / f"{stem}.csv", target / f"{stem}-runs.jsonl", target / f"{stem}-{problem}.svg"

    def _check_unit(self, unit: Unit, code: int, replay_index: int) -> tuple[int, list[str], list[str]]:
        """Check one ``cli.main`` call's files and replay its row ``replay_index``."""
        name, problem, base, _ = unit.paper
        preset = harness.PRESET_EXPERIMENTS[name]
        csv_path, log_path, svg_path = self._files(unit)
        if code != 0 or not log_path.exists():
            return unit.runs, [f"{name} {problem} seed {base}: exit status {code}, no run log"], []
        rows = [json.loads(line) for line in log_path.read_text().splitlines()]
        failed, messages, problems = set(), [], []
        pair = {v for v in VARIANTS if TECHNIQUE_OF[v] == preset.technique}
        for i, row in enumerate(rows):
            try:
                if (row["variant"] not in pair or row["problem"] != problem
                        or row["value"] not in preset.values
                        or not base <= row["seed"] < base + self.runs):
                    raise CheckError(f"{name}: unexpected run-log row {row}")
                checker.check_run(preset.technique, problem, row["seed"], row["expression"],
                                  row["final_fitness"], row["success"])
            except CheckError as exc:
                failed.add(i)
                messages.append(str(exc))
        tally = Counter((r["variant"], r["value"]) for r in rows)
        if len(rows) != unit.runs or any(n != self.runs for n in tally.values()):
            problems.append(f"{name} {problem}: run log holds {len(rows)} rows, expected {unit.runs}")
        wins = Counter((r["variant"], r["value"]) for r in rows if r["success"])
        expected_csv = {f"{v},{problem},{preset.param},{value},{wins[v, value]},{n},{wins[v, value] / n:.4f}"
                        for (v, value), n in tally.items()}
        csv_lines = csv_path.read_text().splitlines() if csv_path.exists() else []
        if set(csv_lines[1:]) != expected_csv or len(csv_lines) != len(expected_csv) + 1:
            problems.append(f"{name} {problem}: CSV report disagrees with the run log")
        if not svg_path.exists() or not svg_path.read_text().startswith("<svg"):
            problems.append(f"{name} {problem}: SVG curve missing")
        i = replay_index % len(rows)
        spec = RunSpec(rows[i]["variant"], problem, rows[i]["value"], preset.population_size, rows[i]["seed"])
        result = harness.run_one(spec.variant, spec.problem, spec.length, spec.population, spec.seed)
        try:
            if (result.final_fitness, result.expression) != (rows[i]["final_fitness"], rows[i]["expression"]):
                raise CheckError(f"{spec}: in-process replay differs from the pool's run")
            check_result(spec, result)
        except CheckError as exc:
            failed.add(i)
            messages.append(str(exc))
        return len(failed), messages, problems

    def check(self, done) -> tuple[int, list[str], list[str]]:
        failed, messages, problems = 0, [], []
        for k, (unit, code) in enumerate(done):
            f, m, p = self._check_unit(unit, code, unit.paper[2] + k)
            failed += f
            messages += m
            problems += p
        return failed, messages, problems

    def same_outputs(self, a, b) -> bool:
        """Whether two passes over the same unit wrote the same CSV and run log."""
        (ua, _), (ub, _) = a, b
        return all(pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()
                   for pa, pb in zip(self._files(ua)[:2], self._files(ub)[:2]))

    def first_task(self, seed: int) -> tuple:
        preset = harness.PRESET_EXPERIMENTS[self.presets[0]]
        return RunSpec(harness.variant_pair(preset.technique)[0], PROBLEMS[0], preset.values[0],
                       preset.population_size, run_seed(seed, 0)).task()


WORKLOADS = {
    "preset": InProcess(lengths={"mep": 20, "lgp": 20, "ifgp": 30}, population=50),
    "short-pop100": InProcess(lengths={"mep": 4, "lgp": 4, "ifgp": 10}, population=100),
    "paper-jobs2": Paper(),
}
