"""Benchmark orchestration: parameter sweeps over the six variant labels,
success-rate aggregation, CSV reports, run logs and SVG curves.

A sweep point is (variant, problem, swept value); its success rate is the
fraction of runs whose final best fitness fell below the engine threshold.
Run i of every point uses seed base_seed + i, so any single run can be
replayed in isolation and execution order never matters.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

from .core import PROBLEM_IDS, TARGET_FUNCTIONS, FitnessCaseSet, RandomSource, check_settings, make_problem
from .engine import EvolutionConfig, RunResult, run_evolution

# label -> (technique, fitness mode); multi-solution label first in each pair
VARIANTS = {
    "mep": ("mep", "multi"),
    "sep": ("mep", "single"),
    "ms-lgp": ("lgp", "multi"),
    "ss-lgp": ("lgp", "single"),
    "ifgp": ("ifgp", "multi"),
    "ss-ifgp": ("ifgp", "single"),
}

PARAMS = ("chromosome_length", "population_size")

_PARAM_LABELS = {
    "chromosome_length": "chromosome length",
    "population_size": "population size",
}


def variant_pair(technique: str) -> tuple[str, str]:
    """(multi label, single label) for one technique."""
    pair = [label for label, (tech, _) in VARIANTS.items() if tech == technique]
    if not pair:
        raise ValueError(f"unknown technique {technique!r}")
    return pair[0], pair[1]


@dataclass(frozen=True)
class SweepSpec:
    technique: str
    problem: str
    param: str
    values: tuple[int, ...]
    runs: int = 100
    base_seed: int = 0
    population_size: int = EvolutionConfig.population_size
    chromosome_length: int = 20
    generations: int = EvolutionConfig.generations
    crossover_probability: float = EvolutionConfig.crossover_probability
    mutations: int = EvolutionConfig.mutations
    jobs: int = 1
    dataset: FitnessCaseSet | None = None

    def validate(self) -> None:
        if self.dataset is None and self.problem not in TARGET_FUNCTIONS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.param not in PARAMS:
            raise ValueError(f"swept parameter must be one of {PARAMS}")
        if not self.values:
            raise ValueError("no swept values")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("swept values must be strictly increasing")
        check_settings(self, "runs", "jobs")
        self.point_config(self.values[0], "multi").validate()  # values are increasing: the smallest point

    def point_config(self, value: int, mode: str) -> EvolutionConfig:
        """The run settings of the sweep point at ``value`` under ``mode``."""
        sizes = {"chromosome_length": self.chromosome_length,
                 "population_size": self.population_size, self.param: value}
        return EvolutionConfig(
            technique=self.technique,
            mode=mode,
            generations=self.generations,
            crossover_probability=self.crossover_probability,
            mutations=self.mutations,
            **sizes,
        )


@dataclass(frozen=True)
class SweepPoint:
    variant: str
    problem: str
    param: str
    value: int
    successes: int
    runs: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs


@dataclass
class ExperimentReport:
    """Sweep points, kept in report order (variant, problem, value), and the
    per-run log."""

    points: list[SweepPoint]
    run_log: list[dict] = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.points = sorted(self.points, key=lambda p: (p.variant, p.problem, p.value))


def run(problem: str, seed: int, cfg: EvolutionConfig,
        dataset: FitnessCaseSet | None = None) -> RunResult:
    """One evolution run under ``cfg``; cases drawn from the run seed unless a
    dataset pins them."""
    rng = RandomSource(seed)
    cases = dataset if dataset is not None else make_problem(problem, rng)
    return run_evolution(cfg, cases, rng)


def run_one(
    variant: str,
    problem: str,
    chromosome_length: int,
    population_size: int,
    seed: int,
    *,
    dataset: FitnessCaseSet | None = None,
    **settings,
) -> RunResult:
    """One :func:`run` under a variant label; ``settings`` are the remaining
    :class:`EvolutionConfig` fields (generations, crossover_probability,
    mutations)."""
    technique, mode = VARIANTS[variant]
    cfg = EvolutionConfig(technique, chromosome_length, mode, population_size, **settings)
    return run(problem, seed, cfg, dataset)


class RunError(RuntimeError):
    """A sweep's run raised; the message names the run and how to replay it."""


def _run_task(task: tuple) -> tuple[int, float, bool, str]:
    """One pool task ``(variant, problem, seed, cfg, dataset)``; the variant
    only names the task, in the error a failing run raises."""
    variant, problem, seed, cfg, dataset = task
    try:
        result = run(problem, seed, cfg, dataset)
    except Exception as exc:
        replay = (f"multigp run --technique {cfg.technique} --mode {cfg.mode} --problem {problem} "
                  f"--seed {seed} --length {cfg.chromosome_length} --pop {cfg.population_size} "
                  f"--generations {cfg.generations} --crossover {cfg.crossover_probability} "
                  f"--mutations {cfg.mutations}" + (" --dataset <the sweep's dataset>" if dataset is not None else ""))
        raise RunError(f"run failed: variant {variant}, problem {problem}, seed {seed}, "
                       f"length {cfg.chromosome_length}, population {cfg.population_size} "
                       f"({type(exc).__name__}: {exc}); replay it with: {replay}") from exc
    return seed, result.final_fitness, result.success, result.expression


def _point_grid(spec: SweepSpec) -> list[tuple[str, int]]:
    grid = []
    for variant in variant_pair(spec.technique):
        for value in spec.values:
            grid.append((variant, value))
    return grid


def run_sweep(spec: SweepSpec) -> ExperimentReport:
    spec.validate()
    tasks = []
    for variant, value in _point_grid(spec):
        cfg = spec.point_config(value, VARIANTS[variant][1])
        for i in range(spec.runs):
            tasks.append((variant, spec.problem, spec.base_seed + i, cfg, spec.dataset))
    if spec.jobs > 1:
        with get_context("fork").Pool(spec.jobs) as pool:
            outcomes = pool.map(_run_task, tasks, chunksize=1)
    else:
        outcomes = [_run_task(t) for t in tasks]

    points, run_log = [], []
    cursor = 0
    for variant, value in _point_grid(spec):
        successes = 0
        for run_index in range(spec.runs):
            seed, fitness, success, expression = outcomes[cursor]
            cursor += 1
            successes += success
            run_log.append({
                "variant": variant,
                "problem": spec.problem,
                "param": spec.param,
                "value": value,
                "run": run_index,
                "seed": seed,
                "final_fitness": fitness,
                "success": success,
                "expression": expression,
            })
        points.append(SweepPoint(variant, spec.problem, spec.param, value,
                                 successes, spec.runs))
    return ExperimentReport(points=points, run_log=run_log)


def combine_reports(reports: list[ExperimentReport]) -> ExperimentReport:
    """Merge sweeps (typically one per problem) into a single report."""
    points = [p for r in reports for p in r.points]
    run_log = [entry for r in reports for entry in r.run_log]
    return ExperimentReport(points=points, run_log=run_log)


# --- CSV report ---

CSV_HEADER = "variant,problem,param,value,successes,runs,success_rate"


def emit_csv(report: ExperimentReport) -> bytes:
    lines = [CSV_HEADER]
    for p in report.points:
        lines.append(
            f"{p.variant},{p.problem},{p.param},{p.value},"
            f"{p.successes},{p.runs},{p.success_rate:.4f}"
        )
    return ("\n".join(lines) + "\n").encode()


def parse_csv(data: bytes | str) -> list[SweepPoint]:
    text = data.decode() if isinstance(data, bytes) else data
    reader = csv.DictReader(io.StringIO(text))
    points = []
    for row in reader:
        points.append(SweepPoint(
            variant=row["variant"],
            problem=row["problem"],
            param=row["param"],
            value=int(row["value"]),
            successes=int(row["successes"]),
            runs=int(row["runs"]),
        ))
    return points


def write_csv(report: ExperimentReport, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(emit_csv(report))
    return path


def write_run_log(report: ExperimentReport, path: str | Path) -> Path:
    """One JSON record per run, newline-delimited."""
    path = Path(path)
    lines = [json.dumps(entry, sort_keys=True) for entry in report.run_log]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


# --- SVG curves ---

_SVG_WIDTH, _SVG_HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 62, 24, 40, 52
_SERIES_COLOURS = ("#2266aa", "#cc4433", "#3a9b4e", "#8858b0")
_Y_TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(report: ExperimentReport, problem: str) -> str:
    """Success-rate curves for one problem, one polyline per variant.

    Output is a pure function of the report's points, so identical reports
    yield byte-identical documents.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    params = set()
    for p in report.points:
        if p.problem != problem:
            continue
        series.setdefault(p.variant, []).append((p.value, p.success_rate))
        params.add(p.param)
    if not series:
        raise ValueError(f"report holds no points for problem {problem!r}")
    if len(params) != 1:
        raise ValueError("mixed swept parameters in one plot")
    param_label = _PARAM_LABELS[params.pop()]

    values = sorted({v for pts in series.values() for v, _ in pts})
    lo, hi = values[0], values[-1]
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    plot_w = _SVG_WIDTH - _ML - _MR
    plot_h = _SVG_HEIGHT - _MT - _MB

    def sx(v: float) -> str:
        return _fmt(_ML + (v - lo) / (hi - lo) * plot_w)

    def sy(rate: float) -> str:
        return _fmt(_MT + (1.0 - rate) * plot_h)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_fmt(_SVG_WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{problem}: success rate vs {param_label}</text>',
    ]
    for tick in _Y_TICKS:
        y = sy(tick)
        out.append(
            f'<line x1="{_fmt(_ML)}" y1="{y}" x2="{_fmt(_SVG_WIDTH - _MR)}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_ML - 8)}" y="{y}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.1f}</text>'
        )
    for v in values:
        x = sx(v)
        out.append(
            f'<line x1="{x}" y1="{_fmt(_MT + plot_h)}" x2="{x}" y2="{_fmt(_MT + plot_h + 5)}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_fmt(_MT + plot_h + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v}</text>'
        )
    out.append(
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" '
        f'y2="{_fmt(_MT + plot_h)}" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT + plot_h)}" x2="{_fmt(_SVG_WIDTH - _MR)}" '
        f'y2="{_fmt(_MT + plot_h)}" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_fmt(_ML + plot_w / 2)}" y="{_fmt(_SVG_HEIGHT - 14)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{param_label}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(_MT + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(_MT + plot_h / 2)})">success rate</text>'
    )
    for index, (variant, pts) in enumerate(sorted(series.items())):
        colour = _SERIES_COLOURS[index % len(_SERIES_COLOURS)]
        coords = " ".join(f"{sx(v)},{sy(rate)}" for v, rate in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" stroke-width="2"/>'
        )
        for v, rate in pts:
            out.append(f'<circle cx="{sx(v)}" cy="{sy(rate)}" r="3" fill="{colour}"/>')
        ly = _MT + 14 + 18 * index
        lx = _SVG_WIDTH - _MR - 120
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 24)}" y2="{_fmt(ly)}" '
            f'stroke="{colour}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 30)}" y="{_fmt(ly)}" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="12">{variant}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plot(report: ExperimentReport, out_dir: str | Path, stem: str | None = None) -> list[Path]:
    """Write one SVG per problem present in the report; returns the paths."""
    if not report.points:
        raise ValueError("cannot plot an empty report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for problem in sorted({p.problem for p in report.points}):
        name = f"{stem}-{problem}.svg" if stem else f"{problem}.svg"
        path = out_dir / name
        path.write_text(render_svg(report, problem))
        paths.append(path)
    return paths


# --- preset experiments behind the ``paper`` subcommand ---

@dataclass(frozen=True)
class PresetExperiment:
    figure: str
    technique: str
    param: str
    values: tuple[int, ...]
    chromosome_length: int = 20
    population_size: int = EvolutionConfig.population_size


PRESET_EXPERIMENTS = {
    "mep-exp1": PresetExperiment("figure1", "mep", "chromosome_length",
                                tuple(range(4, 44, 4))),
    "mep-exp2": PresetExperiment("figure2", "mep", "population_size",
                                tuple(range(10, 110, 10)), chromosome_length=10),
    "lgp-exp1": PresetExperiment("figure3", "lgp", "chromosome_length",
                                tuple(range(4, 44, 4))),
    "lgp-exp2": PresetExperiment("figure4", "lgp", "population_size",
                                tuple(range(10, 110, 10)), chromosome_length=12),
    "ifgp-exp1": PresetExperiment("figure6", "ifgp", "chromosome_length",
                                 tuple(range(10, 70, 10))),
    "ifgp-exp2": PresetExperiment("figure7", "ifgp", "population_size",
                                 tuple(range(10, 110, 10)), chromosome_length=30),
}


def preset_sweep_specs(
    experiment_id: str,
    problems: tuple[str, ...] = PROBLEM_IDS,
    runs: int = 100,
    base_seed: int = 0,
    jobs: int = 1,
    values: tuple[int, ...] | None = None,
) -> list[SweepSpec]:
    if experiment_id not in PRESET_EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"choose from {sorted(PRESET_EXPERIMENTS)}")
    preset = PRESET_EXPERIMENTS[experiment_id]
    return [
        SweepSpec(
            technique=preset.technique,
            problem=problem,
            param=preset.param,
            values=tuple(values) if values is not None else preset.values,
            runs=runs,
            base_seed=base_seed,
            population_size=preset.population_size,
            chromosome_length=preset.chromosome_length,
            jobs=jobs,
        )
        for problem in problems
    ]
