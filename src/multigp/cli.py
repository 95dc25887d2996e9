"""Command-line surface.

Subcommands:
  run    one evolution run, printed summary plus a JSON run-log
  sweep  a parameter sweep for one technique pair on one problem
  paper  a preset experiment (both variants, f1..f4), CSV + SVG output
  plot   re-render SVG curves from a previously written CSV report

Each setting has one default, in ``CliConfig``, and one converter, in
``_OPTION_TYPES``.  A flag beats the config file (a JSON object or key=value
lines), which beats MULTIGP_OUT (for the output directory), which beats the
default.  Solver success is reported as data, never as the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .core import MODES, TARGET_FUNCTIONS, check_mode, check_settings, read_cases_csv
from .engine import TECHNIQUES, EvolutionConfig
from .harness import (
    PRESET_EXPERIMENTS,
    PARAMS,
    PROBLEM_IDS,
    ExperimentReport,
    RunError,
    SweepSpec,
    emit_plot,
    parse_csv,
    preset_sweep_specs,
    run,
    run_sweep,
    variant_pair,
    write_csv,
    write_run_log,
)

def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# the converter of each setting, for its flag and for its config-file value
# given as key=value text (see _config_text)
_OPTION_TYPES = {
    "technique": str,
    "problem": str,
    "problems": _parse_names,
    "mode": str,
    "chromosome_length": int,
    "population_size": int,
    "seed": int,
    "runs": int,
    "generations": int,
    "crossover_probability": float,
    "mutations": int,
    "jobs": int,
    "param": str,
    "values": _parse_ints,
    "experiment": str,
    "out_dir": str,
    "stem": str,
    "dataset": str,
    "csv_path": str,
}


@dataclass
class CliConfig:
    subcommand: str
    technique: str = "mep"
    problem: str = "f1"
    mode: str = "multi"
    chromosome_length: int = 20
    population_size: int = EvolutionConfig.population_size
    seed: int = 1
    runs: int = 100
    generations: int = EvolutionConfig.generations
    crossover_probability: float = EvolutionConfig.crossover_probability
    mutations: int = EvolutionConfig.mutations
    jobs: int = 1
    param: str = "chromosome_length"
    values: tuple[int, ...] | None = None
    experiment: str | None = None
    problems: tuple[str, ...] | None = None
    out_dir: str = field(default_factory=lambda: os.environ.get("MULTIGP_OUT", "."))
    stem: str | None = None
    dataset: str | None = None
    csv_path: str | None = None

    def validate(self) -> None:
        check_mode(self.mode)
        check_settings(self, "chromosome_length", "population_size", "runs", "generations", "jobs")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.subcommand == "run":  # sweep and paper check each point's settings
            self.run_config().validate()

    def run_config(self) -> EvolutionConfig:
        """The engine settings of ``run``, and of each ``sweep`` point but its mode and
        swept parameter."""
        return EvolutionConfig(self.technique, self.chromosome_length, self.mode, self.population_size,
                               self.generations, self.crossover_probability, self.mutations)


def _echo_config(cfg: CliConfig) -> None:
    payload = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in vars(cfg).items()}
    print("effective-config " + json.dumps(payload, sort_keys=True))


def _config_text(key: str, value) -> str:
    """A JSON config value as a key=value line would spell it, so that both
    formats go through the converters of ``_OPTION_TYPES``."""
    listed = _OPTION_TYPES[key] in (_parse_ints, _parse_names)
    if isinstance(value, str):
        return value
    if listed and isinstance(value, list):
        return ",".join(str(v) for v in value)
    if not listed and type(value) in (int, float):  # not bool
        return str(value)
    raise ValueError(f"config key {key!r} cannot take {json.dumps(value)}")


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        raw = json.loads(text)
    else:
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line without '=': {line!r}")
            raw[key.strip()] = value.strip()
    resolved = {}
    for key, value in raw.items():
        if key not in _OPTION_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        if value is not None:  # JSON null leaves the option at its default
            resolved[key] = _OPTION_TYPES[key](_config_text(key, value))
    return resolved


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser.  Its options have no defaults: a flag left out
    stays out of the namespace, so ``main`` can lay the flags over the config
    file and ``CliConfig``'s defaults."""
    parser = argparse.ArgumentParser(
        prog="multigp",
        description="multi-solution genetic programming benchmarks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # a subparser does not inherit the root parser's argument_default
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def option(p: argparse.ArgumentParser, flag: str, dest: str | None = None, **kwargs) -> None:
        """Add ``flag`` for setting ``dest``, converted by ``_OPTION_TYPES``."""
        dest = dest or flag[2:]
        p.add_argument(flag, dest=dest, type=_OPTION_TYPES[dest], **kwargs)

    def common(p: argparse.ArgumentParser) -> None:
        # added last, so that they close each usage line
        p.add_argument("--config", help="config file (JSON or key=value lines); flags override")
        option(p, "--out", "out_dir", help="output directory (default: $MULTIGP_OUT or .)")

    def run_settings(p: argparse.ArgumentParser) -> None:
        """The settings of the runs themselves, shared by run and sweep."""
        option(p, "--technique", choices=TECHNIQUES)
        option(p, "--problem")
        option(p, "--length", "chromosome_length")
        option(p, "--pop", "population_size")
        option(p, "--seed")
        option(p, "--generations")
        option(p, "--crossover", "crossover_probability")
        option(p, "--mutations")
        option(p, "--dataset", help="pin fitness cases from a CSV file")

    run_p = command("run", "one evolution run")
    run_settings(run_p)
    option(run_p, "--mode", choices=MODES)
    common(run_p)

    sweep_p = command("sweep", "parameter sweep, both variants of one technique")
    run_settings(sweep_p)
    option(sweep_p, "--param", choices=PARAMS)
    option(sweep_p, "--values", help="comma-separated swept values")
    option(sweep_p, "--runs")
    option(sweep_p, "--jobs")
    option(sweep_p, "--stem", help="output file stem")
    common(sweep_p)

    paper_p = command("paper", "preset experiment (figure1..figure7 outputs)")
    paper_p.add_argument("experiment", nargs="?", help="one of " + ", ".join(sorted(PRESET_EXPERIMENTS)))
    option(paper_p, "--runs")
    option(paper_p, "--seed")
    option(paper_p, "--jobs")
    option(paper_p, "--problems", help="comma-separated subset of f1,f2,f3,f4")
    option(paper_p, "--values", help="override the preset's swept values")
    common(paper_p)

    plot_p = command("plot", "render SVG curves from a CSV report")
    option(plot_p, "--csv", "csv_path")
    option(plot_p, "--stem")
    common(plot_p)
    return parser


def cmd_run(cfg: CliConfig) -> int:
    cases = read_cases_csv(cfg.dataset) if cfg.dataset else None
    if cases is None and cfg.problem not in TARGET_FUNCTIONS:
        print(f"error: unknown problem {cfg.problem!r}; "
              f"choose from {list(PROBLEM_IDS)}", file=sys.stderr)
        return 2
    variant = variant_pair(cfg.technique)[MODES.index(cfg.mode)]
    run_cfg = cfg.run_config()
    result = run(cfg.problem, cfg.seed, run_cfg, cases)
    print(f"final fitness: {result.final_fitness:.6g}")
    print(f"success: {result.success}")
    print("best expression:")
    print(result.expression)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / f"run-{variant}-{cfg.problem}-seed{cfg.seed}.json"
    log = {
        **asdict(run_cfg),
        "variant": variant,
        "problem": cfg.problem,
        "seed": cfg.seed,
        "dataset": cfg.dataset,
        "final_fitness": result.final_fitness,
        "success": result.success,
        "evaluations": result.evaluations,
        "expression": result.expression,
        "best_per_generation": result.best_per_generation,
    }
    log_path.write_text(json.dumps(log, sort_keys=True, indent=2) + "\n")
    print(f"run log: {log_path}")
    return 0


def _sweep(specs: list[SweepSpec], cfg: CliConfig, stem: str) -> int:
    """Run the specs on one pool and write their report files under ``stem``."""
    try:
        report = run_sweep(specs, cfg.jobs)
    except ValueError as exc:  # a bad spec: run_sweep checks each before the first run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(report, out / f"{stem}.csv")
    log_path = write_run_log(report, out / f"{stem}-runs.jsonl")
    svg_paths = emit_plot(report, out, stem=stem)
    for p in report.points:
        print(f"{p.variant} {p.problem} {p.param}={p.value} "
              f"rate={p.success_rate:.4f} ({p.successes}/{p.runs})")
    for path in [csv_path, log_path, *svg_paths]:
        print(f"wrote {path}")
    return 0


def cmd_sweep(cfg: CliConfig) -> int:
    if not cfg.values:
        print("error: sweep needs --values", file=sys.stderr)
        return 2
    spec = SweepSpec(cfg.run_config(), cfg.problem, cfg.param, tuple(cfg.values), cfg.runs, cfg.seed,
                     read_cases_csv(cfg.dataset) if cfg.dataset else None)
    return _sweep([spec], cfg, cfg.stem or f"sweep-{cfg.technique}-{cfg.problem}-{cfg.param}")


def cmd_paper(cfg: CliConfig) -> int:
    if cfg.experiment is None:
        print("error: paper needs an experiment", file=sys.stderr)
        return 2
    if cfg.experiment not in PRESET_EXPERIMENTS:
        print(f"error: unknown experiment {cfg.experiment!r}; "
              f"choose from {sorted(PRESET_EXPERIMENTS)}", file=sys.stderr)
        return 2
    problems = PROBLEM_IDS if cfg.problems is None else cfg.problems
    if not problems or len(set(problems)) < len(problems):
        print(f"error: --problems must list one or more distinct problems, not {list(problems)}",
              file=sys.stderr)
        return 2
    specs = preset_sweep_specs(cfg.experiment, problems, cfg.runs, cfg.seed, cfg.values)
    return _sweep(specs, cfg, PRESET_EXPERIMENTS[cfg.experiment].figure)


def cmd_plot(cfg: CliConfig) -> int:
    if cfg.csv_path is None:
        print("error: plot needs --csv", file=sys.stderr)
        return 2
    path = Path(cfg.csv_path)
    if not path.exists():
        print(f"error: no such report {path}", file=sys.stderr)
        return 2
    try:
        points = parse_csv(path.read_bytes())
        if not points:
            print("error: report holds no data rows", file=sys.stderr)
            return 2
        # emit_plot renders every curve, so rejects mixed swept parameters, before it writes
        svg_paths = emit_plot(ExperimentReport(points=points), cfg.out_dir, stem=cfg.stem or path.stem)
    except ValueError as exc:
        print(f"error: bad report {path}: {exc}", file=sys.stderr)
        return 2
    for out in svg_paths:
        print(f"wrote {out}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "paper": cmd_paper,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    config_path = flags.pop("config", None)
    try:
        config = _load_config_file(config_path) if config_path else {}
    except (OSError, ValueError) as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return 2
    cfg = CliConfig(**{**config, **flags})
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _echo_config(cfg)
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except (OSError, ValueError, KeyError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
