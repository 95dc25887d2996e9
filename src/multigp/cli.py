"""Command-line surface.

Subcommands:
  run    one evolution run, printed summary plus a JSON run-log
  sweep  a parameter sweep for one technique pair on one problem
  paper  a preset experiment (both variants, f1..f4), CSV + SVG output
  plot   re-render SVG curves from a previously written CSV report

A config file (JSON object or key=value lines) supplies defaults; explicit
flags override it.  The default output directory comes from MULTIGP_OUT when
set.  Solver success is reported as data, never as the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import MODES, TARGET_FUNCTIONS, check_mode, check_settings, read_cases_csv
from .engine import TECHNIQUES
from .harness import (
    PRESET_EXPERIMENTS,
    PARAMS,
    PROBLEM_IDS,
    ExperimentReport,
    SweepSpec,
    combine_reports,
    emit_plot,
    parse_csv,
    preset_sweep_specs,
    run_one,
    run_sweep,
    variant_pair,
    write_csv,
    write_run_log,
)

def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# converters for config-file values, given as key=value text (see _config_text)
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
    population_size: int = 50
    seed: int = 1
    runs: int = 100
    generations: int = 51
    crossover_probability: float = 0.9
    mutations: int = 2
    jobs: int = 1
    param: str = "chromosome_length"
    values: tuple[int, ...] | None = None
    experiment: str | None = None
    problems: tuple[str, ...] | None = None
    out_dir: str = "."
    stem: str | None = None
    dataset: str | None = None
    csv_path: str | None = None

    def validate(self) -> None:
        check_mode(self.mode)
        check_settings(self, "chromosome_length", "population_size", "runs", "generations", "jobs")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")


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


def _extract_config_path(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """Build the CLI parser; ``config`` entries replace option defaults.

    Defaults must be rewritten on each subcommand parser: subcommands parse
    into a fresh namespace whose values overwrite the top-level one, so
    ``set_defaults`` on the root parser alone would be ignored.
    """
    parser = argparse.ArgumentParser(
        prog="multigp",
        description="multi-solution genetic programming benchmarks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out_default = os.environ.get("MULTIGP_OUT", ".")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="config file (JSON or key=value lines); flags override")
        p.add_argument("--out", dest="out_dir", default=out_default,
                       help="output directory (default: $MULTIGP_OUT or .)")

    def run_settings(p: argparse.ArgumentParser) -> None:
        """The settings of the runs themselves, shared by run and sweep."""
        p.add_argument("--technique", choices=TECHNIQUES, default="mep")
        p.add_argument("--problem", default="f1")
        p.add_argument("--length", dest="chromosome_length", type=int, default=20)
        p.add_argument("--pop", dest="population_size", type=int, default=50)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--generations", type=int, default=51)
        p.add_argument("--crossover", dest="crossover_probability", type=float, default=0.9)
        p.add_argument("--mutations", type=int, default=2)
        p.add_argument("--dataset", default=None, help="pin fitness cases from a CSV file")

    run_p = sub.add_parser("run", help="one evolution run")
    run_settings(run_p)
    run_p.add_argument("--mode", choices=MODES, default="multi")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="parameter sweep, both variants of one technique")
    run_settings(sweep_p)
    sweep_p.add_argument("--param", choices=PARAMS, default="chromosome_length")
    sweep_p.add_argument("--values", type=_parse_ints, default=None,
                         help="comma-separated swept values")
    sweep_p.add_argument("--runs", type=int, default=100)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--stem", default=None, help="output file stem")
    common(sweep_p)

    paper_p = sub.add_parser("paper", help="preset experiment (figure1..figure7 outputs)")
    paper_p.add_argument("experiment", help="one of " + ", ".join(sorted(PRESET_EXPERIMENTS)))
    paper_p.add_argument("--runs", type=int, default=100)
    paper_p.add_argument("--seed", type=int, default=1)
    paper_p.add_argument("--jobs", type=int, default=1)
    paper_p.add_argument("--problems", type=_parse_names, default=None,
                         help="comma-separated subset of f1,f2,f3,f4")
    paper_p.add_argument("--values", type=_parse_ints, default=None,
                         help="override the preset's swept values")
    common(paper_p)

    plot_p = sub.add_parser("plot", help="render SVG curves from a CSV report")
    plot_p.add_argument("--csv", dest="csv_path", required=True)
    plot_p.add_argument("--stem", default=None)
    common(plot_p)

    if config:
        for p in (run_p, sweep_p, paper_p, plot_p):
            p.set_defaults(**config)
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    cfg = CliConfig(subcommand=args.subcommand)
    for name in vars(cfg):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def cmd_run(cfg: CliConfig) -> int:
    cases = read_cases_csv(cfg.dataset) if cfg.dataset else None
    if cases is None and cfg.problem not in TARGET_FUNCTIONS:
        print(f"error: unknown problem {cfg.problem!r}; "
              f"choose from {list(PROBLEM_IDS)}", file=sys.stderr)
        return 2
    variant = variant_pair(cfg.technique)[MODES.index(cfg.mode)]
    result = run_one(
        variant, cfg.problem, cfg.chromosome_length, cfg.population_size,
        cfg.seed, generations=cfg.generations,
        crossover_probability=cfg.crossover_probability,
        mutations=cfg.mutations, dataset=cases,
    )
    print(f"final fitness: {result.final_fitness:.6g}")
    print(f"success: {result.success}")
    print("best expression:")
    print(result.expression)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / f"run-{variant}-{cfg.problem}-seed{cfg.seed}.json"
    log = {
        "variant": variant,
        "technique": cfg.technique,
        "mode": cfg.mode,
        "problem": cfg.problem,
        "chromosome_length": cfg.chromosome_length,
        "population_size": cfg.population_size,
        "generations": cfg.generations,
        "crossover_probability": cfg.crossover_probability,
        "mutations": cfg.mutations,
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


def _write_report(report: ExperimentReport, out_dir: str, stem: str) -> int:
    out = Path(out_dir)
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
    spec = SweepSpec(
        technique=cfg.technique,
        problem=cfg.problem,
        param=cfg.param,
        values=tuple(cfg.values),
        runs=cfg.runs,
        base_seed=cfg.seed,
        population_size=cfg.population_size,
        chromosome_length=cfg.chromosome_length,
        generations=cfg.generations,
        crossover_probability=cfg.crossover_probability,
        mutations=cfg.mutations,
        jobs=cfg.jobs,
        dataset=read_cases_csv(cfg.dataset) if cfg.dataset else None,
    )
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_sweep(spec)
    stem = cfg.stem or f"sweep-{cfg.technique}-{cfg.problem}-{cfg.param}"
    return _write_report(report, cfg.out_dir, stem)


def cmd_paper(cfg: CliConfig) -> int:
    if cfg.experiment not in PRESET_EXPERIMENTS:
        print(f"error: unknown experiment {cfg.experiment!r}; "
              f"choose from {sorted(PRESET_EXPERIMENTS)}", file=sys.stderr)
        return 2
    specs = preset_sweep_specs(
        cfg.experiment,
        problems=cfg.problems or PROBLEM_IDS,
        runs=cfg.runs,
        base_seed=cfg.seed,
        jobs=cfg.jobs,
        values=cfg.values,
    )
    try:
        for spec in specs:
            spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = combine_reports([run_sweep(spec) for spec in specs])
    stem = PRESET_EXPERIMENTS[cfg.experiment].figure
    return _write_report(report, cfg.out_dir, stem)


def cmd_plot(cfg: CliConfig) -> int:
    path = Path(cfg.csv_path)
    if not path.exists():
        print(f"error: no such report {path}", file=sys.stderr)
        return 2
    points = parse_csv(path.read_bytes())
    if not points:
        print("error: report holds no data rows", file=sys.stderr)
        return 2
    report = ExperimentReport(points=points)
    stem = cfg.stem or path.stem
    svg_paths = emit_plot(report, cfg.out_dir, stem=stem)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    config = None
    config_path = _extract_config_path(argv)
    if config_path:
        try:
            config = _load_config_file(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return 2
    parser = build_parser(config)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _echo_config(cfg)
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
