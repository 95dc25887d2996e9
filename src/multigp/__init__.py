"""Multi-solution genetic programming.

Three linear chromosome encodings (MEP, LGP, IFGP), each decodable in a
single pass that scores every embedded candidate solution, plus the
single-solution variants, steady-state evolution loops and a benchmark
harness for success-rate sweeps on four symbolic-regression problems.
"""

from . import core, engine, harness, ifgp, lgp, mep
from .core import (
    CASES_PER_PROBLEM,
    DIV_EPSILON,
    INPUT_RANGE,
    OPERATORS,
    TARGET_FUNCTIONS,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    make_problem,
    ops_applied,
    read_cases_csv,
    reset_ops,
    write_cases_csv,
)
from .engine import (
    SUCCESS_THRESHOLD,
    EvolutionConfig,
    RunResult,
    Toolbox,
    binary_tournament,
    evolve_steady_state,
    evolve_tournament,
    make_toolbox,
    run_evolution,
)
from .harness import (
    PRESET_EXPERIMENTS,
    PROBLEM_IDS,
    VARIANTS,
    ExperimentReport,
    SweepPoint,
    SweepSpec,
    combine_reports,
    emit_csv,
    emit_plot,
    parse_csv,
    render_svg,
    run_one,
    run_preset_experiment,
    run_sweep,
    variant_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CASES_PER_PROBLEM",
    "DIV_EPSILON",
    "INPUT_RANGE",
    "OPERATORS",
    "PRESET_EXPERIMENTS",
    "PROBLEM_IDS",
    "SUCCESS_THRESHOLD",
    "TARGET_FUNCTIONS",
    "VARIANTS",
    "EvolutionConfig",
    "ExperimentReport",
    "FitnessCaseSet",
    "PrimitiveSet",
    "RandomSource",
    "RunResult",
    "SweepPoint",
    "SweepSpec",
    "Toolbox",
    "binary_tournament",
    "combine_reports",
    "core",
    "emit_csv",
    "emit_plot",
    "engine",
    "evolve_steady_state",
    "evolve_tournament",
    "harness",
    "ifgp",
    "lgp",
    "make_problem",
    "make_toolbox",
    "mep",
    "ops_applied",
    "parse_csv",
    "read_cases_csv",
    "render_svg",
    "reset_ops",
    "run_evolution",
    "run_one",
    "run_preset_experiment",
    "run_sweep",
    "variant_pair",
    "write_cases_csv",
]
