"""Replay fingerprints: bit-level identity of whole evolution runs.

``tests/data/replay.json`` holds one record per run over a grid of the six
variants, the four problems, two chromosome lengths and a few seeds at a
small population, plus the six variants on each problem at the preset
configuration.  Each record keeps the exact bits of the final fitness and of
every per-generation best, the evaluation count, a hash of the reported
expression, the number of 64-bit RNG words the run consumed and the
primitive operations it applied.
A refactor that changes any of them changes behaviour.

Regenerate the file (a deliberate behaviour change, to be explained in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_replay.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from multigp.core import RandomSource, make_problem, ops_applied, reset_ops
from multigp.engine import EvolutionConfig, run_evolution
from multigp.harness import VARIANTS, SweepSpec, run_sweep, write_csv, write_run_log

DATA = Path(__file__).parent / "data" / "replay.json"

GRID_LENGTHS = {"mep": (4, 12), "lgp": (4, 12), "ifgp": (10, 20)}
GRID_SEEDS = (1, 2, 3, 4, 5)
GRID_POPULATION, GRID_GENERATIONS = 12, 10
PRESET_LENGTHS = {"mep": 20, "lgp": 20, "ifgp": 30}
PRESET_SEED = 201


class CountingSource(RandomSource):
    """RandomSource that counts the 64-bit words it hands out."""

    __slots__ = ("words",)

    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0

    def next_uint64(self):
        self.words += 1
        return RandomSource.next_uint64(self)


def grid():
    """(variant, problem, length, population, generations, seed) per run."""
    for variant, (technique, _) in VARIANTS.items():
        for problem in ("f1", "f2", "f3", "f4"):
            for length in GRID_LENGTHS[technique]:
                for seed in GRID_SEEDS:
                    yield variant, problem, length, GRID_POPULATION, GRID_GENERATIONS, seed
        for problem in ("f1", "f2", "f3", "f4"):
            yield variant, problem, PRESET_LENGTHS[technique], 50, 51, PRESET_SEED


def fingerprint(variant, problem, length, population, generations, seed) -> dict:
    """One run as ``harness.run_one`` makes it, with the RNG words counted."""
    technique, mode = VARIANTS[variant]
    rng = CountingSource(seed)
    cases = make_problem(problem, rng)
    cfg = EvolutionConfig(technique, length, mode,
                          population_size=population, generations=generations)
    reset_ops()
    result = run_evolution(cfg, cases, rng)
    ops = ops_applied()
    reset_ops()
    return {
        "run": [variant, problem, length, population, generations, seed],
        "final_fitness": result.final_fitness.hex(),
        "best_per_generation": [b.hex() for b in result.best_per_generation],
        "evaluations": result.evaluations,
        "expression_sha256": hashlib.sha256(result.expression.encode()).hexdigest()[:16],
        "rng_words": rng.words,
        "ops": ops,
    }


def test_runs_replay_their_fingerprints():
    recorded = json.loads(DATA.read_text())
    assert [tuple(r["run"]) for r in recorded] == list(grid())
    differing = []
    for record in recorded:
        got = fingerprint(*record["run"])
        if got != record:
            fields = sorted(k for k in record if got[k] != record[k])
            differing.append(f"{record['run']}: {', '.join(fields)}")
    assert not differing, f"{len(differing)} runs differ, e.g. " + "; ".join(differing[:5])


def _sweep_bytes(specs, jobs, out):
    report = run_sweep(specs, jobs)
    out.mkdir()
    return (write_csv(report, out / "report.csv").read_bytes(),
            write_run_log(report, out / "runs.jsonl").read_bytes())


def test_sweep_bytes_do_not_depend_on_the_job_count(tmp_path):
    for technique in ("mep", "lgp", "ifgp"):
        config = EvolutionConfig(technique, GRID_LENGTHS[technique][0], population_size=GRID_POPULATION,
                                 generations=GRID_GENERATIONS)
        # two problems in one call, so the pool's task list spans two specs
        specs = [SweepSpec(config, problem, "chromosome_length", GRID_LENGTHS[technique], runs=2, base_seed=11)
                 for problem in ("f2", "f4")]
        serial = _sweep_bytes(specs, 1, tmp_path / f"{technique}-1")
        pooled = _sweep_bytes(specs, 2, tmp_path / f"{technique}-2")
        assert serial == pooled, technique


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_replay.py --write")
    DATA.parent.mkdir(exist_ok=True)
    records = [fingerprint(*run) for run in grid()]
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} fingerprints to {DATA}")
