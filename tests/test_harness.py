import json

import numpy as np
import pytest

from multigp import cli, harness
from multigp.core import RandomSource
from multigp.engine import EvolutionConfig
from multigp.harness import (
    CSV_HEADER,
    PRESET_EXPERIMENTS,
    ExperimentReport,
    SweepPoint,
    SweepSpec,
    emit_csv,
    emit_plot,
    parse_csv,
    preset_sweep_specs,
    render_svg,
    run_one,
    run_sweep,
    variant_pair,
    write_csv,
    write_run_log,
)

from conftest import make_cases


def tiny_spec(**overrides):
    """A small sweep; an override that names an ``EvolutionConfig`` field goes
    to the spec's config."""
    settings = dict(technique="mep", chromosome_length=20, population_size=4, generations=1)
    base = dict(problem="f1", param="chromosome_length", values=(4, 8), runs=2, base_seed=11)
    for key, value in overrides.items():
        (settings if key in EvolutionConfig.__dataclass_fields__ else base)[key] = value
    return SweepSpec(EvolutionConfig(**settings), **base)


def identity_cases():
    xs = np.linspace(1.0, 4.0, 5)
    return make_cases(xs, xs)


# --- variant labels and spec validation ---

def test_variant_pairs_put_the_multi_label_first():
    assert variant_pair("mep") == ("mep", "sep")
    assert variant_pair("lgp") == ("ms-lgp", "ss-lgp")
    assert variant_pair("ifgp") == ("ifgp", "ss-ifgp")
    with pytest.raises(ValueError):
        variant_pair("cgp")


@pytest.mark.parametrize("overrides", [
    {"technique": "gep"},
    {"problem": "f9"},
    {"param": "mutation_rate"},
    {"values": ()},
    {"values": (4, 4)},
    {"values": (8, 4)},
    {"runs": 0},
    {"technique": "lgp", "population_size": 3},
    {"crossover_probability": 1.5},
    {"mutations": -1},
    {"values": (0, 4)},
    {"technique": "ifgp", "values": (1, 10)},
    {"technique": "lgp", "param": "population_size", "values": (3, 8)},
    {"generations": 0},
])
def test_spec_validation_rejects_bad_fields(overrides):
    with pytest.raises(ValueError):
        tiny_spec(**overrides).validate()


def test_sweep_rejects_a_job_count_below_one():
    with pytest.raises(ValueError, match="jobs must be positive"):
        run_sweep([tiny_spec()], jobs=0)


def test_each_point_sets_the_mode_and_the_swept_parameter_and_keeps_the_rest():
    spec = tiny_spec(param="population_size", values=(6, 9), mode="single", crossover_probability=0.5)
    assert spec.point_config(9, "multi") == EvolutionConfig(
        "mep", 20, "multi", 9, generations=1, crossover_probability=0.5)


def test_unlisted_problem_is_fine_once_a_dataset_pins_the_cases():
    tiny_spec(problem="custom", dataset=identity_cases()).validate()


def test_success_rate_is_successes_over_runs():
    assert SweepPoint("mep", "f1", "chromosome_length", 10, 30, 100).success_rate == 0.3


# --- running ---

def test_run_one_is_deterministic_in_the_seed():
    a = run_one("mep", "f1", 6, 4, 17, generations=2)
    b = run_one("mep", "f1", 6, 4, 17, generations=2)
    c = run_one("mep", "f1", 6, 4, 18, generations=2)
    assert a.seed == 17
    assert a.final_fitness == b.final_fitness
    assert a.expression == b.expression
    assert a.best_per_generation != c.best_per_generation


def test_run_one_rejects_unknown_variant():
    with pytest.raises(KeyError):
        run_one("cgp", "f1", 6, 4, 17)


def test_run_one_passes_its_settings_on_to_the_run():
    got = run_one("ss-lgp", "f2", 6, 4, 18, generations=2, crossover_probability=0.0, mutations=0)
    cfg = EvolutionConfig("lgp", 6, "single", 4, generations=2, crossover_probability=0.0, mutations=0)
    assert got == harness.run("f2", 18, cfg)
    # the settings reached the engine: the defaults give another run
    assert got != run_one("ss-lgp", "f2", 6, 4, 18, generations=2)


@pytest.mark.parametrize("settings", [{"generation": 2}, {"mode": "multi"}])
def test_run_one_rejects_keywords_that_are_no_remaining_setting(settings):
    with pytest.raises(TypeError):
        run_one("mep", "f1", 6, 4, 17, **settings)


def test_identity_dataset_is_solved_at_initialisation():
    # with one input the only terminal is x itself, and every multi-mode MEP
    # chromosome starts with a terminal gene, so the error is exactly zero
    spec = tiny_spec(problem="identity", values=(5,), dataset=identity_cases())
    report = run_sweep([spec])
    by_variant = {p.variant: p for p in report.points}
    assert by_variant["mep"].successes == spec.runs
    assert by_variant["mep"].success_rate == 1.0


def test_sweep_covers_both_variants_and_logs_every_run():
    spec = tiny_spec()
    report = run_sweep([spec])
    assert [(p.variant, p.value) for p in report.points] == [
        ("mep", 4), ("mep", 8), ("sep", 4), ("sep", 8),
    ]
    assert all(p.runs == spec.runs for p in report.points)
    assert len(report.run_log) == 2 * 2 * spec.runs
    for entry in report.run_log:
        assert entry["seed"] == spec.base_seed + entry["run"]
        assert entry["problem"] == "f1"
        assert entry["success"] is (entry["final_fitness"] < 0.01)


def test_sweep_points_agree_with_their_run_log():
    report = run_sweep([tiny_spec()])
    for point in report.points:
        entries = [e for e in report.run_log
                   if e["variant"] == point.variant and e["value"] == point.value]
        assert len(entries) == point.runs
        assert sum(e["success"] for e in entries) == point.successes


def test_sweep_is_deterministic_and_order_independent():
    spec = tiny_spec()
    first = run_sweep([spec])
    second = run_sweep([spec])
    assert first == second
    assert first.run_log == second.run_log
    parallel = run_sweep([spec], jobs=2)
    assert parallel == first
    assert parallel.run_log == first.run_log


def test_any_logged_run_replays_in_isolation():
    spec = tiny_spec()
    report = run_sweep([spec])
    entry = report.run_log[-1]
    replay = run_one(
        entry["variant"], entry["problem"], entry["value"],
        spec.config.population_size, entry["seed"], generations=spec.config.generations,
    )
    assert replay.final_fitness == entry["final_fitness"]
    assert replay.expression == entry["expression"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_run_names_itself_and_its_replay(monkeypatch, tmp_path, jobs):
    real_run = harness.run

    def run(problem, seed, cfg, dataset=None):
        if seed == 12 and cfg.mode == "single":
            raise FloatingPointError("injected")
        return real_run(problem, seed, cfg, dataset)

    # a forked pool worker inherits the patched module
    monkeypatch.setattr(harness, "run", run)
    spec = tiny_spec(technique="lgp", values=(4,), runs=3, population_size=5, generations=2)
    with pytest.raises(harness.RunError) as failure:
        run_sweep([spec], jobs)
    message = str(failure.value)
    assert message.startswith("run failed: variant ss-lgp, problem f1, seed 12, length 4, population 5 "
                              "(FloatingPointError: injected)")
    # the command the message gives replays the run in isolation
    command = message.split("replay it with: multigp ")[1].split()
    assert cli.main(command + ["--out", str(tmp_path)]) == 0
    log = json.loads((tmp_path / "run-ss-lgp-f1-seed12.json").read_text())
    want = real_run("f1", 12, spec.point_config(4, "single"))
    assert (log["final_fitness"], log["expression"]) == (want.final_fitness, want.expression)


def test_variants_share_the_per_run_seed_and_cases():
    report = run_sweep([tiny_spec()])
    seeds = {}
    for e in report.run_log:
        seeds.setdefault((e["value"], e["run"]), set()).add(e["seed"])
    assert all(len(s) == 1 for s in seeds.values())


def test_a_multi_spec_sweep_merges_and_sorts_points():
    specs = [tiny_spec(problem="f2", values=(4,)), tiny_spec(problem="f1", values=(4,))]
    merged = run_sweep(specs)
    assert [(p.variant, p.problem) for p in merged.points] == [
        ("mep", "f1"), ("mep", "f2"), ("sep", "f1"), ("sep", "f2"),
    ]
    assert len(merged.run_log) == sum(2 * spec.runs for spec in specs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_two_problem_sweep_equals_its_one_problem_sweeps_merged(jobs):
    specs = [tiny_spec(problem="f2"), tiny_spec(technique="lgp", problem="f1", runs=3)]
    merged = run_sweep(specs, jobs)
    alone = [run_sweep([spec]) for spec in specs]
    assert merged.points == sorted((p for r in alone for p in r.points),
                                   key=lambda p: (p.variant, p.problem, p.value))
    assert merged.run_log == [entry for r in alone for entry in r.run_log]


def test_a_multi_spec_sweep_validates_every_spec_before_any_run(monkeypatch):
    monkeypatch.setattr(harness, "_run_task", lambda task: pytest.fail("a run started"))
    with pytest.raises(ValueError, match="unknown problem 'f9'"):
        run_sweep([tiny_spec(), tiny_spec(problem="f9")])


# --- CSV report ---

def test_csv_golden_row_for_a_thirty_percent_point():
    report = ExperimentReport(points=[
        SweepPoint("mep", "f1", "chromosome_length", 10, 30, 100),
    ])
    assert emit_csv(report) == (
        b"variant,problem,param,value,successes,runs,success_rate\n"
        b"mep,f1,chromosome_length,10,30,100,0.3000\n"
    )


def test_csv_of_an_empty_report_is_just_the_header():
    assert emit_csv(ExperimentReport(points=[])) == (CSV_HEADER + "\n").encode()


def test_csv_rows_come_out_sorted_and_rates_use_four_decimals():
    shuffled = ExperimentReport(points=[
        SweepPoint("sep", "f1", "chromosome_length", 8, 1, 3),
        SweepPoint("mep", "f2", "chromosome_length", 4, 2, 3),
        SweepPoint("mep", "f1", "chromosome_length", 8, 3, 3),
        SweepPoint("mep", "f1", "chromosome_length", 4, 0, 3),
    ])
    lines = emit_csv(shuffled).decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1:] == [
        "mep,f1,chromosome_length,4,0,3,0.0000",
        "mep,f1,chromosome_length,8,3,3,1.0000",
        "mep,f2,chromosome_length,4,2,3,0.6667",
        "sep,f1,chromosome_length,8,1,3,0.3333",
    ]


def test_csv_round_trips_through_the_parser():
    report = run_sweep([tiny_spec()])
    assert parse_csv(emit_csv(report)) == report.points
    assert parse_csv(emit_csv(report).decode()) == report.points


def test_csv_and_run_log_files(tmp_path):
    report = run_sweep([tiny_spec()])
    csv_path = write_csv(report, tmp_path / "sweep.csv")
    assert csv_path.read_bytes() == emit_csv(report)
    log_path = write_run_log(report, tmp_path / "runs.jsonl")
    lines = log_path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        json.loads(json.dumps(e, sort_keys=True)) for e in report.run_log
    ]
    empty = write_run_log(ExperimentReport(points=[]), tmp_path / "empty.jsonl")
    assert empty.read_text() == ""


# --- SVG curves ---

def flat_report(rate_by_variant, values=(10, 20), problem="f1"):
    points = [
        SweepPoint(variant, problem, "chromosome_length", v,
                   int(round(rate * 100)), 100)
        for variant, rate in rate_by_variant.items()
        for v in values
    ]
    return ExperimentReport(points=points)


def test_svg_is_deterministic_and_complete():
    report = run_sweep([tiny_spec()])
    first = render_svg(report, "f1")
    assert first == render_svg(report, "f1")
    assert first.count("<polyline") == 2
    assert ">mep</text>" in first and ">sep</text>" in first
    assert "f1: success rate vs chromosome length" in first
    for tick in ("0.0", "0.2", "0.4", "0.6", "0.8", "1.0"):
        assert f">{tick}</text>" in first


def test_svg_pins_full_success_to_the_top_gridline():
    svg = render_svg(flat_report({"mep": 1.0}), "f1")
    assert '<polyline points="62.00,40.00 616.00,40.00"' in svg


def test_svg_pins_zero_success_to_the_axis():
    svg = render_svg(flat_report({"mep": 0.0}), "f1")
    assert '<polyline points="62.00,368.00 616.00,368.00"' in svg


def test_svg_centres_a_single_value_sweep():
    svg = render_svg(flat_report({"mep": 1.0}, values=(10,)), "f1")
    assert '<circle cx="339.00" cy="40.00"' in svg


def test_svg_rejects_unknown_problem_and_mixed_params():
    report = run_sweep([tiny_spec()])
    with pytest.raises(ValueError):
        render_svg(report, "f4")
    mixed = ExperimentReport(points=[
        SweepPoint("mep", "f1", "chromosome_length", 10, 1, 2),
        SweepPoint("sep", "f1", "population_size", 10, 1, 2),
    ])
    with pytest.raises(ValueError):
        render_svg(mixed, "f1")


def test_emit_plot_writes_one_file_per_problem(tmp_path):
    merged = run_sweep([tiny_spec(problem="f1", values=(4,)), tiny_spec(problem="f2", values=(4,))])
    paths = emit_plot(merged, tmp_path)
    assert [p.name for p in paths] == ["f1.svg", "f2.svg"]
    assert paths[0].read_text() == render_svg(merged, "f1")
    named = emit_plot(merged, tmp_path, stem="figure1")
    assert [p.name for p in named] == ["figure1-f1.svg", "figure1-f2.svg"]
    with pytest.raises(ValueError):
        emit_plot(ExperimentReport(points=[]), tmp_path)


# --- preset experiments ---

def test_preset_grids_match_the_reported_experiments():
    assert PRESET_EXPERIMENTS["mep-exp1"].values == (4, 8, 12, 16, 20, 24, 28, 32, 36, 40)
    assert PRESET_EXPERIMENTS["mep-exp2"].values == tuple(range(10, 110, 10))
    assert PRESET_EXPERIMENTS["mep-exp2"].chromosome_length == 10
    assert PRESET_EXPERIMENTS["lgp-exp2"].chromosome_length == 12
    assert PRESET_EXPERIMENTS["ifgp-exp1"].values == (10, 20, 30, 40, 50, 60)
    assert PRESET_EXPERIMENTS["ifgp-exp2"].chromosome_length == 30
    figures = {e.figure for e in PRESET_EXPERIMENTS.values()}
    assert figures == {"figure1", "figure2", "figure3", "figure4", "figure6", "figure7"}


def test_preset_specs_honour_overrides():
    specs = preset_sweep_specs("mep-exp1", problems=("f2",), runs=3,
                              base_seed=9, values=(4, 8))
    assert len(specs) == 1
    assert specs[0].problem == "f2"
    assert specs[0].values == (4, 8)
    assert specs[0].runs == 3
    assert specs[0].base_seed == 9
    assert specs[0].config == EvolutionConfig("mep", 20, population_size=50)
    with pytest.raises(KeyError):
        preset_sweep_specs("mep-exp9")


def test_preset_experiment_report_spans_problems_and_variants():
    def run_preset():
        specs = preset_sweep_specs("mep-exp1", problems=("f1", "f2"),
                                   runs=1, base_seed=5, values=(4,))
        return run_sweep(specs)

    report = run_preset()
    assert [(p.variant, p.problem) for p in report.points] == [
        ("mep", "f1"), ("mep", "f2"), ("sep", "f1"), ("sep", "f2"),
    ]
    again = run_preset()
    assert report == again and report.run_log == again.run_log
