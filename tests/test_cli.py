import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multigp
from multigp import cli, harness
from multigp.cli import main
from multigp.harness import CSV_HEADER, ExperimentReport, parse_csv, render_svg

from conftest import make_cases, write_cases_csv

GOOD_ROW = "mep,f1,chromosome_length,4,1,2,0.5000"

TINY_RUN = ["run", "--length", "5", "--pop", "4", "--generations", "1", "--seed", "3"]


def echo_of(capsys):
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("effective-config "))
    return json.loads(line.removeprefix("effective-config ")), out


def test_module_entry_point_runs_without_a_runpy_warning():
    src = str(Path(multigp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "multigp.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "paper" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


# --- run ---

def test_run_smoke(tmp_path, capsys):
    code = main(TINY_RUN + ["--out", str(tmp_path)])
    assert code == 0
    cfg, out = echo_of(capsys)
    assert cfg["subcommand"] == "run"
    assert cfg["chromosome_length"] == 5
    assert "final fitness: " in out
    assert "success: " in out
    assert "best expression:" in out
    log_path = tmp_path / "run-mep-f1-seed3.json"
    assert f"run log: {log_path}" in out
    log = json.loads(log_path.read_text())
    assert log["variant"] == "mep"
    assert log["evaluations"] == 4 + 2 * 1 * (4 // 2)
    assert log["success"] is (log["final_fitness"] < 0.01)


def test_run_log_bytes_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(TINY_RUN + ["--out", str(a)]) == 0
    assert main(TINY_RUN + ["--out", str(b)]) == 0
    assert (a / "run-mep-f1-seed3.json").read_bytes() == \
           (b / "run-mep-f1-seed3.json").read_bytes()


def test_run_log_holds_the_run_settings_and_the_outcome(tmp_path):
    argv = ["run", "--technique", "lgp", "--mode", "single", "--problem", "f2", "--length", "6",
            "--pop", "4", "--generations", "2", "--crossover", "0.5", "--mutations", "1",
            "--seed", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    log = json.loads((tmp_path / "run-ss-lgp-f2-seed4.json").read_text())
    assert sorted(log) == [
        "best_per_generation", "chromosome_length", "crossover_probability", "dataset",
        "evaluations", "expression", "final_fitness", "generations", "mode", "mutations",
        "population_size", "problem", "seed", "success", "technique", "variant",
    ]
    assert {k: log[k] for k in ("variant", "technique", "mode", "problem", "chromosome_length",
                                "population_size", "generations", "crossover_probability",
                                "mutations", "seed", "dataset", "evaluations")} == {
        "variant": "ss-lgp", "technique": "lgp", "mode": "single", "problem": "f2",
        "chromosome_length": 6, "population_size": 4, "generations": 2,
        "crossover_probability": 0.5, "mutations": 1, "seed": 4, "dataset": None,
        "evaluations": 4 + 2 * 2 * (4 // 2),
    }
    assert len(log["best_per_generation"]) == 2
    assert log["final_fitness"] == log["best_per_generation"][-1]


def test_run_single_mode_gets_the_single_solution_label(tmp_path, capsys):
    code = main(TINY_RUN + ["--mode", "single", "--technique", "lgp",
                            "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "run-ss-lgp-f1-seed3.json").exists()


def test_run_rejects_unknown_problem(tmp_path, capsys):
    code = main(TINY_RUN + ["--problem", "f9", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


def test_run_rejects_nonpositive_numbers(capsys):
    assert main(["run", "--pop", "0"]) == 2
    assert "population_size must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    (["--technique", "ifgp", "--length", "1"], None, "ifgp needs chromosome length >= 2"),
    (["--technique", "lgp", "--pop", "3"], None, "tournament of four"),
    ([], "technique=gep\n", "unknown technique 'gep'"),
])
def test_run_rejects_settings_the_engine_rejects(tmp_path, capsys, argv, config, message):
    if config:
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(config)
        argv = argv + ["--config", str(cfg_file)]
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_with_a_pinned_dataset(tmp_path, capsys):
    xs = np.linspace(1.0, 4.0, 5)
    data = tmp_path / "cases.csv"
    write_cases_csv(make_cases(xs, xs), data)
    code = main(TINY_RUN + ["--problem", "identity", "--dataset", str(data),
                            "--out", str(tmp_path)])
    assert code == 0
    # the sole terminal x reproduces the identity target exactly
    assert "success: True" in capsys.readouterr().out


def test_missing_dataset_file_is_an_io_error(tmp_path, capsys):
    code = main(TINY_RUN + ["--dataset", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


# --- argument plumbing ---

def test_unknown_subcommand_exits_nonzero(capsys):
    assert main(["solve"]) == 2


def test_env_var_sets_the_default_output_directory(tmp_path, monkeypatch, capsys):
    target = tmp_path / "envout"
    monkeypatch.setenv("MULTIGP_OUT", str(target))
    assert main(TINY_RUN) == 0
    assert (target / "run-mep-f1-seed3.json").exists()


def test_explicit_out_beats_the_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTIGP_OUT", str(tmp_path / "envout"))
    explicit = tmp_path / "explicit"
    assert main(TINY_RUN + ["--out", str(explicit)]) == 0
    assert (explicit / "run-mep-f1-seed3.json").exists()
    assert not (tmp_path / "envout").exists()


def test_json_config_file_supplies_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "chromosome_length": 5, "population_size": 4,
        "generations": 1, "seed": 7,
    }))
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 0
    cfg, _ = echo_of(capsys)
    assert cfg["seed"] == 7
    assert cfg["population_size"] == 4
    assert (tmp_path / "run-mep-f1-seed7.json").exists()


def test_key_value_config_file_supplies_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(
        "# small smoke run\n"
        "chromosome_length = 5\n"
        "population_size = 4\n"
        "generations = 1\n"
        "seed = 7\n"
    )
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 0
    cfg, _ = echo_of(capsys)
    assert cfg["seed"] == 7 and cfg["chromosome_length"] == 5


def test_explicit_flags_override_the_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "chromosome_length": 5, "population_size": 4,
        "generations": 1, "seed": 7,
    }))
    code = main(["run", "--config", str(cfg_file), "--seed", "9",
                 "--out", str(tmp_path)])
    assert code == 0
    cfg, _ = echo_of(capsys)
    assert cfg["seed"] == 9
    assert (tmp_path / "run-mep-f1-seed9.json").exists()


@pytest.mark.parametrize("flag, config, env, out_dir, seed", [
    (False, False, False, ".", 1),
    (False, False, True, "env-out", 1),
    (False, True, False, "config-out", 7),
    (False, True, True, "config-out", 7),
    (True, False, False, "flag-out", 9),
    (True, True, True, "flag-out", 9),
])
def test_a_flag_beats_the_config_file_which_beats_the_env_var_which_beats_the_default(
        tmp_path, monkeypatch, capsys, flag, config, env, out_dir, seed):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MULTIGP_OUT", raising=False)
    argv = ["run", "--length", "5", "--pop", "4", "--generations", "1"]
    if env:
        monkeypatch.setenv("MULTIGP_OUT", "env-out")
    if config:
        (tmp_path / "cfg.ini").write_text("seed=7\nout_dir=config-out\n")
        argv += ["--config", "cfg.ini"]
    if flag:
        argv += ["--seed", "9", "--out", "flag-out"]
    assert main(argv) == 0
    cfg, _ = echo_of(capsys)
    assert (cfg["out_dir"], cfg["seed"]) == (out_dir, seed)
    assert (tmp_path / out_dir / f"run-mep-f1-seed{seed}.json").exists()


def test_a_config_key_without_a_flag_on_the_subcommand_is_echoed(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("runs=5\n")
    assert main(TINY_RUN + ["--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    cfg, _ = echo_of(capsys)
    assert cfg["runs"] == 5


# setting: (a subcommand with a flag for it, the flag, a text that is not the default)
FLAG_TEXTS = {
    "technique": ("run", "--technique", "lgp"),
    "problem": ("run", "--problem", "f2"),
    "problems": ("paper", "--problems", "f2,f3"),
    "mode": ("run", "--mode", "single"),
    "chromosome_length": ("run", "--length", "6"),
    "population_size": ("run", "--pop", "8"),
    "seed": ("run", "--seed", "4"),
    "runs": ("sweep", "--runs", "3"),
    "generations": ("run", "--generations", "2"),
    "crossover_probability": ("run", "--crossover", "0.5"),
    "mutations": ("run", "--mutations", "1"),
    "jobs": ("sweep", "--jobs", "2"),
    "param": ("sweep", "--param", "population_size"),
    "values": ("sweep", "--values", "4,8"),
    "out_dir": ("run", "--out", "elsewhere"),
    "stem": ("sweep", "--stem", "mystem"),
    "dataset": ("run", "--dataset", "cases.csv"),
    "csv_path": ("plot", "--csv", "report.csv"),
}


def test_every_setting_but_the_positional_experiment_has_a_flag():
    assert set(FLAG_TEXTS) == set(cli._OPTION_TYPES) - {"experiment"}


@pytest.mark.parametrize("key", sorted(FLAG_TEXTS))
def test_a_flag_and_the_same_text_in_a_config_file_give_the_same_setting(
        tmp_path, monkeypatch, capsys, key):
    subcommand, flag, text = FLAG_TEXTS[key]
    monkeypatch.setitem(cli._COMMANDS, subcommand, lambda cfg: 0)

    def echoed(*args):
        positional = ["mep-exp1"] if subcommand == "paper" else []
        assert main([subcommand, *positional, *args]) == 0
        return echo_of(capsys)[0][key]

    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(f"{key}={text}\n")
    by_flag = echoed(flag, text)
    assert by_flag == echoed("--config", str(cfg_file))
    assert by_flag != echoed()


def _paper_argv(how, tmp_path):
    """``paper mep-exp1`` on a tiny grid, its experiment given ``how``."""
    argv = ["paper", "--runs", "1", "--problems", "f1", "--values", "4", "--out", str(tmp_path / "out")]
    if how == "flag":
        return argv[:1] + ["mep-exp1"] + argv[1:]
    if how == "config":
        (tmp_path / "c.ini").write_text("experiment=mep-exp1\n")
        return argv + ["--config", str(tmp_path / "c.ini")]
    return argv


def _plot_argv(how, tmp_path):
    """``plot`` of a one-row report, its path given ``how``."""
    report = tmp_path / "report.csv"
    report.write_text(f"{CSV_HEADER}\n{GOOD_ROW}\n")
    argv = ["plot", "--out", str(tmp_path / "out")]
    if how == "flag":
        return argv + ["--csv", str(report)]
    if how == "config":
        (tmp_path / "c.ini").write_text(f"csv_path={report}\n")
        return argv + ["--config", str(tmp_path / "c.ini")]
    return argv


@pytest.mark.parametrize("argv_of, written", [(_paper_argv, "figure1-f1.svg"), (_plot_argv, "report-f1.svg")])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_the_experiment_and_the_report_path_come_from_a_flag_or_a_config_file(
        tmp_path, capsys, argv_of, written, how):
    assert main(argv_of(how, tmp_path)) == 0
    assert (tmp_path / "out" / written).exists()


@pytest.mark.parametrize("argv_of, message", [(_paper_argv, "error: paper needs an experiment\n"),
                                              (_plot_argv, "error: plot needs --csv\n")])
def test_a_missing_experiment_or_report_path_exits_2_naming_it(tmp_path, capsys, argv_of, message):
    assert main(argv_of("missing", tmp_path)) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("tournament_size=4\n")
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert "bad config file" in capsys.readouterr().err


def test_config_line_without_equals_is_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("seed 7\n")
    assert main(["run", "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("subcommand, payload", [
    ("sweep", {"values": 4}),
    ("run", {"seed": 1.5}),
    ("run", {"seed": True}),
    ("sweep", {"values": [4, "eight"]}),
])
def test_json_config_value_of_the_wrong_type_is_rejected(tmp_path, capsys, subcommand, payload):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(payload))
    assert main([subcommand, "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "bad config file" in capsys.readouterr().err


def test_json_config_null_leaves_the_default(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "chromosome_length": 5, "population_size": 4, "generations": 1,
        "seed": None, "dataset": None,
    }))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    cfg, _ = echo_of(capsys)
    assert cfg["seed"] == 1 and cfg["dataset"] is None


# --- sweep ---

SWEEP_ARGS = ["sweep", "--values", "4,8", "--runs", "2", "--pop", "4",
              "--generations", "1", "--seed", "5"]


def test_sweep_writes_report_files(tmp_path, capsys):
    code = main(SWEEP_ARGS + ["--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    stem = "sweep-mep-f1-chromosome_length"
    csv_path = tmp_path / f"{stem}.csv"
    assert csv_path.exists()
    assert (tmp_path / f"{stem}-runs.jsonl").exists()
    assert (tmp_path / f"{stem}-f1.svg").exists()
    assert f"wrote {csv_path}" in out
    points = parse_csv(csv_path.read_bytes())
    assert [(p.variant, p.value) for p in points] == [
        ("mep", 4), ("mep", 8), ("sep", 4), ("sep", 8),
    ]
    jsonl = (tmp_path / f"{stem}-runs.jsonl").read_text().splitlines()
    assert len(jsonl) == 8
    assert all(json.loads(line)["seed"] in (5, 6) for line in jsonl)


def test_sweep_csv_bytes_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SWEEP_ARGS + ["--out", str(a)]) == 0
    assert main(SWEEP_ARGS + ["--out", str(b)]) == 0
    stem = "sweep-mep-f1-chromosome_length"
    assert (a / f"{stem}.csv").read_bytes() == (b / f"{stem}.csv").read_bytes()
    assert (a / f"{stem}-f1.svg").read_bytes() == (b / f"{stem}-f1.svg").read_bytes()


@pytest.mark.parametrize("argv", [
    SWEEP_ARGS,
    ["paper", "mep-exp1", "--runs", "1", "--problems", "f1", "--values", "4"],
])
def test_a_failing_run_exits_1_with_the_run_error_and_no_traceback(tmp_path, monkeypatch, capsys, argv):
    def run(problem, seed, cfg, dataset=None):
        raise FloatingPointError("injected")

    monkeypatch.setattr(harness, "run", run)
    code = main(argv + ["--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run failed: variant mep, problem f1, seed ")
    assert "(FloatingPointError: injected); replay it with: multigp run " in err
    assert "Traceback" not in err


def test_sweep_requires_values(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path)])
    assert code == 2
    assert "--values" in capsys.readouterr().err


def test_sweep_rejects_unsorted_values(tmp_path, capsys):
    code = main(["sweep", "--values", "8,4", "--out", str(tmp_path)])
    assert code == 2
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--values", "0,4"], "mep needs chromosome length >= 1"),
    (["sweep", "--technique", "lgp", "--param", "population_size", "--values", "2,8",
      "--jobs", "2"], "tournament of four"),
    (["paper", "ifgp-exp1", "--values", "1"], "ifgp needs chromosome length >= 2"),
    (["paper", "mep-exp1", "--values", "8,4"], "strictly increasing"),
])
def test_swept_values_the_engine_rejects_fail_before_any_run(tmp_path, capsys, argv, message):
    assert main(argv + ["--runs", "1", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_values_from_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "values": [4], "runs": 1, "population_size": 4,
        "generations": 1, "seed": 5, "stem": "cfgsweep",
    }))
    code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cfgsweep.csv").exists()


# --- paper ---

def test_paper_preset_names_files_after_the_figure(tmp_path, capsys):
    code = main(["paper", "mep-exp1", "--runs", "1", "--seed", "2",
                 "--problems", "f1", "--values", "4,8", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "figure1.csv").exists()
    assert (tmp_path / "figure1-runs.jsonl").exists()
    assert (tmp_path / "figure1-f1.svg").exists()
    out = capsys.readouterr().out
    assert "mep f1 chromosome_length=4" in out


def test_paper_rejects_unknown_experiment(tmp_path, capsys):
    assert main(["paper", "mep-exp9", "--out", str(tmp_path)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_paper_rejects_unknown_problem_subsets(tmp_path, capsys):
    code = main(["paper", "mep-exp1", "--problems", "f1,f9",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "f9" in capsys.readouterr().err


@pytest.mark.parametrize("problems, shown", [("f1,f1", "['f1', 'f1']"), (",", "[]")])
def test_paper_rejects_a_repeated_or_empty_problem_list(tmp_path, capsys, problems, shown):
    code = main(["paper", "mep-exp1", "--runs", "1", "--problems", problems, "--values", "4",
                 "--out", str(tmp_path)])
    assert code == 2
    assert f"--problems must list one or more distinct problems, not {shown}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --- plot ---

def test_plot_rebuilds_the_svg_from_a_csv(tmp_path, capsys):
    assert main(SWEEP_ARGS + ["--stem", "orig", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["plot", "--csv", str(tmp_path / "orig.csv"),
                 "--out", str(tmp_path / "replot")])
    assert code == 0
    replot = (tmp_path / "replot" / "orig-f1.svg").read_text()
    points = parse_csv((tmp_path / "orig.csv").read_bytes())
    assert replot == render_svg(ExperimentReport(points=points), "f1")
    assert replot == (tmp_path / "orig-f1.svg").read_text()


def test_plot_honours_an_explicit_stem(tmp_path, capsys):
    assert main(SWEEP_ARGS + ["--stem", "orig", "--out", str(tmp_path)]) == 0
    code = main(["plot", "--csv", str(tmp_path / "orig.csv"),
                 "--stem", "fresh", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fresh-f1.svg").exists()


def test_plot_rejects_missing_or_empty_reports(tmp_path, capsys):
    assert main(["plot", "--csv", str(tmp_path / "none.csv")]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("variant,problem,param,value,successes,runs,success_rate\n")
    assert main(["plot", "--csv", str(empty)]) == 2
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("lines, bad_line", [
    ([CSV_HEADER.replace("variant", "method"), GOOD_ROW], 1),
    ([GOOD_ROW], 1),
    ([CSV_HEADER, GOOD_ROW, "mep,f1,chromosome_length,8,0,0,0.0000"], 3),
    ([CSV_HEADER, GOOD_ROW, "mep,f1,chromosome_length,8,3,2,1.5000"], 3),
    ([CSV_HEADER, GOOD_ROW, "mep,f1,chromosome_length,8,-1,2,0.0000"], 3),
    ([CSV_HEADER, "mep,f1,pop,4,1,2,0.5000"], 2),
    ([CSV_HEADER, "mep,f1,chromosome_length,4.5,1,2,0.5000"], 2),
    ([CSV_HEADER, "mep,f1,chromosome_length,4,1"], 2),
])
def test_plot_rejects_a_malformed_report_naming_the_file_and_line(tmp_path, capsys, lines, bad_line):
    report = tmp_path / "bad.csv"
    report.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["plot", "--csv", str(report), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad report {report}: line {bad_line}: ")
    assert not out.exists()


def test_plot_rejects_mixed_swept_parameters_before_writing(tmp_path, capsys):
    report = tmp_path / "mixed.csv"
    report.write_text("\n".join([CSV_HEADER, GOOD_ROW, "sep,f1,population_size,10,1,2,0.5000"]) + "\n")
    out = tmp_path / "out"
    assert main(["plot", "--csv", str(report), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad report {report}: mixed swept parameters in one plot\n"
    assert not out.exists()
