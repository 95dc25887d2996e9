"""The benchmark's own checks accept real run outputs and reject perturbed ones.

    python3 -m pytest bench -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from multigp import harness  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from checker import CheckError  # noqa: E402


def short_run(variant, seed=5):
    spec = workloads.RunSpec(variant, "f2", 30 if "ifgp" in variant else 12, 20, seed)
    result = harness.run_one(spec.variant, spec.problem, spec.length, spec.population,
                             spec.seed, generations=workloads.GENERATIONS)
    return spec, result


def perturb_expression(technique, text):
    """The reported candidate plus x: an infix sum, or one more register add."""
    if technique != "lgp":
        return f"({text})+x"
    *body, output = text.splitlines()
    read, _, upto = output.removeprefix("output: ").partition(" after instruction ")
    read, upto = read.split()[0], int(upto) if upto else len(body)
    body.insert(upto, f"{read} = {read} + r[0];")
    return "\n".join(body + [f"output: {read} after instruction {upto + 1}"])


@pytest.mark.parametrize("variant", list(harness.VARIANTS))
def test_checker_accepts_a_real_run_and_rejects_perturbations(variant):
    spec, result = short_run(variant)
    args = (spec.technique, spec.problem, spec.seed)
    workloads.check_result(spec, result)
    checker.check_run(*args, result.expression, result.final_fitness, result.success)
    with pytest.raises(CheckError):
        checker.check_run(*args, perturb_expression(spec.technique, result.expression),
                          result.final_fitness, result.success)
    with pytest.raises(CheckError):
        checker.check_run(*args, result.expression, result.final_fitness * (1 + 1e-6) + 1e-6, result.success)
    with pytest.raises(CheckError):
        checker.check_run(*args, result.expression, result.final_fitness, not result.success)


def test_property_checks_reject_a_tampered_run():
    spec, result = short_run("mep")
    rising = dataclasses.replace(result, best_per_generation=list(reversed(result.best_per_generation)))
    if rising.best_per_generation != result.best_per_generation:
        with pytest.raises(CheckError):
            workloads.check_result(spec, rising)
    with pytest.raises(CheckError):
        workloads.check_result(spec, dataclasses.replace(result, evaluations=result.evaluations + 2))


def test_independent_cases_match_the_program():
    for seed in (0, 1, 12345, 2 ** 40 + 7):
        workloads.check_problem_draws(seed)


def test_register_machine_reads_the_named_register_with_taint():
    xs = [2.0, 3.0]
    listing = "r[1] = r[0] * r[0];\nr[2] = r[1] - r[1];\nr[3] = r[0] / r[2];\noutput: r[1] after instruction 1"
    assert checker.eval_listing(listing, xs) == [4.0, 9.0]
    # r[0] / 0.0 is protected: 1.0, not a non-finite value
    assert checker.eval_listing(listing.replace("after instruction 1", "after instruction 3")
                                .replace("output: r[1]", "output: r[3]"), xs) == [1.0, 1.0]
    assert checker.eval_listing("r[1] = r[0] + r[2];\noutput: r[0] initial value", xs) == xs
    overflow = "r[1] = r[0] * r[0];\n" * 1 + "\n".join(["r[1] = r[1] * r[1];"] * 12) + "\noutput: r[1] after instruction 13"
    assert checker.eval_listing(overflow, [1e30, 2.0]) is None


def test_infix_evaluator_protects_division_and_marks_overflow():
    assert checker.eval_infix("x/(x-x)", [3.0]) == [1.0]
    assert checker.eval_infix("(x*x)*(x*x)", [1e200]) is None
    with pytest.raises(CheckError):
        checker.eval_infix("x**2", [1.0])
