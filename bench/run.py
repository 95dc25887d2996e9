"""Benchmark entry point: one workload, one seed, a fixed time budget.

    python3 bench/run.py --workload preset --seed 1 --seconds 20 --trace 0

Prints progress and failures on stderr and, as the last line of stdout, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Puts ``src`` on the import path itself; nothing is installed.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age():
    """Seconds since this process started (clock-tick resolution), or None."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return age if 0.0 <= age < 60.0 else None


#: process start on the perf_counter clock
STARTED = _T0 - (_process_age() or 0.0)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("preset", "short-pop100", "paper-jobs2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _timed_rounds(workload, seed, seconds, out_dir, gauge, tracer=None):
    """Run whole rounds until ``seconds`` pass; returns (plain phase, traced phase).

    With a tracer every round runs twice on the same seeds, once traced and
    once not, in alternating order, so the two phases measure equal work.
    """
    from workloads import Phase

    plain, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    round_index = 0
    while True:
        passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        for phase, active in passes[:: 1 if round_index % 2 == 0 else -1]:
            target = out_dir / ("traced" if active else "plain")
            with active.installed() if active else nullcontext():
                phase.execute(workload.units(seed, round_index, target), gauge)
        round_index += 1
        if time.perf_counter() >= deadline:
            return plain, traced


def _throughput(phase) -> dict:
    """Runs per second of unit time at the reference machine speed."""
    from workloads import TECHNIQUES

    metrics = {"runs_per_s": (phase.rate(TECHNIQUES), "runs/s")}
    for tech in TECHNIQUES:
        metrics[f"runs_per_s.{tech}"] = (phase.rate((tech,)), "runs/s")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import multigp.cli  # noqa: F401  (the package imports numpy and every module)
    except ImportError as exc:
        print(f"error: cannot import multigp from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    import tracing
    import workloads
    from multigp import harness
    from checker import CheckError
    from reference import NOMINAL_S, Gauge

    workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    problems = []
    try:
        workloads.check_problem_draws(workloads.run_seed(args.seed, 0))
    except CheckError as exc:
        problems.append(str(exc))

    tracer = tracing.Tracer() if args.trace else None
    setup_s = time.perf_counter() - STARTED
    with Gauge(workload.jobs, workload.reference_passes) as gauge:
        plain, traced = _timed_rounds(workload, args.seed, args.seconds, out_dir, gauge, tracer)
        peak_rss_mb = _peak_rss_mb()

    phases = [plain, traced] if tracer else [plain]
    attempted = failed = 0
    for phase in phases:
        f, messages, found = workload.check(phase.done)
        attempted += phase.attempted
        failed += f
        problems += found
        for message in messages:
            print(f"failed: {message}", file=sys.stderr)
    if tracer and not all(map(workload.same_outputs, plain.done, traced.done)):
        problems.append("traced and untraced passes over the same seeds gave different outputs")
    if multiprocessing.active_children():
        problems.append("worker processes outlived the workload")

    if tracer:
        emit_batches = sum(u.paper is not None for u, _ in traced.done)
        if not emit_batches:
            with tracer.installed():
                report = workload.report(traced.done)
                harness.write_csv(report, out_dir / "report.csv")
                harness.write_run_log(report, out_dir / "report-runs.jsonl")
                harness.emit_plot(report, out_dir, stem="report")
            emit_batches = 1
        layers, mismatches = tracing.layer_metrics(tracer.spans, workload.jobs, traced.wall, emit_batches)
        problems += mismatches[:5]
        layers["harness.task_bytes"] = (len(pickle.dumps(workload.first_task(args.seed))), "bytes")
        layers["cli.import_s"] = (import_s, "s")
        layers["trace.runs_per_s"] = _throughput(traced)["runs_per_s"]
        layers["trace.overhead_pct"] = (100.0 * (traced.wall / plain.wall - 1.0), "%")
        layers["machine.reference_ms"] = (1e3 * statistics.median(plain.references + traced.references), "ms")
        metrics = layers
        tracer.write(out_dir / "spans.jsonl.gz")
    else:
        metrics = {"setup_s": (setup_s, "s"), **_throughput(plain), "peak_rss_mb": (peak_rss_mb, "MB")}

    print(f"{args.workload}: {plain.attempted} runs in {plain.wall:.2f} s of unit time "
          f"({plain.attempted / plain.wall:.4g} runs/s as measured); reference loop median "
          f"{1e3 * statistics.median(plain.references):.2f} ms against {1e3 * NOMINAL_S:.2f} ms nominal",
          file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
