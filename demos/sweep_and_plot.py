"""
A success-rate sweep with CSV and SVG output
============================================

A sweep pairs each multi-solution variant with its single-solution twin
across one parameter, here chromosome length on f1, and reports the
fraction of runs whose best error drops below the success threshold.
"""

from pathlib import Path

from multigp.engine import EvolutionConfig
from multigp.harness import SweepSpec, emit_plot, run_sweep, write_csv

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)

# the config holds every run setting; each point sets the mode and the length
spec = SweepSpec(EvolutionConfig("mep", chromosome_length=4), problem="f1",
                 param="chromosome_length", values=(4, 8, 12), runs=10, base_seed=7)
# run_sweep takes a list of specs; with jobs > 1 it runs all their tasks on one pool
report = run_sweep([spec], jobs=1)
for point in report.points:
    print(f"{point.variant:4s} length {point.value:2d}: "
          f"{point.successes:2d}/{point.runs} -> {point.success_rate:.2f}")

# the CSV round-trips through parse_csv; the SVG is deterministic bytes
csv_path = write_csv(report, out / "sweep-mep-f1.csv")
print(f"\nwrote {csv_path}")
for path in emit_plot(report, out, stem="sweep-mep-f1"):
    print(f"wrote {path}")
