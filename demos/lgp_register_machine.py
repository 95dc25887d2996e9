"""
Tracing a linear register program
=================================

Instructions update a register file in sequence.  The trace records every
destination write, so each instruction offers a candidate solution; the
single-solution reading keeps only the last write to r[0].
"""

import numpy as np

from multigp import lgp
from multigp.core import FitnessCaseSet, RowStore

I = lgp.LgpInstruction

# one input lands in r[0]; the supplementary registers r[1..4] start at 1.0
prog = lgp.LgpProgram((
    I(1, "mul", 0, 0),    # r[1] = x * x
    I(2, "add", 1, 0),    # r[2] = x*x + x
    I(0, "sub", 1, 2.0),  # r[0] = x*x - 2, the last write to r[0]
    I(3, "mul", 2, 1),    # r[3] = (x*x + x) * (x*x)
), num_registers=5, num_inputs=1)
print(lgp.render(prog))
print()

# targets follow x*x + x, which instruction 2 computes exactly
cases = FitnessCaseSet(inputs=np.array([[1.0], [2.0], [3.0]]),
                       targets=np.array([2.0, 6.0, 12.0]))

# the program lowers into a row store, one row per instruction
store = RowStore(cases)
rows = store.table(lgp.execute(prog, cases, store)[0])
for i, ins in enumerate(prog.instructions):
    values = ", ".join(f"{v:g}" for v in rows.values[i])
    print(f"after instruction {i + 1}: r[{ins.dest}] = [{values}]"
          f"  error {rows.errors[i]:g}")

fit, idx = lgp.fitness(prog, cases, "multi")
print(f"\nmulti reading:  instruction {idx + 1} wins with error {fit:g}")

fit, idx = lgp.fitness(prog, cases, "single")
print(f"single reading: last r[0] write is instruction {idx + 1}, "
      f"error {fit:g}")
