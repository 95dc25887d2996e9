"""Independent re-evaluation of evolution-run outputs.

Nothing here imports multigp. The 20 fitness cases of a run are regenerated
from the run seed with a separate splitmix64/xoshiro256** implementation and
the closed-form targets f1..f4, as README.md pins them. The run's reported
``expression`` is then evaluated by a scalar interpreter of its own:

* MEP and IFGP infix strings are parsed with Python's ``ast``;
* LGP listings run on a scalar register machine with the input in ``r[0]``
  and every other register at 1.0, reading the register the listing names.

Division is protected (1.0 when ``|b| < 1e-12``). A candidate is invalid,
and its fitness +inf, when any value it is computed from is not finite.

Both sides perform the same IEEE operations per case, so the predictions
agree exactly; only the order of the 20-term error sum and the last bit of a
target (``x ** k`` through numpy's or libm's ``pow``) may differ. The stated
tolerance covers both: ``|checked - reported| <= REL_TOL * reported +
TARGET_TOL * sum(|target|)``.
"""

from __future__ import annotations

import ast
import math
import re

CASES = 20
INPUT_RANGE = (0.0, 10.0)
DIV_EPSILON = 1e-12
SUCCESS_THRESHOLD = 0.01
REGISTER_INIT = 1.0

#: relative slack for the order of the non-negative error sum
REL_TOL = 1e-9
#: slack per unit of target magnitude for a last-bit difference in a target
TARGET_TOL = 1e-12

_MASK = (1 << 64) - 1

TARGETS = {
    "f1": lambda x: x ** 4 - x ** 3 + x ** 2 - x,
    "f2": lambda x: x ** 4 + x ** 3 + x ** 2 + x,
    "f3": lambda x: x ** 4 + 2 * x ** 3 + 3 * x ** 2 + 4 * x,
    "f4": lambda x: x ** 6 - 2 * x ** 4 + x ** 2,
}


class CheckError(ValueError):
    """A run output that the checker cannot accept."""


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def unit_draws(seed: int, count: int) -> list[float]:
    """The first ``count`` draws in [0, 1) of xoshiro256** seeded via splitmix64."""
    s = seed & _MASK
    state = []
    for _ in range(4):
        s = (s + 0x9E3779B97F4A7C15) & _MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        state.append(z ^ (z >> 31))
    s0, s1, s2, s3 = state
    out = []
    for _ in range(count):
        word = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        out.append((word >> 11) * 2.0 ** -53)
    return out


def fitness_cases(problem: str, seed: int) -> tuple[list[float], list[float]]:
    """Inputs and targets of a run's problem instance, drawn from its seed."""
    if problem not in TARGETS:
        raise CheckError(f"unknown problem {problem!r}")
    lo, hi = INPUT_RANGE
    xs = [lo + (hi - lo) * u for u in unit_draws(seed, CASES)]
    return xs, [TARGETS[problem](x) for x in xs]


def _div(a: float, b: float) -> float:
    return 1.0 if abs(b) < DIV_EPSILON else a / b


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
}
_AST_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _apply(symbol: str, left: list[float], right: list[float]) -> list[float] | None:
    """Elementwise operator over the cases; None once any value is not finite."""
    op = _OPS[symbol]
    values = [op(a, b) for a, b in zip(left, right)]
    return values if all(map(math.isfinite, values)) else None


def _eval_ast(node: ast.AST, xs: list[float]) -> list[float] | None:
    if isinstance(node, ast.Name) and node.id == "x":
        return xs
    if isinstance(node, ast.BinOp) and type(node.op) in _AST_OPS:
        left = _eval_ast(node.left, xs)
        right = _eval_ast(node.right, xs) if left is not None else None
        if right is None:
            return None
        return _apply(_AST_OPS[type(node.op)], left, right)
    raise CheckError(f"unexpected syntax in expression: {ast.dump(node)[:80]}")


def eval_infix(text: str, xs: list[float]) -> list[float] | None:
    """Outputs of an MEP/IFGP infix expression over ``xs``; None if invalid."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise CheckError(f"unparsable expression {text[:80]!r}") from exc
    return _eval_ast(tree.body, xs)


_INSTRUCTION = re.compile(r"r\[(\d+)\] = (\S+) ([-+*/]) (\S+);")
_OUTPUT = re.compile(r"output: r\[(\d+)\] (?:after instruction (\d+)|initial value)")
_REGISTER = re.compile(r"r\[(\d+)\]")


def _operand(text: str):
    m = _REGISTER.fullmatch(text)
    if m:
        return int(m[1])
    try:
        return float(text)
    except ValueError as exc:
        raise CheckError(f"bad operand {text!r}") from exc


def eval_listing(text: str, xs: list[float]) -> list[float] | None:
    """Outputs of an LGP listing plus its ``output:`` line; None if invalid."""
    *body, last = text.splitlines()
    program = []
    for line in body:
        m = _INSTRUCTION.fullmatch(line)
        if m is None:
            raise CheckError(f"bad instruction line {line!r}")
        program.append((int(m[1]), _operand(m[2]), m[3], _operand(m[4])))
    m = _OUTPUT.fullmatch(last)
    if m is None:
        raise CheckError(f"bad output line {last!r}")
    read, upto = int(m[1]), int(m[2] or 0)
    if upto > len(program):
        raise CheckError("output names an instruction past the program's end")
    count = 1 + max([read] + [r for ins in program for r in (ins[0], ins[1], ins[3])
                              if isinstance(r, int)])
    regs = [xs] + [[REGISTER_INIT] * len(xs) for _ in range(count - 1)]
    ok = [True] * count
    for dest, src1, symbol, src2 in program[:upto]:
        a = regs[src1] if isinstance(src1, int) else [src1] * len(xs)
        b = regs[src2] if isinstance(src2, int) else [src2] * len(xs)
        values = [_OPS[symbol](p, q) for p, q in zip(a, b)]
        ok[dest] = (all(map(math.isfinite, values))
                    and (not isinstance(src1, int) or ok[src1])
                    and (not isinstance(src2, int) or ok[src2]))
        regs[dest] = values
    return regs[read] if ok[read] else None


def expression_fitness(technique: str, expression: str, problem: str, seed: int) -> tuple[float, float]:
    """Summed absolute error of a reported expression, and the target scale."""
    xs, targets = fitness_cases(problem, seed)
    evaluate = eval_listing if technique == "lgp" else eval_infix
    outputs = evaluate(expression, xs)
    scale = sum(abs(t) for t in targets)
    if outputs is None:
        return math.inf, scale
    return sum(abs(p - t) for p, t in zip(outputs, targets)), scale


def check_run(technique: str, problem: str, seed: int, expression: str,
              final_fitness: float, success: bool) -> None:
    """Raise CheckError unless the reported fitness and success flag hold."""
    checked, scale = expression_fitness(technique, expression, problem, seed)
    if math.isinf(checked) or math.isinf(final_fitness):
        agree = checked == final_fitness
    else:
        agree = abs(checked - final_fitness) <= REL_TOL * abs(final_fitness) + TARGET_TOL * scale
    if not agree:
        raise CheckError(f"{technique} {problem} seed {seed}: reported fitness "
                         f"{final_fitness!r}, expression gives {checked!r}")
    if success != (final_fitness < SUCCESS_THRESHOLD):
        raise CheckError(f"success flag {success} disagrees with fitness {final_fitness!r}")
