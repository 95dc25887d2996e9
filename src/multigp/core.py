"""Shared vocabulary for the GP encodings: primitive operators with protected
semantics, regression test problems, the row evaluator every encoding lowers
its chromosome to, and the deterministic random source every stochastic
operation draws from.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

OPERATORS = ("add", "sub", "mul", "div")

OP_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
SYMBOL_OPS = {s: op for op, s in OP_SYMBOLS.items()}

#: fitness readings: every candidate a chromosome encodes, or one fixed locus
MODES = ("multi", "single")

#: denominators below this magnitude make division return 1.0 instead
DIV_EPSILON = 1e-12

_ops_applied = 0


def ops_applied() -> int:
    """Total primitive applications (one per case per operator) since the last reset."""
    return _ops_applied


def reset_ops() -> None:
    global _ops_applied
    _ops_applied = 0


def protected_apply(op: str, a: float, b: float) -> float:
    """Apply one binary operator to scalars.

    add/sub/mul are plain IEEE double operations; div returns a/b unless
    ``|b| < DIV_EPSILON``, in which case it returns 1.0.  Non-finite results
    (overflow) propagate to the caller, which is expected to mark the
    surrounding value vector invalid.
    """
    global _ops_applied
    _ops_applied += 1
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return 1.0 if abs(b) < DIV_EPSILON else a / b
    raise ValueError(f"unknown operator {op!r}")


def vector_apply(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise :func:`protected_apply` over aligned case vectors."""
    global _ops_applied
    _ops_applied += a.size
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        small = np.abs(b) < DIV_EPSILON
        if small.any():
            return np.where(small, 1.0, a / np.where(small, 1.0, b))
        return a / b
    raise ValueError(f"unknown operator {op!r}")


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown fitness mode {mode!r} (expected one of {MODES})")


@dataclass
class RowTable:
    """Outputs of a straight-line program over all fitness cases.

    Row i holds one leaf or one operation.  ``valid[i]`` is False when a
    non-finite value appeared in an operation row or in any operation row it
    was built from; leaf rows (inputs, constants) are always valid.
    ``errors[i]`` is the row's sum of absolute errors, +inf where invalid.
    """

    values: np.ndarray  # (R, n)
    valid: np.ndarray   # (R,) bool
    errors: np.ndarray  # (R,)

    def best(self, start: int = 0) -> tuple[float, int]:
        """Lowest error among rows ``start..`` and its row; ties go to the lowest row."""
        idx = start + int(np.argmin(self.errors[start:]))
        return float(self.errors[idx]), idx


def evaluate_rows(rows, leaves, cases: "FitnessCaseSet") -> RowTable:
    """Run post-order rows ``(op, a, b)`` once over all cases.

    A leaf row (``op is None``) copies ``leaves[a]``; an operation row applies
    ``op`` to the earlier rows ``a`` and ``b``.  Invalidity propagates from a
    row to every row built on top of it.
    """
    values = np.empty((len(rows), cases.n))
    with np.errstate(all="ignore"):
        for i, (op, a, b) in enumerate(rows):
            values[i] = leaves[a] if op is None else vector_apply(op, values[a], values[b])
        errors = np.abs(values - cases.targets).sum(axis=1)
    # a non-finite value makes its row's error non-finite, so finite errors
    # clear the whole table at once
    valid = np.isfinite(errors)
    if not valid.all():
        valid = np.isfinite(values).all(axis=1)
        ok = valid.tolist()
        for i, (op, a, b) in enumerate(rows):
            if op is None:
                ok[i] = True
            elif not (ok[a] and ok[b]):
                ok[i] = False
        valid = np.array(ok)
        errors[~valid] = np.inf
    return RowTable(values, valid, errors)


@dataclass(frozen=True)
class PrimitiveSet:
    """Ordered function and terminal identifiers available to an encoding."""

    terminals: tuple[str, ...]
    functions: tuple[str, ...] = OPERATORS

    def __post_init__(self):
        if not self.terminals:
            raise ValueError("terminal set must be non-empty")
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminal identifiers must be unique")
        for op in self.functions:
            if op not in OPERATORS:
                raise ValueError(f"unsupported function identifier {op!r}")

    @classmethod
    def for_inputs(cls, num_inputs: int) -> "PrimitiveSet":
        """Terminal per problem input: ``x`` for one input, else ``x1..xk``."""
        if num_inputs < 1:
            raise ValueError("need at least one input")
        if num_inputs == 1:
            return cls(terminals=("x",))
        return cls(terminals=tuple(f"x{i + 1}" for i in range(num_inputs)))

    @property
    def num_symbols(self) -> int:
        """Terminals + functions + the two parentheses (IFGP gene range)."""
        return len(self.terminals) + len(self.functions) + 2


@dataclass
class FitnessCaseSet:
    """A regression problem instance: ``n`` input vectors and their targets."""

    inputs: np.ndarray   # shape (n, num_inputs)
    targets: np.ndarray  # shape (n,)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim == 1:
            self.inputs = self.inputs.reshape(-1, 1)
        if self.inputs.ndim != 2 or self.targets.ndim != 1:
            raise ValueError("inputs must be (n, k), targets must be (n,)")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on case count")
        if self.inputs.shape[0] < 1:
            raise ValueError("need at least one fitness case")
        if not np.isfinite(self.inputs).all() or not np.isfinite(self.targets).all():
            raise ValueError("fitness cases must be finite")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.inputs.shape[1]


# Closed forms of the four benchmark polynomials, defined on [0, 10].
def _f1(x):
    return x ** 4 - x ** 3 + x ** 2 - x


def _f2(x):
    return x ** 4 + x ** 3 + x ** 2 + x


def _f3(x):
    return x ** 4 + 2 * x ** 3 + 3 * x ** 2 + 4 * x


def _f4(x):
    return x ** 6 - 2 * x ** 4 + x ** 2


TARGET_FUNCTIONS = {"f1": _f1, "f2": _f2, "f3": _f3, "f4": _f4}

PROBLEM_IDS = tuple(TARGET_FUNCTIONS)

#: number of fitness cases in every benchmark instance
CASES_PER_PROBLEM = 20

INPUT_RANGE = (0.0, 10.0)


def make_problem(problem_id: str, rng: "RandomSource") -> FitnessCaseSet:
    """Draw a 20-case instance of f1..f4 with inputs uniform on [0, 10]."""
    key = problem_id.lower()
    if key not in TARGET_FUNCTIONS:
        raise ValueError(f"unknown problem id {problem_id!r} (expected one of {PROBLEM_IDS})")
    lo, hi = INPUT_RANGE
    xs = np.array([rng.uniform(lo, hi) for _ in range(CASES_PER_PROBLEM)])
    return FitnessCaseSet(inputs=xs.reshape(-1, 1), targets=TARGET_FUNCTIONS[key](xs))


def best_of(fitnesses) -> tuple[int, float]:
    """Index and value of the minimum fitness; ties break to the lowest index."""
    fitnesses = list(fitnesses)
    if not fitnesses:
        raise ValueError("empty fitness list")
    idx = min(range(len(fitnesses)), key=fitnesses.__getitem__)
    return idx, fitnesses[idx]


_MASK64 = (1 << 64) - 1


class RandomSource:
    """Deterministic xoshiro256** generator, state seeded through splitmix64.

    The draw sequence depends only on the 64-bit seed, so runs replay
    identically on any platform.  Derived draws are defined as:

    * ``random()``   -- top 53 bits of the next word, scaled to [0, 1)
    * ``randint(n)`` -- next word modulo ``n``
    * ``uniform(lo, hi)`` -- ``lo + (hi - lo) * random()``
    """

    __slots__ = ("seed", "_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        self.seed = seed
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._s0, self._s1, self._s2, self._s3 = state

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        return (self.next_uint64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n).  Modulo bias is < 2**-32 for any n here."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_uint64() % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def coin(self) -> bool:
        return self.random() < 0.5

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order (rejection sampling)."""
        if k > n:
            raise ValueError("cannot sample more distinct values than the range holds")
        out: list[int] = []
        while len(out) < k:
            v = self.randint(n)
            if v not in out:
                out.append(v)
        return out


def write_cases_csv(cases: FitnessCaseSet, path) -> None:
    """Persist a univariate case set as ``x,target`` rows, 17 significant digits."""
    if cases.num_inputs != 1:
        raise ValueError("CSV datasets are univariate")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "target"])
        for x, t in zip(cases.inputs[:, 0], cases.targets):
            writer.writerow([f"{x:.17g}", f"{t:.17g}"])


def read_cases_csv(path) -> FitnessCaseSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "target"]:
            raise ValueError(f"expected header 'x,target', got {header!r}")
        rows = [(float(x), float(t)) for x, t in reader]
    if not rows:
        raise ValueError("dataset file holds no cases")
    xs = np.array([r[0] for r in rows]).reshape(-1, 1)
    ts = np.array([r[1] for r in rows])
    return FitnessCaseSet(inputs=xs, targets=ts)
