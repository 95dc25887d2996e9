"""Shared vocabulary for the GP encodings: primitive operators with protected
semantics, regression test problems, the row store every encoding lowers its
chromosome into to evaluate it, and the deterministic random source every
stochastic operation draws from.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from functools import cache, cached_property

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


def vector_apply(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply one binary operator elementwise over aligned case vectors.

    add/sub/mul are plain IEEE double operations; div returns a/b unless
    ``|b| < DIV_EPSILON``, in which case it returns 1.0.  Non-finite results
    (overflow) propagate to the caller, which is expected to mark the
    surrounding row invalid.
    """
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


def check_settings(settings, *counts: str) -> None:
    """Range checks shared by the run, sweep and command-line settings: each
    named count is positive, the crossover probability lies in [0, 1] and the
    mutation count is not negative."""
    for name in counts:
        if getattr(settings, name) < 1:
            raise ValueError(f"{name} must be positive")
    if not 0.0 <= settings.crossover_probability <= 1.0:
        raise ValueError("crossover probability must lie in [0, 1]")
    if settings.mutations < 0:
        raise ValueError("mutation count cannot be negative")


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


def best(errors: list[float], start: int = 0) -> tuple[float, int]:
    """Lowest error among rows ``start..`` and its row; ties go to the lowest row."""
    # invalid rows hold +inf, and only a leaf holding NaN (no encoding
    # passes one) gives a NaN error, so min and the first index of it
    # pick the row argmin would
    errs = errors[start:] if start else errors
    low = min(errs)
    return low, start + errs.index(low)


def recombine(genes1, genes2, takes) -> tuple[tuple, tuple]:
    """Uniform recombination in one pass: slot i of the first offspring comes
    from ``genes1`` where ``takes`` gives True at i, else from ``genes2``, and
    the second offspring gets the other gene.  ``takes`` is read once a slot
    exists, so an endless coin stream gives exactly one coin per slot."""
    o1, o2 = [], []
    for a, b, take in zip(genes1, genes2, takes):
        if take:
            o1.append(a)
            o2.append(b)
        else:
            o1.append(b)
            o2.append(a)
    return tuple(o1), tuple(o2)


def _protected_divide(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    out[...] = vector_apply("div", a, b)


#: each operator as a ufunc called (a, b, out); the plain one divides by anything
_PLAIN = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}
_PROTECTED = {**_PLAIN, "div": _protected_divide}


def _run_rows(rows, leaves, buf, views, ufuncs, start) -> list[int]:
    """Write every row into ``buf`` from row ``start`` on; return the divisor rows."""
    divisors = []
    for i, (op, a, b) in enumerate(rows, start):
        if op is None:
            buf[i] = leaves[a]
        else:
            if op == "div":
                divisors.append(b)
            ufuncs[op](views[a], views[b], views[i])
    return divisors


def _evaluate_block(rows, leaves, buf, views, start, valid, targets) -> list[float]:
    """Compute ``rows`` into ``buf`` from row ``start`` on, over rows
    ``0..start-1`` already there and exact; return the block's errors.

    ``valid`` holds the validity of the rows before ``start``; the block's
    validity is appended to it.  Invalidity propagates from a row to every row
    built on top of it, and an invalid row's error is +inf.
    """
    with np.errstate(all="ignore"):
        divisors = _run_rows(rows, leaves, buf, views, _PLAIN, start)
        # rows are written once, so at the first division whose divisor is
        # small every earlier row is exact and this check sees that divisor.
        # fmin skips NaN; a plain min would let one NaN divisor hide a zero.
        if divisors and np.fmin.reduce(np.abs(buf.take(divisors, 0)), None) < DIV_EPSILON:
            _run_rows(rows, leaves, buf, views, _PROTECTED, start)
        block = buf[start:start + len(rows)]
        errors = np.add.reduce(np.abs(block - targets), 1).tolist()
    # a non-finite value makes its row's error, and so the sum, non-finite:
    # a finite sum clears the whole block at once
    finite = None if sum(errors) < np.inf else np.isfinite(block).all(axis=1).tolist()
    for j, (op, a, b) in enumerate(rows):
        ok = op is None or (valid[a] and valid[b] and (finite is None or finite[j]))
        valid.append(ok)
        if not ok:
            errors[j] = np.inf
    return errors


#: bytes of row values a RowStore holds before it starts over
ROW_STORE_BYTES = 320 * 1024

_bits = struct.Struct("<d").pack


class RowStore:
    """The rows of one run over one case set, each distinct row computed once.

    Every fitness call goes through a store; one called without a store opens
    a fresh store of budget 0, which holds just that call.  Case input k is
    always row k.  Every other row is hash-consed to an id in ``ids``: a
    scalar leaf by its bits (so 0.0 and -0.0 differ, and no NaN must equal
    itself) and an operation row by ``(op, id_a, id_b)``.  A row's value
    depends only on its structure, so every store gives it the same bits.
    The new rows of a call are computed as one block: plain ufuncs, one
    deferred divisor check, a protected recompute of the block (every older
    row is already exact) and one error reduction over it.

    A call makes room with :meth:`reserve`, interns its scalar leaves with
    :meth:`scalar` and its operation rows into ``ids`` itself, and ends with
    :meth:`commit`, the one place that counts operations: every operation
    row of every call, the cost the encodings are compared by.
    ``computed_rows`` counts the operation rows actually computed.  Once the
    next call might not fit in ``budget`` bytes of values besides the
    inputs, the store forgets every other row, which cannot change a result.
    """

    def __init__(self, cases: "FitnessCaseSet", budget: int = ROW_STORE_BYTES):
        self._inputs = cases.num_inputs
        self._input_ids = range(self._inputs)  # indexing it rejects a missing input
        self._room = budget // (8 * cases.n)
        self._targets = cases.targets
        self._n = cases.n
        # the first call allocates the buffer the input rows are copied into
        self._buf, errors = cases._input_rows
        self._errors = errors.copy()
        self._valid = [True] * self._inputs
        self._views: list[np.ndarray] = []
        self.ids: dict = {}
        self.computed_rows = 0

    def _clear(self, count: int) -> None:
        """Forget every row but the inputs, with room for at least ``count`` more."""
        inputs = self._inputs
        self.ids.clear()
        del self._errors[inputs:], self._valid[inputs:]
        if inputs + count > len(self._views):
            buf = np.empty((inputs + max(count, self._room), self._n))
            buf[:inputs] = self._buf[:inputs]
            self._buf, self._views = buf, list(buf)

    def reserve(self, count: int) -> int:
        """Make room for ``count`` new rows; return the id the first one gets."""
        if len(self._errors) + count > len(self._views):
            self._clear(count)
        return len(self._errors)

    def scalar(self, value: float, start: int, new: list, fresh: list) -> int:
        """Id of the scalar leaf ``value``, queued in ``new`` and ``fresh`` if
        the store lacks it."""
        key = _bits(value)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = start + len(new)
            new.append((None, len(fresh), 0))
            fresh.append(value)
        return i

    def commit(self, start: int, new: list, fresh: list, op_rows: int) -> list[float]:
        """Count a call's ``op_rows`` operation rows and compute its ``new``
        rows, ids ``start..``; return every row's error, by id."""
        global _ops_applied
        _ops_applied += op_rows * self._n
        if new:
            self._errors += _evaluate_block(new, fresh, self._buf, self._views, start,
                                            self._valid, self._targets)
            self.computed_rows += len(new) - len(fresh)  # a scalar leaf is no operation
        return self._errors

    def intern(self, rows) -> list[int]:
        """Ids of the post-order rows ``(op, a, b)``, the new ones computed; a
        leaf row ``(None, k, 0)`` is case input k."""
        start = self.reserve(len(rows))
        ids, input_ids = self.ids, self._input_ids
        new: list[tuple] = []
        local: list[int] = []
        leaf_rows = 0
        for op, a, b in rows:
            if op is None:
                leaf_rows += 1
                i = input_ids[a]
            else:
                key = (op, local[a], local[b])
                i = ids.get(key)
                if i is None:
                    i = ids[key] = start + len(new)
                    new.append(key)
            local.append(i)
        self.commit(start, new, (), len(rows) - leaf_rows)
        return local

    def errors(self, rows) -> list[float]:
        """Error of each of the post-order rows, as a list."""
        ids = self.intern(rows)
        errors = self._errors
        return [errors[i] for i in ids]

    def table(self, ids: list[int]) -> RowTable:
        """The rows ``ids``, copied out of the store."""
        errors = np.array([self._errors[i] for i in ids])
        valid = np.array([self._valid[i] for i in ids], dtype=bool)
        return RowTable(self._buf.take(ids, 0), valid, errors)


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

    @cached_property
    def _input_rows(self) -> tuple[np.ndarray, list[float]]:
        """The inputs as C-contiguous rows, and each row's error reduced as a
        block's are: the first rows of every row store over the set."""
        rows = self.inputs.T.copy()
        rows.flags.writeable = False
        with np.errstate(all="ignore"):
            return rows, np.add.reduce(np.abs(rows - self.targets), 1).tolist()


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


_MASK64 = (1 << 64) - 1

#: words produced per refill of a RandomSource's buffer
BLOCK_WORDS = 256


@cache
def _xoshiro_tables() -> tuple[np.ndarray, np.ndarray]:
    """Run xoshiro256**'s linear state update from the 256 unit states at once.

    Returns the (256, BLOCK_WORDS) table of ``s1`` at steps
    0..BLOCK_WORDS-1 and the (256, 4) state BLOCK_WORDS steps on, row i
    starting from state bit i alone (bit ``64 * w + j`` is bit j of word w).
    The update is linear over GF(2), so from any state both are the XOR of
    the rows of its set bits (Blackman & Vigna 2021; Haramoto et al. 2008).
    """
    unit = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    s = np.zeros((4, 256), dtype=np.uint64)
    for w in range(4):
        s[w, 64 * w:64 * (w + 1)] = unit
    s0, s1, s2, s3 = s
    table = np.empty((256, BLOCK_WORDS), dtype=np.uint64)
    for k in range(BLOCK_WORDS):
        table[:, k] = s1
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
    jump = np.ascontiguousarray(s.T)
    table.flags.writeable = jump.flags.writeable = False
    return table, jump


class RandomSource:
    """Deterministic xoshiro256** generator, state seeded through splitmix64.

    The draw sequence depends only on the 64-bit seed, so runs replay
    identically on any platform.  Words are produced ``BLOCK_WORDS`` at a time
    from precomputed GF(2) tables, the same words in the same order as the
    generator stepped one word at a time.  Every derived draw takes exactly
    one word through :meth:`next_uint64`:

    * ``random()``   -- top 53 bits of the next word, scaled to [0, 1)
    * ``randint(n)`` -- next word modulo ``n``
    * ``uniform(lo, hi)`` -- ``lo + (hi - lo) * random()``
    * ``coin()``     -- next word below 2**63, which is ``random() < 0.5``
    """

    __slots__ = ("seed", "_state", "_words")

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
        self._state = np.array(state, dtype=np.uint64)
        self._words: list[int] = []

    def _refill(self) -> None:
        table, jump = _xoshiro_tables()
        bits = np.flatnonzero(np.unpackbits(
            self._state.astype("<u8", copy=False).view(np.uint8), bitorder="little"))
        x = np.bitwise_xor.reduce(table[bits], axis=0) * np.uint64(5)
        x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
        self._state = np.bitwise_xor.reduce(jump[bits], axis=0)
        self._words = x[::-1].tolist()

    def next_uint64(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._refill()
            return self._words.pop()

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
        return self.next_uint64() < 0x8000000000000000

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


def read_cases_csv(path) -> FitnessCaseSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "target"]:
            raise ValueError(f"{path}: expected header 'x,target', got {header!r}")
        rows = []
        for row in reader:
            try:
                x, t = row
                rows.append((float(x), float(t)))
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: expected 'x,target' "
                                 f"as two numbers, got {row!r}") from None
    if not rows:
        raise ValueError(f"{path}: dataset file holds no cases")
    xs = np.array([r[0] for r in rows]).reshape(-1, 1)
    ts = np.array([r[1] for r in rows])
    return FitnessCaseSet(inputs=xs, targets=ts)
