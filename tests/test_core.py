import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigp import core
from multigp.core import (
    CASES_PER_PROBLEM,
    DIV_EPSILON,
    INPUT_RANGE,
    OPERATORS,
    ROW_STORE_BYTES,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    RowStore,
    best,
    make_problem,
    ops_applied,
    read_cases_csv,
    reset_ops,
    vector_apply,
)

from conftest import evaluate_rows, make_cases, operations, write_cases_csv

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


# --- protected operators ---

def _protected_scalar(op, a, b):
    """The operator rule written out for Python floats, as an oracle."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return 1.0 if abs(b) < DIV_EPSILON else a / b


def _apply(op, a, b):
    return float(vector_apply(op, np.array([a]), np.array([b]))[0])


def test_vector_apply_basic_arithmetic():
    assert _apply("add", 2.0, 3.0) == 5.0
    assert _apply("sub", 2.0, 3.0) == -1.0
    assert _apply("mul", 2.0, 3.0) == 6.0
    assert _apply("div", 6.0, 3.0) == 2.0


def test_protected_division_guards_small_denominators():
    assert _apply("div", 5.0, 0.0) == 1.0
    assert _apply("div", 5.0, 1e-13) == 1.0
    assert _apply("div", 5.0, -1e-13) == 1.0
    # just outside the guard band division is ordinary
    assert _apply("div", 5.0, 2e-12) == 5.0 / 2e-12
    assert _apply("div", 0.0, 3.0) == 0.0


def test_division_guard_boundary_is_strict():
    assert _apply("div", 1.0, DIV_EPSILON) == 1.0 / DIV_EPSILON
    assert _apply("div", 1.0, math.nextafter(DIV_EPSILON, 0.0)) == 1.0


def test_vector_apply_rejects_unknown_operator():
    with pytest.raises(ValueError):
        vector_apply("pow", np.ones(3), np.ones(3))


@given(
    op=st.sampled_from(OPERATORS),
    pairs=st.lists(st.tuples(finite_doubles, finite_doubles), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_vector_apply_matches_scalar_apply_exactly(op, pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    with np.errstate(all="ignore"):
        vec = vector_apply(op, a, b)
    for i, (x, y) in enumerate(pairs):
        expected = _protected_scalar(op, x, y)
        if math.isnan(expected):
            assert math.isnan(vec[i])
        else:
            assert vec[i] == expected


def test_operation_counter_counts_per_case():
    cases = make_cases([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [0.0] * 7)
    # row 2 divides by the zero row 1, so the protected rule runs as well
    rows = [(None, 0, 0), ("sub", 0, 0), ("div", 0, 1), (None, 0, 0)]
    store = RowStore(cases)
    reset_ops()
    store.errors(rows)
    assert ops_applied() == 14
    store.errors(rows[:1])
    assert ops_applied() == 14
    # a row the store already holds is counted again
    store.errors(rows)
    assert ops_applied() == 28
    reset_ops()
    assert ops_applied() == 0


# --- primitive sets ---

def test_primitive_set_for_single_input():
    prims = PrimitiveSet.for_inputs(1)
    assert prims.terminals == ("x",)
    assert prims.functions == OPERATORS
    assert prims.num_symbols == 1 + 4 + 2


def test_primitive_set_for_multiple_inputs():
    prims = PrimitiveSet.for_inputs(3)
    assert prims.terminals == ("x1", "x2", "x3")
    assert prims.num_symbols == 9


def test_primitive_set_rejects_bad_configurations():
    with pytest.raises(ValueError):
        PrimitiveSet(terminals=())
    with pytest.raises(ValueError):
        PrimitiveSet(terminals=("a", "a"))
    with pytest.raises(ValueError):
        PrimitiveSet(terminals=("a",), functions=("pow",))
    with pytest.raises(ValueError):
        PrimitiveSet.for_inputs(0)


# --- fitness cases ---

def test_case_set_reshapes_univariate_input():
    cases = FitnessCaseSet(inputs=np.array([1.0, 2.0]), targets=np.array([3.0, 4.0]))
    assert cases.inputs.shape == (2, 1)
    assert cases.n == 2
    assert cases.num_inputs == 1


def test_case_set_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        FitnessCaseSet(inputs=np.ones((3, 1)), targets=np.ones(2))
    with pytest.raises(ValueError):
        FitnessCaseSet(inputs=np.empty((0, 1)), targets=np.empty(0))
    with pytest.raises(ValueError):
        FitnessCaseSet(inputs=np.array([[np.inf]]), targets=np.array([1.0]))
    with pytest.raises(ValueError):
        FitnessCaseSet(inputs=np.array([[1.0]]), targets=np.array([np.nan]))


def test_benchmark_polynomials_at_known_points():
    f = core.TARGET_FUNCTIONS
    assert f["f1"](2.0) == 2 ** 4 - 2 ** 3 + 2 ** 2 - 2
    assert f["f2"](2.0) == 2 ** 4 + 2 ** 3 + 2 ** 2 + 2
    assert f["f3"](2.0) == 2 ** 4 + 2 * 2 ** 3 + 3 * 2 ** 2 + 4 * 2
    assert f["f4"](3.0) == 3 ** 6 - 2 * 3 ** 4 + 3 ** 2
    for key in ("f1", "f2", "f3", "f4"):
        assert f[key](0.0) == 0.0


def test_make_problem_draws_cases_in_range():
    cases = make_problem("f2", RandomSource(5))
    assert cases.n == CASES_PER_PROBLEM
    lo, hi = INPUT_RANGE
    assert ((cases.inputs >= lo) & (cases.inputs < hi)).all()
    xs = cases.inputs[:, 0]
    assert np.array_equal(cases.targets, core.TARGET_FUNCTIONS["f2"](xs))


def test_make_problem_is_seed_deterministic():
    a = make_problem("f3", RandomSource(9))
    b = make_problem("f3", RandomSource(9))
    c = make_problem("f3", RandomSource(10))
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.inputs, c.inputs)


def test_make_problem_rejects_unknown_id():
    with pytest.raises(ValueError):
        make_problem("f9", RandomSource(1))


def _tables(rows, cases):
    """The rows over the case inputs from the ``evaluate_rows`` oracle, and
    copied out of a fresh store as a store-free ``mep.decode`` copies them."""
    store = RowStore(cases, 0)
    return [evaluate_rows(rows, cases.inputs.T, cases), store.table(store.intern(rows))]


def test_evaluate_rows_by_hand():
    cases = make_cases([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    rows = [(None, 0, 0), ("mul", 0, 0), ("sub", 1, 0)]
    for table in _tables(rows, cases):
        assert table.values.tolist() == [[1.0, 2.0, 3.0], [1.0, 4.0, 9.0], [0.0, 2.0, 6.0]]
        assert table.valid.tolist() == [True, True, True]
        # |1-2| + |2-2| + |3-2|, |1-2| + |4-2| + |9-2|, |0-2| + |2-2| + |6-2|
        assert table.errors.tolist() == [2.0, 10.0, 6.0]
        assert best(table.errors.tolist()) == (2.0, 0)
        assert best(table.errors.tolist(), 1) == (6.0, 2)


def test_evaluate_rows_taints_every_row_built_on_an_invalid_one():
    cases = make_cases([1e308], [0.0])
    # row 1 overflows; rows 2 (x / inf = 0) and 3 (0 - x) are finite but
    # built on row 1
    rows = [(None, 0, 0), ("mul", 0, 0), ("div", 0, 1), ("sub", 2, 0)]
    for table in _tables(rows, cases):
        assert table.valid.tolist() == [True, False, False, False]
        assert table.values[2, 0] == 0.0 and table.values[3, 0] == -1e308
        assert table.errors[0] == 1e308
        assert all(math.isinf(e) for e in table.errors[1:])


def test_evaluate_rows_validity_follows_values_not_an_overflowing_error():
    cases = make_cases([1e308], [-1e308])
    for table in _tables([(None, 0, 0)], cases):
        assert table.valid.tolist() == [True]
        assert math.isinf(table.errors[0])


def _reference_rows(rows, leaves, cases):
    """The row evaluator one row at a time through ``vector_apply``, as an
    oracle: (values, valid, errors, applied operations)."""
    values = np.empty((len(rows), cases.n))
    with np.errstate(all="ignore"):
        for i, (op, a, b) in enumerate(rows):
            values[i] = leaves[a] if op is None else vector_apply(op, values[a], values[b])
        errors = np.abs(values - cases.targets).sum(axis=1)
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
    return values, valid, errors


def _reference_best(errors, start=0):
    idx = start + int(np.argmin(errors[start:]))
    return float(errors[idx]), idx


def _assert_matches_reference(rows, leaves, cases):
    values, valid, errors = _reference_rows(rows, leaves, cases)
    table = evaluate_rows(rows, leaves, cases)
    assert table.values.tobytes() == values.tobytes()
    assert table.valid.dtype == valid.dtype and table.valid.tobytes() == valid.tobytes()
    assert table.errors.tobytes() == errors.tobytes()
    # only a leaf row holding NaN has a NaN error (leaf rows are never
    # tainted); no encoding passes such a leaf, and best() assumes none
    nan_rows = np.flatnonzero(np.isnan(errors)).tolist()
    assert all(rows[i][0] is None for i in nan_rows)
    for start in range(max(nan_rows, default=-1) + 1, len(rows)):
        assert best(table.errors.tolist(), start) == _reference_best(errors, start)
    return table


_EDGE_VALUES = [0.0, -0.0, 1e-13, -1e-13, DIV_EPSILON, -DIV_EPSILON,
                math.nextafter(DIV_EPSILON, 0.0), -math.nextafter(DIV_EPSILON, 0.0),
                math.nextafter(DIV_EPSILON, 1.0), math.nan, math.inf, -math.inf,
                1e300, -1e300, 1.0, -2.0, 3.5]
_LEAF_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))


@st.composite
def _row_programs(draw):
    """Post-order rows over a random case count and leaf set: vector leaves
    (as MEP and IFGP pass) and scalar leaves (as LGP's register initial values
    and constants are)."""
    n = draw(st.sampled_from([1, 2, 3, 5, CASES_PER_PROBLEM]))
    targets = draw(st.lists(finite_doubles, min_size=n, max_size=n))
    leaves = draw(st.lists(
        st.one_of(_LEAF_VALUES, st.lists(_LEAF_VALUES, min_size=n, max_size=n).map(np.array)),
        min_size=1, max_size=4))
    rows = [(None, draw(st.integers(0, len(leaves) - 1)), 0)]
    for i in range(1, draw(st.integers(1, 40))):
        if draw(st.integers(0, 3)) == 0:
            rows.append((None, draw(st.integers(0, len(leaves) - 1)), 0))
        else:
            rows.append((draw(st.sampled_from(OPERATORS)),
                         draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))))
    return rows, leaves, make_cases([0.0] * n, targets)


@given(_row_programs())
@settings(max_examples=500, deadline=None)
def test_evaluate_rows_matches_the_row_at_a_time_reference(program):
    _assert_matches_reference(*program)


def test_evaluate_rows_sees_a_zero_divisor_beside_a_nan_divisor():
    # row 2 is NaN (inf - inf) and row 3 exactly 0: a min over both divisors
    # is NaN and would hide the zero, leaving 1 / 0 = inf in row 5
    cases = make_cases([1.0, 2.0], [0.0, 0.0])
    leaves = [np.array([1.0, 2.0]), math.inf]
    rows = [(None, 0, 0), (None, 1, 0), ("sub", 1, 1), ("sub", 0, 0), ("div", 0, 2), ("div", 0, 3)]
    table = _assert_matches_reference(rows, leaves, cases)
    assert table.values[5].tolist() == [1.0, 1.0]
    assert table.valid.tolist() == [True, True, False, True, False, True]


def test_consecutive_tables_keep_their_own_values():
    cases = make_cases([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    # a store of no budget starts over on every call, so it overwrites the
    # rows the first table was copied from
    store = RowStore(cases, 0)
    first_rows = [(None, 0, 0), ("mul", 0, 0)]
    second_rows = [(None, 0, 0), ("add", 0, 0), ("add", 1, 1)]
    for tables in [lambda rows: evaluate_rows(rows, cases.inputs.T, cases),
                   lambda rows: store.table(store.intern(rows))]:
        first = tables(first_rows)
        kept = first.values.copy()
        second = tables(second_rows)
        assert first.values.tobytes() == kept.tobytes()
        assert second.values.tolist() == [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [4.0, 8.0, 12.0]]
        assert not np.shares_memory(first.values, second.values)


# --- the run-scoped row store ---

_STORE_SCALARS = [0.0, -0.0, DIV_EPSILON, -DIV_EPSILON,
                  math.nextafter(DIV_EPSILON, 0.0), -math.nextafter(DIV_EPSILON, 0.0),
                  math.nextafter(DIV_EPSILON, 1.0), -math.nextafter(DIV_EPSILON, 1.0),
                  1e300, -1e300]


def _store_errors(store, rows, leaves):
    """``store.errors`` over a leaf set: an int leaf is a case input's index,
    a float a scalar leaf, interned as ``lgp.execute`` interns one."""
    if all(type(leaf) is int for leaf in leaves):
        return store.errors([(None, leaves[a], 0) if op is None else (op, a, b) for op, a, b in rows])
    new, fresh, local = [], [], []
    start = store.reserve(len(leaves) + len(rows))
    leaf_ids = [leaf if type(leaf) is int else store.scalar(leaf, start, new, fresh) for leaf in leaves]
    for op, a, b in rows:
        if op is None:
            local.append(leaf_ids[a])
            continue
        key = (op, local[a], local[b])
        if key not in store.ids:
            store.ids[key] = start + len(new)
            new.append(key)
        local.append(store.ids[key])
    errors = store.commit(start, new, fresh, sum(op is not None for op, _, _ in rows))
    return [errors[i] for i in local]


def _assert_store_matches_evaluate_rows(store, rows, leaves, cases):
    """``leaves`` as :func:`_store_errors` reads them."""
    values = [cases.inputs.T[k] if type(k) is int else k for k in leaves]
    table = evaluate_rows(rows, values, cases)
    computed = store.computed_rows
    reset_ops()
    errors = _store_errors(store, rows, leaves)
    assert ops_applied() == operations(rows, cases)
    reset_ops()
    assert struct.pack(f"<{len(errors)}d", *errors) == table.errors.tobytes()
    return store.computed_rows - computed


@st.composite
def _store_programs(draw):
    """Several row programs over one case set and one leaf set, each later one
    starting from a prefix of an earlier one so that they share rows."""
    n = draw(st.sampled_from([1, 2, 3, 5, CASES_PER_PROBLEM]))
    inputs = draw(st.integers(1, 3))
    cases = make_cases(
        draw(st.lists(st.lists(finite_doubles, min_size=inputs, max_size=inputs),
                      min_size=n, max_size=n)),
        draw(st.lists(finite_doubles, min_size=n, max_size=n)))
    scalars = st.one_of(st.sampled_from(_STORE_SCALARS), _LEAF_VALUES)
    leaves = draw(st.lists(st.one_of(st.integers(0, inputs - 1), scalars), min_size=1, max_size=5))
    programs = []
    for _ in range(draw(st.integers(1, 6))):
        if programs:
            earlier = draw(st.sampled_from(programs))
            rows = earlier[:draw(st.integers(1, len(earlier)))]
        else:
            rows = [(None, draw(st.integers(0, len(leaves) - 1)), 0)]
        for i in range(len(rows), len(rows) + draw(st.integers(0, 20))):
            if draw(st.integers(0, 3)) == 0:
                rows.append((None, draw(st.integers(0, len(leaves) - 1)), 0))
            else:
                rows.append((draw(st.sampled_from(OPERATORS)),
                             draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))))
        programs.append(rows)
    budget = draw(st.sampled_from([ROW_STORE_BYTES, 8 * 8 * n, 0]))
    return cases, leaves, programs, budget


@given(_store_programs())
@settings(max_examples=500, deadline=None)
def test_row_store_gives_the_errors_evaluate_rows_gives(program):
    cases, leaves, programs, budget = program
    store = RowStore(cases, budget)
    for rows in programs:
        _assert_store_matches_evaluate_rows(store, rows, leaves, cases)
    if budget == ROW_STORE_BYTES:
        # the store forgot nothing, so the last program computes no row again
        assert _assert_store_matches_evaluate_rows(store, programs[-1], leaves, cases) == 0


def test_row_store_computes_a_block_of_one_new_row():
    cases = make_cases([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    store = RowStore(cases)
    rows = [(None, 0, 0), (None, 1, 0), ("mul", 0, 1), ("sub", 2, 0)]
    assert _assert_store_matches_evaluate_rows(store, rows, [0, -0.0], cases) == 2
    rows.append(("add", 3, 2))
    assert _assert_store_matches_evaluate_rows(store, rows, [0, -0.0], cases) == 1


def test_row_store_keys_scalar_leaves_by_their_bits():
    cases = make_cases([1.0, 2.0], [0.0, 0.0])
    store = RowStore(cases)
    rows = [(None, 0, 0), (None, 1, 0), ("div", 0, 1), ("add", 1, 2)]
    quiet, payload = struct.unpack("<2d", bytes.fromhex("000000000000f87f" "010000000000f87f"))
    for scalar, computed in [(-0.0, 2), (0.0, 2), (-0.0, 0), (quiet, 2), (payload, 2), (-quiet, 2)]:
        assert _assert_store_matches_evaluate_rows(store, rows, [0, scalar], cases) == computed


def test_row_store_recomputes_only_its_new_rows_under_the_protected_rule():
    cases = make_cases([1.0, 2.0], [1.0, 0.0])
    small = math.nextafter(DIV_EPSILON, 0.0)
    store = RowStore(cases)
    rows = [(None, 0, 0), (None, 1, 0), ("sub", 0, 1), ("mul", 2, 2)]
    assert _assert_store_matches_evaluate_rows(store, rows, [0, small], cases) == 2
    # the only new row divides by the small leaf, so it is recomputed alone
    assert _assert_store_matches_evaluate_rows(store, rows + [("div", 3, 1)], [0, small], cases) == 1
    # x / small is 1.0 on every case, against targets 1 and 0
    assert _store_errors(store, [(None, 0, 0), (None, 1, 0), ("div", 0, 1)], [0, small])[-1] == 1.0


def test_row_store_rejects_a_leaf_past_the_case_inputs():
    # a terminal the case set has no input for must not read another row
    cases = make_cases([[1.0, 2.0]], [0.0])
    rows = [(None, 0, 0), (None, 1, 0), ("add", 0, 1), ("mul", 2, 2), (None, 2, 0)]
    for store in [RowStore(cases), RowStore(cases, 0)]:
        with pytest.raises(IndexError):
            store.errors(rows)


def test_row_store_never_holds_less_than_one_call():
    cases = make_cases([1.0, 2.0], [0.0, 0.0])
    store = RowStore(cases, budget=1)
    rows = [(None, 0, 0)] + [("add", i, i) for i in range(30)]
    errors = store.errors(rows)
    assert errors[-1] == 3.0 * 2.0 ** 30
    assert store.errors(rows) == errors
    assert store.computed_rows == 60


# --- deterministic random source ---

def _reference_words(seed):
    """Independent re-implementation of the generator used as an oracle:
    four words of splitmix64 seed the state, outputs follow xoshiro256**
    one step at a time."""
    mask = (1 << 64) - 1
    state = []
    s = seed & mask
    for _ in range(4):
        s = (s + 0x9E3779B97F4A7C15) & mask
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        state.append(z ^ (z >> 31))

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    while True:
        yield (rotl((state[1] * 5) & mask, 7) * 9) & mask
        t = (state[1] << 17) & mask
        state[2] ^= state[0]
        state[3] ^= state[1]
        state[1] ^= state[2]
        state[0] ^= state[3]
        state[2] ^= t
        state[3] = rotl(state[3], 45)


def _reference_stream(seed, count):
    return list(itertools.islice(_reference_words(seed), count))


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 63, 123456789])
def test_random_source_matches_reference_stream(seed):
    rng = RandomSource(seed)
    assert [rng.next_uint64() for _ in range(100)] == _reference_stream(seed, 100)


def test_random_source_replays_per_seed():
    a = [RandomSource(7).next_uint64() for _ in range(5)]
    b = [RandomSource(7).next_uint64() for _ in range(5)]
    c = [RandomSource(8).next_uint64() for _ in range(5)]
    assert a == b
    assert a != c


def test_random_unit_interval_and_derived_draws():
    rng = RandomSource(3)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)

    rng = RandomSource(3)
    ints = [rng.randint(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in ints)
    assert set(ints) == set(range(10))

    assert RandomSource(4).randint(1) == 0
    with pytest.raises(ValueError):
        RandomSource(4).randint(0)

    r1, r2 = RandomSource(5), RandomSource(5)
    assert r1.uniform(2.0, 4.0) == 2.0 + 2.0 * r2.random()
    r1, r2 = RandomSource(6), RandomSource(6)
    assert r1.coin() == (r2.random() < 0.5)


def test_sample_distinct_properties():
    rng = RandomSource(11)
    picks = rng.sample_distinct(10, 4)
    assert len(picks) == 4
    assert len(set(picks)) == 4
    assert all(0 <= p < 10 for p in picks)
    assert sorted(RandomSource(12).sample_distinct(6, 6)) == list(range(6))
    with pytest.raises(ValueError):
        rng.sample_distinct(3, 4)


def test_random_derivations_match_documented_formulas():
    raw = _reference_stream(21, 3)
    rng = RandomSource(21)
    assert rng.random() == (raw[0] >> 11) * 2.0 ** -53
    assert rng.randint(97) == raw[1] % 97
    assert rng.next_uint64() == raw[2]


class _ReferenceDraws:
    """The documented derived-draw formulas over ``_reference_words``."""

    def __init__(self, seed):
        self.words = _reference_words(seed)
        self.used = 0

    def next_uint64(self):
        self.used += 1
        return next(self.words)

    def random(self):
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def randint(self, n):
        return self.next_uint64() % n

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def coin(self):
        return self.random() < 0.5

    def sample_distinct(self, n, k):
        out = []
        while len(out) < k:
            v = self.randint(n)
            if v not in out:
                out.append(v)
        return out


_DRAWS = st.one_of(
    st.tuples(st.just("next_uint64")),
    st.tuples(st.just("random")),
    st.tuples(st.just("randint"), st.integers(1, 2 ** 64)),
    st.tuples(st.just("uniform"), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.tuples(st.just("coin")),
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just("sample_distinct"), st.just(n), st.integers(1, n))),
)


@given(
    seed=st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)),
    draws=st.lists(_DRAWS, min_size=1, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_block_stream_derived_draws_match_the_reference(seed, draws):
    # every draw takes at least one word, so repeating the interleaving
    # crosses three block boundaries at varying offsets; sample_distinct's
    # rejection loop takes a varying number of words
    rng = RandomSource(seed)
    ref = _ReferenceDraws(seed)
    while ref.used <= 3 * core.BLOCK_WORDS:
        for name, *args in draws:
            assert getattr(rng, name)(*args) == getattr(ref, name)(*args), (name, args)
    assert rng.next_uint64() == ref.next_uint64()


def test_coin_is_the_top_bit_of_the_word_clear():
    words = _reference_stream(77, 4000)
    rng = RandomSource(77)
    for word in words:
        assert rng.coin() == (word < 2 ** 63) == ((word >> 11) * 2.0 ** -53 < 0.5)


# --- dataset files ---

def test_cases_csv_round_trip_is_exact(tmp_path):
    rng = RandomSource(31)
    cases = make_problem("f4", rng)
    path = tmp_path / "cases.csv"
    write_cases_csv(cases, path)
    back = read_cases_csv(path)
    assert np.array_equal(back.inputs, cases.inputs)
    assert np.array_equal(back.targets, cases.targets)
    header = path.read_text().splitlines()[0]
    assert header == "x,target"


def test_cases_csv_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_cases_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("x,target\n")
    with pytest.raises(ValueError):
        read_cases_csv(empty)


@pytest.mark.parametrize("row", ["1,2,3", "4", "4,five"])
def test_cases_csv_names_the_file_and_line_of_a_malformed_row(tmp_path, row):
    path = tmp_path / "cases.csv"
    path.write_text(f"x,target\n1,2\n{row}\n5,6\n")
    with pytest.raises(ValueError, match=r"cases\.csv, line 3: expected 'x,target'"):
        read_cases_csv(path)


def test_cases_csv_requires_univariate_data(tmp_path):
    cases = FitnessCaseSet(inputs=np.ones((2, 2)), targets=np.ones(2))
    with pytest.raises(ValueError):
        write_cases_csv(cases, tmp_path / "multi.csv")
