import math

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
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    best_of,
    evaluate_rows,
    make_problem,
    ops_applied,
    protected_apply,
    read_cases_csv,
    reset_ops,
    vector_apply,
    write_cases_csv,
)

from conftest import make_cases

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


# --- protected operators ---

def test_protected_apply_basic_arithmetic():
    assert protected_apply("add", 2.0, 3.0) == 5.0
    assert protected_apply("sub", 2.0, 3.0) == -1.0
    assert protected_apply("mul", 2.0, 3.0) == 6.0
    assert protected_apply("div", 6.0, 3.0) == 2.0


def test_protected_division_guards_small_denominators():
    assert protected_apply("div", 5.0, 0.0) == 1.0
    assert protected_apply("div", 5.0, 1e-13) == 1.0
    assert protected_apply("div", 5.0, -1e-13) == 1.0
    # just outside the guard band division is ordinary
    assert protected_apply("div", 5.0, 2e-12) == 5.0 / 2e-12
    assert protected_apply("div", 0.0, 3.0) == 0.0


def test_division_guard_boundary_is_strict():
    assert protected_apply("div", 1.0, DIV_EPSILON) == 1.0 / DIV_EPSILON
    assert protected_apply("div", 1.0, math.nextafter(DIV_EPSILON, 0.0)) == 1.0


def test_protected_apply_rejects_unknown_operator():
    with pytest.raises(ValueError):
        protected_apply("pow", 2.0, 3.0)
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
        expected = protected_apply(op, x, y)
        if math.isnan(expected):
            assert math.isnan(vec[i])
        else:
            assert vec[i] == expected


def test_operation_counter_counts_per_case():
    reset_ops()
    protected_apply("add", 1.0, 2.0)
    assert ops_applied() == 1
    vector_apply("mul", np.ones(7), np.ones(7))
    assert ops_applied() == 8
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


def test_evaluate_rows_by_hand():
    cases = make_cases([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    rows = [(None, 0, 0), ("mul", 0, 0), ("sub", 1, 0)]
    reset_ops()
    table = evaluate_rows(rows, cases.inputs.T, cases)
    assert ops_applied() == 2 * cases.n
    reset_ops()
    assert table.values.tolist() == [[1.0, 2.0, 3.0], [1.0, 4.0, 9.0], [0.0, 2.0, 6.0]]
    assert table.valid.tolist() == [True, True, True]
    # |1-2| + |2-2| + |3-2|, |1-2| + |4-2| + |9-2|, |0-2| + |2-2| + |6-2|
    assert table.errors.tolist() == [2.0, 10.0, 6.0]
    assert table.best() == (2.0, 0)
    assert table.best(1) == (6.0, 2)


def test_evaluate_rows_taints_every_row_built_on_an_invalid_one():
    cases = make_cases([1e308], [0.0])
    # row 1 overflows; rows 2 (x / inf = 0) and 3 (0 - x) are finite but
    # built on row 1
    rows = [(None, 0, 0), ("mul", 0, 0), ("div", 0, 1), ("sub", 2, 0)]
    table = evaluate_rows(rows, cases.inputs.T, cases)
    assert table.valid.tolist() == [True, False, False, False]
    assert table.values[2, 0] == 0.0 and table.values[3, 0] == -1e308
    assert table.errors[0] == 1e308
    assert all(math.isinf(e) for e in table.errors[1:])


def test_evaluate_rows_validity_follows_values_not_an_overflowing_error():
    cases = make_cases([1e308], [-1e308])
    table = evaluate_rows([(None, 0, 0)], cases.inputs.T, cases)
    assert table.valid.tolist() == [True]
    assert math.isinf(table.errors[0])


def test_best_of_first_minimum_wins():
    assert best_of([3.0, 1.0, 1.0, 2.0]) == (1, 1.0)
    assert best_of([math.inf, math.inf]) == (0, math.inf)
    with pytest.raises(ValueError):
        best_of([])


# --- deterministic random source ---

def _reference_stream(seed, count):
    """Independent re-implementation of the generator used as an oracle:
    four words of splitmix64 seed the state, outputs follow xoshiro256**."""
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

    out = []
    for _ in range(count):
        out.append((rotl((state[1] * 5) & mask, 7) * 9) & mask)
        t = (state[1] << 17) & mask
        state[2] ^= state[0]
        state[3] ^= state[1]
        state[1] ^= state[2]
        state[0] ^= state[3]
        state[2] ^= t
        state[3] = rotl(state[3], 45)
    return out


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


def test_cases_csv_requires_univariate_data(tmp_path):
    cases = FitnessCaseSet(inputs=np.ones((2, 2)), targets=np.ones(2))
    with pytest.raises(ValueError):
        write_cases_csv(cases, tmp_path / "multi.csv")
