import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigp.core import (
    MODES,
    OP_SYMBOLS,
    SYMBOL_OPS,
    PrimitiveSet,
    RandomSource,
    RowStore,
    best,
    ops_applied,
    reset_ops,
)
from multigp.ifgp import (
    IfgpChromosome,
    Subexpression,
    canonical,
    crossover_at,
    crossover_two_point,
    decode,
    fitness,
    mutate,
    random_chromosome,
    render,
    subexpressions,
    validate_chromosome,
)

from conftest import StubRandom, evaluate_rows, make_cases, operations

AB = PrimitiveSet(terminals=("a", "b"))
X = PrimitiveSet.for_inputs(1)


def chrom(*genes):
    return IfgpChromosome(tuple(genes))


# --- oracles: the token grammar and a parse tree of the tokens ---

PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def classify(symbol):
    if symbol == "(":
        return "open"
    if symbol == ")":
        return "close"
    if symbol in SYMBOL_OPS:
        return "operator"
    return "variable"


def validate_tokens(tokens, prims):
    """Raise ValueError unless the token list is category-legal and balanced."""
    prev = "start"
    surplus = 0
    for i, tok in enumerate(tokens):
        cat = classify(tok)
        if cat == "variable" and tok not in prims.terminals:
            raise ValueError(f"token {i}: unknown symbol {tok!r}")
        if prev in ("start", "operator", "open"):
            allowed = ("variable", "open")
        else:
            allowed = ("operator", "close") if surplus > 0 else ("operator",)
        if cat not in allowed:
            raise ValueError(f"token {i}: {tok!r} not permitted after {prev}")
        if cat == "open":
            surplus += 1
        elif cat == "close":
            surplus -= 1
        prev = cat
    if surplus != 0:
        raise ValueError("unbalanced parentheses")
    if prev not in ("variable", "close"):
        raise ValueError("expression ends mid-phrase")


@dataclass
class Var:
    name: str
    parens: int = 0


@dataclass
class Bin:
    op: str  # display symbol: + - * /
    left: "Var | Bin"
    right: "Var | Bin"
    parens: int = 0


def parse(tokens):
    """Precedence-climbing parse; explicit parentheses are kept on the nodes
    so an in-order walk reproduces the token list exactly."""
    pos = 0

    def parse_expr(min_prec):
        nonlocal pos
        node = parse_atom()
        while pos < len(tokens) and tokens[pos] in PRECEDENCE and PRECEDENCE[tokens[pos]] >= min_prec:
            op = tokens[pos]
            pos += 1
            node = Bin(op, node, parse_expr(PRECEDENCE[op] + 1))
        return node

    def parse_atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            node = parse_expr(1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("unbalanced parentheses")
            pos += 1
            node.parens += 1
            return node
        if tok == ")" or tok in PRECEDENCE:
            raise ValueError(f"unexpected token {tok!r}")
        return Var(tok)

    root = parse_expr(1)
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return root


def tokens_of(node):
    """In-order token sequence of a node, explicit parentheses included."""
    if isinstance(node, Var):
        body = [node.name]
    else:
        body = tokens_of(node.left) + [node.op] + tokens_of(node.right)
    return ["("] * node.parens + body + [")"] * node.parens


def tree_canonical(node):
    """Fully parenthesised rendering, stored parentheses ignored."""
    if isinstance(node, Var):
        return node.name
    return f"({tree_canonical(node.left)}{node.op}{tree_canonical(node.right)})"


def postorder(node):
    if isinstance(node, Bin):
        yield from postorder(node.left)
        yield from postorder(node.right)
    yield node


# --- decoding ---

def test_worked_decode_example():
    # gene walk: 7%3 -> b, 3%4 -> /, 2%3 -> (, 0%3 -> a, 5%5 -> +,
    # then the reserved last gene appends terminal 2%2 -> a, plus closing
    expr = decode(chrom(7, 3, 2, 0, 5, 2), AB)
    assert expr.tokens == ("b", "/", "(", "a", "+", "a", ")")
    assert expr.text == "b/(a+a)"


def test_worked_example_has_four_distinct_subexpressions():
    expr = decode(chrom(7, 3, 2, 0, 5, 2), AB)
    subs = subexpressions(expr)
    assert len(subs) == 4
    assert {canonical(node) for node in subs} == {"a", "b", "(a+a)", "(b/(a+a))"}


def test_decode_single_variable():
    expr = decode(chrom(0, 0), AB)
    assert expr.text == "a"
    assert expr.rows == ((None, 0, 0),)


def test_decode_repairs_trailing_operator():
    # translated prefix "a*" ends in an operator; last gene picks terminal b
    expr = decode(chrom(0, 6, 1), AB)
    assert expr.text == "a*b"


def test_decode_repairs_unclosed_parentheses():
    expr = decode(chrom(2, 0, 0), AB)
    assert expr.text == "(a)"


def test_closing_parenthesis_needs_surplus():
    # after a variable with no open parenthesis there are only 4 options,
    # so gene 4 wraps to the operator list instead of ')'
    expr = decode(chrom(0, 4, 0, 0), AB)
    assert expr.tokens[1] == "+"


def test_closing_parenthesis_available_inside_group():
    # two opens then "a"; with surplus 2 the option list grows to 5, so
    # gene 4 picks ')' and gene 1 then lands on '-'; repair closes the rest
    expr = decode(chrom(2, 2, 0, 4, 1, 0), AB)
    assert expr.text == "((a)-a)"


def test_last_gene_is_reserved_for_repair():
    # same prefix, different last gene: repair terminal changes with it
    assert decode(chrom(0, 6, 0), AB).text == "a*a"
    assert decode(chrom(0, 6, 1), AB).text == "a*b"
    # when no repair is needed the last gene is ignored entirely
    assert decode(chrom(0, 0, 0, 7), AB).text == decode(chrom(0, 0, 0, 3), AB).text


def test_decode_rejects_bad_chromosomes():
    with pytest.raises(ValueError):
        decode(chrom(0), AB)
    with pytest.raises(ValueError):
        decode(chrom(0, 8), AB)  # num_symbols is 8, genes live in [0, 8)
    with pytest.raises(ValueError):
        decode(chrom(-1, 0), AB)


def test_decode_totality_over_random_chromosomes():
    rng = RandomSource(8001)
    for trial in range(100_000):
        length = 2 + rng.randint(63)
        c = random_chromosome(length, AB, rng)
        expr = decode(c, AB)
        validate_tokens(expr.tokens, AB)


def test_decoded_tree_round_trips_to_its_tokens():
    rng = RandomSource(8002)
    for trial in range(2000):
        c = random_chromosome(2 + rng.randint(30), AB, rng)
        expr = decode(c, AB)
        assert tuple(tokens_of(parse(expr.tokens))) == expr.tokens
        assert render(Subexpression(expr, len(expr.rows) - 1)) == expr.text


def test_earlier_symbols_never_depend_on_later_genes():
    rng = RandomSource(8003)
    for trial in range(2000):
        length = 4 + rng.randint(20)
        c = random_chromosome(length, AB, rng)
        pos = 1 + rng.randint(length - 2)  # mutate a translated, non-first gene
        genes = list(c.genes)
        genes[pos] = rng.randint(AB.num_symbols)
        d = IfgpChromosome(tuple(genes))
        assert decode(c, AB).tokens[:pos] == decode(d, AB).tokens[:pos]


def reference_tokens(genes, prims):
    """The translation rule written out on its own: per gene, the options the
    previous symbol permits, then the repair step."""
    tokens, operand_due, surplus = [], True, 0
    for gene in genes[:-1]:
        if operand_due:
            options = list(prims.terminals) + ["("]
        else:
            options = [OP_SYMBOLS[f] for f in prims.functions] + [")"] * (surplus > 0)
        symbol = options[gene % len(options)]
        tokens.append(symbol)
        surplus += (symbol == "(") - (symbol == ")")
        operand_due = symbol == "(" or symbol in SYMBOL_OPS
    if operand_due:
        tokens.append(prims.terminals[genes[-1] % len(prims.terminals)])
    return tuple(tokens) + (")",) * surplus


def postorder_rows(root, prims):
    """(op, a, b) per node of a post-order walk of the tree."""
    rows = []

    def walk(node):
        if isinstance(node, Var):
            rows.append((None, prims.terminals.index(node.name), 0))
        else:
            a, b = walk(node.left), walk(node.right)
            rows.append((SYMBOL_OPS[node.op], a, b))
        return len(rows) - 1

    walk(root)
    return tuple(rows)


@st.composite
def prims_and_genes(draw):
    prims = draw(st.sampled_from([X, AB, PrimitiveSet(("a", "b"), ("sub", "div"))]))
    genes = draw(st.lists(st.integers(0, prims.num_symbols - 1), min_size=2, max_size=60))
    return prims, genes


@given(prims_and_genes())
@settings(max_examples=2000, deadline=None)
def test_lowered_rows_are_the_post_order_of_the_parse(case):
    prims, genes = case
    expr = decode(IfgpChromosome(tuple(genes)), prims)
    assert expr.tokens == reference_tokens(genes, prims)
    nodes = list(postorder(parse(expr.tokens)))
    assert expr.rows == postorder_rows(nodes[-1], prims)
    for row, node in enumerate(nodes):
        assert render(Subexpression(expr, row)) == "".join(tokens_of(node))
        assert canonical(Subexpression(expr, row)) == tree_canonical(node)
    distinct = list(dict.fromkeys(tree_canonical(node) for node in nodes))
    assert [canonical(node) for node in subexpressions(expr)] == distinct


def test_validate_tokens_rejects_malformed_streams():
    with pytest.raises(ValueError):
        validate_tokens(("a", "b"), AB)
    with pytest.raises(ValueError):
        validate_tokens(("a", "+"), AB)
    with pytest.raises(ValueError):
        validate_tokens(("(", "a"), AB)
    with pytest.raises(ValueError):
        validate_tokens(("a", ")",), AB)
    with pytest.raises(ValueError):
        validate_tokens(("c",), AB)


# --- evaluation against a recursive oracle ---

def eval_tokens(node, x):
    """Plain recursive evaluation for univariate expressions."""
    if isinstance(node, Var):
        return x, True
    a, ok_a = eval_tokens(node.left, x)
    b, ok_b = eval_tokens(node.right, x)
    if node.op == "+":
        v = a + b
    elif node.op == "-":
        v = a - b
    elif node.op == "*":
        v = a * b
    else:
        v = 1.0 if abs(b) < 1e-12 else a / b
    return v, ok_a and ok_b and math.isfinite(v)


def oracle_fitness_multi(c, cases):
    expr = decode(c, X)
    best = math.inf
    for node in postorder(parse(expr.tokens)):
        err, ok = 0.0, True
        for k in range(cases.n):
            v, valid = eval_tokens(node, cases.inputs[k, 0])
            if not valid:
                ok = False
                break
            err = err + abs(v - cases.targets[k])
        if ok:
            best = min(best, err)
    return best


def test_multi_fitness_matches_recursive_subexpression_min(five_cases):
    rng = RandomSource(9001)
    for trial in range(300):
        c = random_chromosome(2 + rng.randint(28), X, rng)
        got, _ = fitness(c, five_cases, X, "multi")
        expected = oracle_fitness_multi(c, five_cases)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-12)


def test_single_fitness_scores_the_root(five_cases):
    rng = RandomSource(9002)
    for trial in range(300):
        c = random_chromosome(2 + rng.randint(28), X, rng)
        expr = decode(c, X)
        got, row = fitness(c, five_cases, X, "single")
        assert row == len(expr.rows) - 1
        root = parse(expr.tokens)
        err, ok = 0.0, True
        for k in range(five_cases.n):
            v, valid = eval_tokens(root, five_cases.inputs[k, 0])
            if not valid:
                ok = False
                break
            err = err + abs(v - five_cases.targets[k])
        if ok:
            assert got == pytest.approx(err, rel=1e-12)
        else:
            assert math.isinf(got)


def test_multi_fitness_never_exceeds_single(five_cases):
    rng = RandomSource(9003)
    for trial in range(10_000):
        c = random_chromosome(2 + rng.randint(18), X, rng)
        multi, _ = fitness(c, five_cases, X, "multi")
        single, _ = fitness(c, five_cases, X, "single")
        assert multi <= single


def test_fitness_rejects_unknown_mode(five_cases):
    with pytest.raises(ValueError):
        fitness(chrom(0, 0), five_cases, X, "best")


def test_invalid_subtrees_are_excluded_from_the_minimum():
    huge = 1e200
    cases = make_cases([[huge]], [0.0])
    # x*x overflows only after squaring twice: (x*x)*(x*x) = inf
    c_tokens = decode(chrom(0, 6, 0, 6, 0, 6, 0, 0), X)
    assert c_tokens.text == "x*x*x*x"
    got, row = fitness(chrom(0, 6, 0, 6, 0, 6, 0, 0), cases, X, "multi")
    # best valid sub-expression is x itself
    assert got == huge
    assert canonical(Subexpression(c_tokens, row)) == "x"


# --- decoding through a row store against the store-free rows (conftest) ---

def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@st.composite
def _genome_sequences(draw):
    """A primitive set, a case set with an input per terminal and a few
    genomes, later ones often an earlier one with a few genes redrawn, and
    now and then one that ``validate_chromosome`` rejects."""
    prims = draw(st.sampled_from([X, PrimitiveSet.for_inputs(2), PrimitiveSet(("x1", "x2"), ("sub", "div"))]))
    inputs, n = len(prims.terminals), draw(st.sampled_from([1, 3, 20]))
    # zeros and tiny divisors take the protected rule, huge values overflow
    value = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0, 1e-13, 1e200, -1e200]))
    cases = make_cases(draw(st.lists(st.lists(value, min_size=inputs, max_size=inputs), min_size=n, max_size=n)),
                       draw(st.lists(value, min_size=n, max_size=n)))
    gene = st.integers(0, prims.num_symbols - 1)
    genomes = []
    for _ in range(draw(st.integers(1, 5))):
        if genomes and draw(st.booleans()):
            genes = list(draw(st.sampled_from(genomes)))
            for _ in range(draw(st.integers(0, 3))):
                genes[draw(st.integers(0, len(genes) - 1))] = draw(gene)
        else:
            genes = draw(st.lists(gene, min_size=2, max_size=40))
        if draw(st.integers(0, 9)) == 0:  # too short, or a gene out of range
            genes = draw(st.sampled_from([genes[:1], genes[:-1] + [-1], genes[:-1] + [prims.num_symbols]]))
        genomes.append(tuple(genes))
    return prims, cases, genomes


@given(_genome_sequences())
@settings(max_examples=300, deadline=None)
def test_decode_through_a_store_gives_what_the_store_free_rows_evaluate(sequence):
    prims, cases, genomes = sequence
    # the usual store; one whose budget holds less than one chromosome, so it
    # grows and then clears on most calls; one of 48 rows, which clears
    # every few calls
    stores = [RowStore(cases), RowStore(cases, 0), RowStore(cases, 48 * 8 * cases.n)]
    for _ in range(2):
        for genes in genomes:
            c = IfgpChromosome(genes)
            try:
                expr = decode(c, prims)
            except ValueError as exc:
                reset_ops()
                for store in stores:
                    with pytest.raises(ValueError) as raised:
                        decode(c, prims, store)
                    assert str(raised.value) == str(exc)
                for store in [None, *stores]:
                    for mode in MODES:
                        with pytest.raises(ValueError) as raised:
                            fitness(c, cases, prims, mode, store)
                        assert str(raised.value) == str(exc)
                assert ops_applied() == 0
                continue
            table = evaluate_rows(expr.rows, cases.inputs.T, cases)
            ops = operations(expr.rows, cases)
            want_errors = table.errors.tolist()
            want = {"multi": best(want_errors), "single": (want_errors[-1], len(want_errors) - 1)}
            for store in stores:
                reset_ops()
                lowered = decode(c, prims, store)
                assert ops_applied() == ops
                assert lowered.tokens == list(expr.tokens)
                assert _bits([lowered.errors[i] for i in lowered.ids]) == table.errors.tobytes()
            for store in [None, *stores]:
                for mode in MODES:
                    reset_ops()
                    fit, row = fitness(c, cases, prims, mode, store)
                    assert ops_applied() == ops
                    assert (_bits([fit]), row) == (_bits([want[mode][0]]), want[mode][1])
            reset_ops()


# --- search operators ---

def test_crossover_at_explicit_cuts():
    p1 = chrom(0, 1, 2, 3, 4, 5)
    p2 = chrom(10, 11, 12, 13, 14, 15)
    o1, o2 = crossover_at(p1, p2, 2, 5)
    assert o1.genes == (0, 1, 12, 13, 14, 5)
    assert o2.genes == (10, 11, 2, 3, 4, 15)
    with pytest.raises(ValueError):
        crossover_at(p1, p2, 3, 3)
    with pytest.raises(ValueError):
        crossover_at(p1, p2, 2, 9)
    with pytest.raises(ValueError):
        crossover_at(p1, chrom(0, 0), 0, 1)


def test_two_point_crossover_rejects_equal_cuts_and_orders_them():
    p1 = chrom(0, 1, 2, 3, 4, 5)
    p2 = chrom(10, 11, 12, 13, 14, 15)
    rng = StubRandom([
        ("randint", 3), ("randint", 3),  # equal pair rejected, redrawn
        ("randint", 5), ("randint", 2),  # arrives unordered
    ])
    o1, o2 = crossover_two_point(p1, p2, rng)
    rng.assert_exhausted()
    assert o1.genes == (0, 1, 12, 13, 14, 5)
    assert o2.genes == (10, 11, 2, 3, 4, 15)


def test_crossover_preserves_gene_multiset():
    rng = RandomSource(7007)
    for trial in range(500):
        p1 = random_chromosome(12, AB, rng)
        p2 = random_chromosome(12, AB, rng)
        o1, o2 = crossover_two_point(p1, p2, rng)
        assert sorted(o1.genes + o2.genes) == sorted(p1.genes + p2.genes)
        validate_chromosome(o1, AB)
        validate_chromosome(o2, AB)


def test_mutation_redraws_over_the_full_symbol_range():
    rng = StubRandom([
        ("randint", 2), ("randint", 7),
        ("randint", 0), ("randint", 3),
    ])
    got = mutate(chrom(0, 1, 2, 3), 2, AB, rng)
    rng.assert_exhausted()
    assert got.genes == (3, 1, 7, 3)


def test_mutation_preserves_range_and_length():
    rng = RandomSource(7008)
    for trial in range(2000):
        c = random_chromosome(2 + rng.randint(20), AB, rng)
        m = mutate(c, 2, AB, rng)
        validate_chromosome(m, AB)
        assert len(m) == len(c)
    with pytest.raises(ValueError):
        mutate(chrom(0, 0), -1, AB, RandomSource(1))


# --- cost parity ---

def test_evaluation_cost_independent_of_fitness_mode(five_cases):
    c = random_chromosome(30, X, RandomSource(8))
    reset_ops()
    fitness(c, five_cases, X, "multi")
    multi_cost = ops_applied()
    reset_ops()
    fitness(c, five_cases, X, "single")
    single_cost = ops_applied()
    reset_ops()
    assert multi_cost == single_cost
    operators = sum(1 for t in decode(c, X).tokens if t in "+-*/")
    assert multi_cost == operators * five_cases.n
