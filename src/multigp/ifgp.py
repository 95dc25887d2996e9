"""Infix Form Genetic Programming: unconstrained integer genomes decoded by a
modulo-driven state machine into valid infix expressions, repaired at the end
when the raw translation stops mid-expression.  Every sub-expression is a
candidate solution; ``decode`` lists them as post-order rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    OP_SYMBOLS,
    SYMBOL_OPS,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    RowStore,
    best,
    check_mode,
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_SYNTAX = {"(", ")", *_PRECEDENCE}  # every token that is not a terminal


@dataclass(frozen=True)
class IfgpChromosome:
    """Fixed-length integer genome; the last gene only feeds the repair step."""

    genes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.genes)


@dataclass
class InfixExpression:
    """A decoded chromosome: its tokens and the post-order rows ``(op, a, b)``
    of its sub-expressions (``op is None`` marks terminal ``a``), root last."""

    tokens: tuple[str, ...]
    rows: tuple[tuple, ...]

    @property
    def text(self) -> str:
        return "".join(self.tokens)


class Subexpression(NamedTuple):
    """Row ``row`` of a decoded expression: one candidate solution."""

    expr: InfixExpression
    row: int


def validate_chromosome(chrom: IfgpChromosome, prims: PrimitiveSet) -> None:
    if len(chrom) < 2:
        raise ValueError("chromosome needs at least 2 genes (last one feeds repair)")
    for i, g in enumerate(chrom.genes):
        if not 0 <= g < prims.num_symbols:
            raise ValueError(f"gene {i} out of range [0, {prims.num_symbols})")


def random_chromosome(length: int, prims: PrimitiveSet, rng: RandomSource) -> IfgpChromosome:
    if length < 2:
        raise ValueError("chromosome length must be at least 2")
    return IfgpChromosome(tuple(rng.randint(prims.num_symbols) for _ in range(length)))


def decode(chrom: IfgpChromosome, prims: PrimitiveSet) -> InfixExpression:
    """Translate genes left to right, then repair into a valid expression.

    Each gene selects (modulo the number of possibilities) among the symbols
    the previous symbol permits: a terminal or '(' where an operand is due,
    else an operator or, inside a group, ')'.  The last gene is never
    translated: if the raw expression ends in an operator or '(', it names
    the terminal appended by the repair step; unclosed parentheses are then
    closed.  An operator stack (shunting-yard) turns the tokens into
    post-order rows in the same pass.
    """
    genes = chrom.genes
    if len(genes) < 2 or min(genes) < 0 or max(genes) >= prims.num_symbols:
        validate_chromosome(chrom, prims)
    terminals = prims.terminals
    operators = [OP_SYMBOLS[f] for f in prims.functions]
    n_terminals, n_operators = len(terminals), len(operators)
    tokens: list[str] = []
    rows: list[tuple] = []
    pending: list[str] = []   # operators and '(' not yet reduced
    operands: list[int] = []  # row of each finished operand
    surplus = 0

    def terminal(k):
        tokens.append(terminals[k])
        operands.append(len(rows))
        rows.append((None, k, 0))

    def reduce():
        right = operands.pop()
        rows.append((SYMBOL_OPS[pending.pop()], operands[-1], right))
        operands[-1] = len(rows) - 1

    def close():
        tokens.append(")")
        while pending[-1] != "(":
            reduce()
        pending.pop()

    operand_due = True
    for gene in genes[:-1]:
        if operand_due:
            k = gene % (n_terminals + 1)
            if k < n_terminals:
                terminal(k)
                operand_due = False
            else:
                tokens.append("(")
                pending.append("(")
                surplus += 1
        else:
            k = gene % (n_operators + (surplus > 0))
            if k < n_operators:
                symbol = operators[k]
                precedence = _PRECEDENCE[symbol]
                while pending and pending[-1] != "(" and _PRECEDENCE[pending[-1]] >= precedence:
                    reduce()
                tokens.append(symbol)
                pending.append(symbol)
                operand_due = True
            else:
                close()
                surplus -= 1
    if operand_due:
        terminal(genes[-1] % n_terminals)
    for _ in range(surplus):
        close()
    while pending:
        reduce()
    return InfixExpression(tuple(tokens), tuple(rows))


def spans(expr: InfixExpression) -> list[tuple[int, int]]:
    """Token span ``(start, end)`` of each row, written parentheses included:
    terminal rows take the terminal tokens in order, an operator row spans its
    operands, and a span widens while a matched pair of parentheses encloses it."""
    tokens = expr.tokens
    close_of, opened = {}, []
    for p, token in enumerate(tokens):
        if token == "(":
            opened.append(p)
        elif token == ")":
            close_of[opened.pop()] = p
    leaves = ((p, p + 1) for p, token in enumerate(tokens) if token not in _SYNTAX)
    out: list[tuple[int, int]] = []
    for op, a, b in expr.rows:
        start, end = next(leaves) if op is None else (out[a][0], out[b][1])
        while close_of.get(start - 1) == end:
            start, end = start - 1, end + 1
        out.append((start, end))
    return out


def render(node: Subexpression) -> str:
    """The candidate's text as written, explicit parentheses included."""
    start, end = spans(node.expr)[node.row]
    return "".join(node.expr.tokens[start:end])


def _canonical_texts(expr: InfixExpression) -> list[str]:
    leaves = (token for token in expr.tokens if token not in _SYNTAX)
    texts: list[str] = []
    for op, a, b in expr.rows:
        texts.append(next(leaves) if op is None else f"({texts[a]}{OP_SYMBOLS[op]}{texts[b]})")
    return texts


def canonical(node: Subexpression) -> str:
    """Fully parenthesised rendering; ignores written parentheses so that
    structurally equal candidates compare equal."""
    return _canonical_texts(node.expr)[node.row]


def subexpressions(expr: InfixExpression) -> list[Subexpression]:
    """Distinct candidates in post-order (first occurrence kept)."""
    first: dict[str, int] = {}
    for row, text in enumerate(_canonical_texts(expr)):
        first.setdefault(text, row)
    return [Subexpression(expr, row) for row in first.values()]


def fitness(
    chrom: IfgpChromosome,
    cases: FitnessCaseSet,
    prims: PrimitiveSet,
    mode: str = "multi",
    store: RowStore | None = None,
) -> tuple[float, int]:
    """Chromosome fitness and the post-order row that provided it (the
    candidate ``Subexpression(decode(chrom, prims), row)``).

    multi: minimum error over every sub-expression; single: the root
    expression only (SS-IFGP).  Either way every row is evaluated exactly
    once, or through a run's ``store`` once per run.
    """
    check_mode(mode)
    expr = decode(chrom, prims)
    errors = (store or RowStore(cases, 0)).errors(expr.rows)
    if mode == "single":
        return errors[-1], len(expr.rows) - 1  # post-order ends at the root
    return best(errors)


def crossover_at(p1: IfgpChromosome, p2: IfgpChromosome, cut1: int, cut2: int) -> tuple[IfgpChromosome, IfgpChromosome]:
    """Two-point recombination at explicit cut points, 0 <= cut1 < cut2 <= L."""
    if len(p1) != len(p2):
        raise ValueError("parents must have equal length")
    if not 0 <= cut1 < cut2 <= len(p1):
        raise ValueError("cut points must satisfy 0 <= cut1 < cut2 <= length")
    a, b = p1.genes, p2.genes
    o1 = a[:cut1] + b[cut1:cut2] + a[cut2:]
    o2 = b[:cut1] + a[cut1:cut2] + b[cut2:]
    return IfgpChromosome(o1), IfgpChromosome(o2)


def crossover_two_point(p1: IfgpChromosome, p2: IfgpChromosome, rng: RandomSource) -> tuple[IfgpChromosome, IfgpChromosome]:
    """Cut pair drawn uniformly over all distinct point pairs in [0, L]."""
    if len(p1) != len(p2):
        raise ValueError("parents must have equal length")
    while True:
        c1 = rng.randint(len(p1) + 1)
        c2 = rng.randint(len(p1) + 1)
        if c1 != c2:
            break
    if c1 > c2:
        c1, c2 = c2, c1
    return crossover_at(p1, p2, c1, c2)


def mutate(chrom: IfgpChromosome, mutations: int, prims: PrimitiveSet, rng: RandomSource) -> IfgpChromosome:
    """Resample ``mutations`` uniformly chosen genes over the full symbol range."""
    if mutations < 0:
        raise ValueError("mutation count cannot be negative")
    genes = list(chrom.genes)
    for _ in range(mutations):
        pos = rng.randint(len(genes))
        genes[pos] = rng.randint(prims.num_symbols)
    return IfgpChromosome(tuple(genes))
