"""Infix Form Genetic Programming: unconstrained integer genomes decoded by a
modulo-driven state machine into valid infix expressions, repaired at the end
when the raw translation stops mid-expression.  Every sub-expression is a
candidate solution; ``decode`` lists them in post-order, as rows or as the
ids of a run's row store.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
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

_SYNTAX = {"(", ")", *SYMBOL_OPS}  # every token that is not a terminal

#: menu code of '(' on the operator stack; ``PrimitiveSet.infix_menu`` ends in its precedence
_OPEN = -1

#: what the translation reads after the genes: the repair step, then a ')' per open group
_TAIL = repeat(None)


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


class LoweredExpression(NamedTuple):
    """A chromosome decoded through a row store: its tokens, the store id of
    each post-order sub-expression (root last) and the store's errors by id."""

    tokens: list[str]
    ids: list[int]
    errors: list[float]


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


def decode(chrom: IfgpChromosome, prims: PrimitiveSet,
           store: RowStore | None = None) -> InfixExpression | LoweredExpression:
    """Translate genes left to right, then repair into a valid expression.

    Each gene selects (modulo the number of possibilities) among the symbols
    the previous symbol permits: a terminal or '(' where an operand is due,
    else an operator or, inside a group, ')'.  The last gene is never
    translated: if the raw expression ends in an operator or '(', it names
    the terminal appended by the repair step; unclosed parentheses are then
    closed.

    An operator stack (shunting-yard) reduces the sub-expressions in the same
    pass, in post-order.  The whole expression is a group of its own, so ')'
    and the end of the genes both reduce down to the '(' below them.
    Through a ``store``, a terminal is its case input's row and each reduce
    step interns ``(op, id_a, id_b)`` in the store's id table; the
    sub-expressions come back as store ids, with the store's errors.
    Without one, they come back as local post-order rows ``(op, a, b)``.
    """
    genes = chrom.genes
    if len(genes) < 2 or min(genes) < 0 or max(genes) >= prims.num_symbols:
        validate_chromosome(chrom, prims)
    terminals, functions = prims.terminals, prims.functions
    symbols, precedence = prims.infix_menu
    n_terminals, n_operators = len(terminals), len(functions)
    lowering = store is not None
    if lowering:
        start = store.reserve(len(genes))  # at most one new row per gene
        ids, input_ids = store.ids, store.input_ids
        new: list[tuple] = []
    tokens: list[str] = []
    post: list = []              # each sub-expression's row, or store id
    operands: list[int] = []     # the row or id of each finished operand
    pending: list[int] = [_OPEN]  # menu codes not yet reduced; the expression's own group at the bottom
    surplus = 0
    operand_due = True
    for gene in chain(genes[:-1], _TAIL):
        if operand_due:
            if gene is None:  # repair: the last gene names the terminal
                gene = genes[-1] % n_terminals
            k = gene % (n_terminals + 1)
            if k < n_terminals:
                tokens.append(terminals[k])
                if lowering:
                    i = input_ids[k]
                    post.append(i)
                else:
                    i = len(post)
                    post.append((None, k, 0))
                operands.append(i)
                operand_due = False
            else:
                tokens.append("(")
                pending.append(_OPEN)
                surplus += 1
            continue
        # an operator, or ')' (code n_operators): from the genes, then one per open group
        k = n_operators if gene is None else gene % (n_operators + (surplus > 0))
        p = precedence[k]
        while precedence[pending[-1]] >= p:
            right = operands.pop()
            key = (functions[pending.pop()], operands[-1], right)
            if lowering:
                i = ids.get(key)
                if i is None:
                    i = ids[key] = start + len(new)
                    new.append(key)
                post.append(i)
            else:
                i = len(post)
                post.append(key)
            operands[-1] = i
        if k < n_operators:
            tokens.append(symbols[k])
            pending.append(k)
            operand_due = True
        else:
            pending.pop()
            if not surplus:  # that was the whole expression's group
                break
            tokens.append(")")
            surplus -= 1
    if not lowering:
        return InfixExpression(tuple(tokens), tuple(post))
    # a binary tree of n leaves has n - 1 operators
    return LoweredExpression(tokens, post, store.commit(start, new, (), len(post) // 2))


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
    _, ids, errors = decode(chrom, prims, store or RowStore(cases, 0))
    if mode == "single":
        return errors[ids[-1]], len(ids) - 1  # post-order ends at the root
    return best([errors[i] for i in ids])


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
