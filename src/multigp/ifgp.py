"""Infix Form Genetic Programming: unconstrained integer genomes decoded by a
modulo-driven state machine into valid infix expressions, repaired at the end
when the raw translation stops mid-expression.  Every sub-expression of the
parsed tree is a candidate solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    OP_SYMBOLS,
    SYMBOL_OPS,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    check_mode,
    evaluate_rows,
)

_START = "start"
_VARIABLE = "variable"
_OPERATOR = "operator"
_OPEN = "open"
_CLOSE = "close"

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


@dataclass(frozen=True)
class IfgpChromosome:
    """Fixed-length integer genome; the last gene only feeds the repair step."""

    genes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.genes)


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


@dataclass
class InfixExpression:
    """A decoded chromosome: its tokens and the post-order rows ``(op, a, b)``
    of its tree (``op is None`` marks terminal ``a``), root last."""

    tokens: tuple[str, ...]
    rows: tuple[tuple, ...]

    @property
    def text(self) -> str:
        return "".join(self.tokens)

    @cached_property
    def root(self) -> Var | Bin:
        """The parse tree, built on first use; evaluation never needs it."""
        return _parse(self.tokens)

    @cached_property
    def nodes(self) -> list[Var | Bin]:
        """Tree nodes in post-order: node i is row i."""
        return list(_postorder(self.root))


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


def _classify(symbol: str) -> str:
    if symbol == "(":
        return _OPEN
    if symbol == ")":
        return _CLOSE
    if symbol in SYMBOL_OPS:
        return _OPERATOR
    return _VARIABLE


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


def validate_tokens(tokens, prims: PrimitiveSet) -> None:
    """Raise ValueError unless the token list is category-legal and balanced."""
    prev = _START
    surplus = 0
    for i, tok in enumerate(tokens):
        cat = _classify(tok)
        if cat == _VARIABLE and tok not in prims.terminals:
            raise ValueError(f"token {i}: unknown symbol {tok!r}")
        if prev in (_START, _OPERATOR, _OPEN):
            allowed = (_VARIABLE, _OPEN)
        else:
            allowed = (_OPERATOR, _CLOSE) if surplus > 0 else (_OPERATOR,)
        if cat not in allowed:
            raise ValueError(f"token {i}: {tok!r} not permitted after {prev}")
        if cat == _OPEN:
            surplus += 1
        elif cat == _CLOSE:
            surplus -= 1
        prev = cat
    if surplus != 0:
        raise ValueError("unbalanced parentheses")
    if prev not in (_VARIABLE, _CLOSE):
        raise ValueError("expression ends mid-phrase")


def _parse(tokens) -> Var | Bin:
    """Precedence-climbing parse; explicit parentheses are kept on the nodes
    so an in-order walk reproduces the token list exactly."""
    pos = 0

    def parse_expr(min_prec: int):
        nonlocal pos
        node = parse_atom()
        while pos < len(tokens) and tokens[pos] in _PRECEDENCE and _PRECEDENCE[tokens[pos]] >= min_prec:
            op = tokens[pos]
            pos += 1
            node = Bin(op, node, parse_expr(_PRECEDENCE[op] + 1))
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
        if tok == ")" or tok in _PRECEDENCE:
            raise ValueError(f"unexpected token {tok!r}")
        return Var(tok)

    root = parse_expr(1)
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return root


def tokens_of(node: Var | Bin) -> list[str]:
    """In-order token sequence of a node, explicit parentheses included."""
    if isinstance(node, Var):
        body = [node.name]
    else:
        body = tokens_of(node.left) + [node.op] + tokens_of(node.right)
    return ["("] * node.parens + body + [")"] * node.parens


def render(node: Var | Bin) -> str:
    return "".join(tokens_of(node))


def canonical(node: Var | Bin) -> str:
    """Fully parenthesised rendering; ignores stored parentheses so that
    structurally equal sub-trees compare equal."""
    if isinstance(node, Var):
        return node.name
    return f"({canonical(node.left)}{node.op}{canonical(node.right)})"


def _postorder(node):
    if isinstance(node, Bin):
        yield from _postorder(node.left)
        yield from _postorder(node.right)
    yield node


def subexpressions(expr: InfixExpression) -> list[Var | Bin]:
    """Distinct sub-trees in post-order (first occurrence kept)."""
    seen = set()
    out = []
    for node in expr.nodes:
        key = canonical(node)
        if key not in seen:
            seen.add(key)
            out.append(node)
    return out


def fitness(
    chrom: IfgpChromosome,
    cases: FitnessCaseSet,
    prims: PrimitiveSet,
    mode: str = "multi",
) -> tuple[float, int]:
    """Chromosome fitness and the post-order row that provided it (the
    node ``decode(chrom, prims).nodes[row]``).

    multi: minimum error over every sub-tree; single: the root expression
    only (SS-IFGP).  Either way every node is evaluated exactly once.
    """
    check_mode(mode)
    expr = decode(chrom, prims)
    table = evaluate_rows(expr.rows, cases.inputs.T, cases)
    if mode == "single":
        return float(table.errors[-1]), len(expr.rows) - 1  # post-order ends at the root
    return table.best()


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
