"""Multi Expression Programming: linear chromosomes whose genes reference
earlier genes, decoded in one top-down pass so every gene doubles as a
candidate solution.  Single-solution mode (SEP) reads only the last gene.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    OP_SYMBOLS,
    FitnessCaseSet,
    PrimitiveSet,
    RandomSource,
    RowTable,
    check_mode,
    evaluate_rows,
)

#: chance that a freshly sampled gene (past position 0) encodes a function
P_FUNCTION = 0.5


class MepGene(NamedTuple):
    """One chromosome position, and already a row of the shared evaluator.

    ``op is None`` marks a terminal gene, with ``arg1`` holding the terminal
    index.  Function genes store backward positions of both operands, which
    must stay strictly below the gene's own position.
    """

    op: str | None
    arg1: int
    arg2: int = 0

    @classmethod
    def terminal(cls, index: int) -> "MepGene":
        return cls(op=None, arg1=index)

    @classmethod
    def function(cls, op: str, arg1: int, arg2: int) -> "MepGene":
        return cls(op=op, arg1=arg1, arg2=arg2)

    @property
    def is_terminal(self) -> bool:
        return self.op is None


@dataclass(frozen=True)
class MepChromosome:
    genes: tuple[MepGene, ...]

    def __len__(self) -> int:
        return len(self.genes)


def _random_gene(position: int, prims: PrimitiveSet, rng: RandomSource) -> MepGene:
    # position 0 is forced to a terminal, so no function/terminal coin there
    if position > 0 and rng.random() < P_FUNCTION:
        op = prims.functions[rng.randint(len(prims.functions))]
        return MepGene.function(op, rng.randint(position), rng.randint(position))
    return MepGene.terminal(rng.randint(len(prims.terminals)))


def random_chromosome(length: int, prims: PrimitiveSet, rng: RandomSource) -> MepChromosome:
    if length < 1:
        raise ValueError("chromosome length must be at least 1")
    return MepChromosome(tuple(_random_gene(i, prims, rng) for i in range(length)))


def decode(chrom: MepChromosome, cases: FitnessCaseSet) -> RowTable:
    """Evaluate every encoded expression in a single top-down pass.

    Row i holds E_i's outputs over all cases.  A row is valid only if its
    whole dependency cone stayed finite; invalidity propagates to every
    expression built on top of it.
    """
    return evaluate_rows(chrom.genes, cases.inputs.T, cases)


def fitness(chrom: MepChromosome, cases: FitnessCaseSet, mode: str = "multi") -> tuple[float, int]:
    """Chromosome fitness and the gene index that provided it.

    multi: minimum error over all encoded expressions (ties to the lowest
    gene index).  single: the last gene's expression only, as in SEP.
    """
    check_mode(mode)
    table = decode(chrom, cases)
    if mode == "single":
        return float(table.errors[-1]), len(chrom) - 1
    return table.best()


def crossover_with_mask(p1: MepChromosome, p2: MepChromosome, mask) -> tuple[MepChromosome, MepChromosome]:
    """Uniform recombination under an explicit mask.

    ``mask[i]`` True means offspring 1 takes gene i from parent 1; offspring 2
    always receives the complementary gene.
    """
    if len(p1) != len(p2):
        raise ValueError("parents must have equal length")
    mask = list(mask)
    if len(mask) != len(p1):
        raise ValueError("mask length must match the parents")
    o1 = tuple(a if take else b for take, a, b in zip(mask, p1.genes, p2.genes))
    o2 = tuple(b if take else a for take, a, b in zip(mask, p1.genes, p2.genes))
    return MepChromosome(o1), MepChromosome(o2)


def crossover_uniform(p1: MepChromosome, p2: MepChromosome, rng: RandomSource) -> tuple[MepChromosome, MepChromosome]:
    """Fair-coin uniform recombination (one coin per position, in order)."""
    if len(p1) != len(p2):
        raise ValueError("parents must have equal length")
    mask = [rng.coin() for _ in range(len(p1))]
    return crossover_with_mask(p1, p2, mask)


def mutate(chrom: MepChromosome, mutations: int, prims: PrimitiveSet, rng: RandomSource) -> MepChromosome:
    """Resample ``mutations`` uniformly chosen positions (with replacement).

    Each hit position is redrawn exactly as in random initialisation, so a
    terminal may become a function and vice versa; position 0 stays terminal.
    """
    if mutations < 0:
        raise ValueError("mutation count cannot be negative")
    genes = list(chrom.genes)
    for _ in range(mutations):
        pos = rng.randint(len(genes))
        genes[pos] = _random_gene(pos, prims, rng)
    return MepChromosome(tuple(genes))


def render(chrom: MepChromosome, prims: PrimitiveSet) -> str:
    """Tabular dump, one 1-based line per gene (``3: + 1, 2``)."""
    lines = []
    for i, g in enumerate(chrom.genes):
        if g.is_terminal:
            lines.append(f"{i + 1}: {prims.terminals[g.arg1]}")
        else:
            lines.append(f"{i + 1}: {OP_SYMBOLS[g.op]} {g.arg1 + 1}, {g.arg2 + 1}")
    return "\n".join(lines)


def expression(chrom: MepChromosome, index: int, prims: PrimitiveSet) -> str:
    """Infix rendering of E_index, compound operands parenthesised."""
    g = chrom.genes[index]
    if g.is_terminal:
        return prims.terminals[g.arg1]
    left = expression(chrom, g.arg1, prims)
    if not chrom.genes[g.arg1].is_terminal:
        left = f"({left})"
    right = expression(chrom, g.arg2, prims)
    if not chrom.genes[g.arg2].is_terminal:
        right = f"({right})"
    return f"{left}{OP_SYMBOLS[g.op]}{right}"
