"""
From integer genes to an infix expression
=========================================

Genes index a menu of grammar symbols that depends on what came before:
after an operator or '(' only terminals and '(' are allowed, after a
terminal or ')' only operators and, while a group is open, ')'.  Gene
values span the whole symbol set and wrap onto the current menu modulo
its size, so every genome decodes to a valid expression.
"""

from multigp import ifgp
from multigp.core import PrimitiveSet, RandomSource

prims = PrimitiveSet(terminals=("a", "b"))

chrom = ifgp.IfgpChromosome((7, 3, 2, 0, 5, 2))
expr = ifgp.decode(chrom, prims)
print(f"genes  {chrom.genes}")
print(f"tokens {' '.join(expr.tokens)}")
print(f"text   {expr.text}")

# every distinct sub-expression competes as a candidate
for node in ifgp.subexpressions(expr):
    print(f"  candidate {ifgp.canonical(node)}")

# at the start the menu is ["a", "b", "("], so genes 1, 4, 7 all pick "b"
print()
for gene in (1, 4, 7):
    one = ifgp.decode(ifgp.IfgpChromosome((gene, 0, 0)), prims)
    print(f"first gene {gene} -> {one.text}")

# a genome that stops inside a group is repaired with closing parentheses
repaired = ifgp.decode(ifgp.IfgpChromosome((2, 0, 0)), prims)
print(f"repaired genome -> {repaired.text}")

# random genomes decode too; length is genes, not tokens
x_prims = PrimitiveSet.for_inputs(1)
genome = ifgp.random_chromosome(20, x_prims, RandomSource(5))
decoded = ifgp.decode(genome, x_prims)
print(f"\nrandom genome of 20 genes -> {decoded.text}")
