#!/usr/bin/env python3
"""Coloring a Berge graph by contracting even pairs.

Contracting an even pair merges its two vertices into one that inherits
both neighborhoods.  On Berge graphs this preserves Bergeness and the
clique number, so a contraction sequence that ends in a complete graph
unwinds into an optimal coloring: color the terminal clique, then give both
ends of each contracted pair the color of their merged vertex.
"""

from evenpairs import clique_number, derive_coloring, run_contraction_sequence
from evenpairs.families import cycle, complete_graph

# The 4-cycle contracts twice and ends complete.
seq = run_contraction_sequence(cycle(4))
print("C4 contraction steps:")
for step in seq.steps:
    print(f"  contract {step.pair} -> {sorted(step.after.strong_edges())}")
print("outcome:", seq.outcome, "terminal size:", seq.terminal.n)

coloring = derive_coloring(seq)
print("coloring of C4:", coloring.assignment,
      "using", coloring.color_count, "colors")
assert coloring.color_count == clique_number(cycle(4))

# Bigger even holes contract too; the search backtracks over the choice
# of pair until a complete-ending sequence appears.
seq = run_contraction_sequence(cycle(8))
print("C8 even-contractile:", seq.outcome == "complete", "in", len(seq.steps), "steps")
print("coloring of C8:", derive_coloring(seq).assignment)

# A complete graph is trivially even-contractile: zero steps.
seq = run_contraction_sequence(complete_graph(4))
print("K4 steps:", len(seq.steps), "coloring:",
      derive_coloring(seq).assignment)
