#!/usr/bin/env python3
"""Odd holes, antiholes, prisms, and even pairs, all with witnesses.

Every detector here is an exhaustive search that returns a checkable
witness: a hole as its cyclic vertex list, a prism as two triangles plus
three rungs, an even-pair verdict together with the number of paths it
inspected or the odd path that kills it.
"""

from evenpairs import (even_pairs, find_antihole_of_length_at_least,
                       find_odd_hole, find_prism, is_berge, is_even_pair)
from evenpairs.families import complete_bipartite, cycle, line_graph, prism3

# C5 is the smallest odd hole; C6 is Berge; C7 is an odd hole again.
print("odd hole in C5:", find_odd_hole(cycle(5)).vertices)
print("odd hole in C6:", find_odd_hole(cycle(6)))
berge, witness = is_berge(cycle(7))
print("C7 Berge:", berge, "witness:", witness.kind, witness.vertices)

# The 3-prism: two triangles joined by three rungs of length one, so all
# rungs are odd and the prism is odd.
witness = find_prism(prism3(), "odd")
print("prism cliques:", witness.cliques, "parity:", witness.parity)

# The line graph of K_{2,3} is the classic odd prism source.
lg, _ = line_graph(complete_bipartite(2, 3))
print("odd prism in L(K_{2,3}):", find_prism(lg, "odd") is not None)

# Antiholes of length at least six: the 3-prism carries one (its complement
# is the 6-hole), the 6-hole itself does not.
print("antihole >= 6 in the prism:", find_antihole_of_length_at_least(prism3(), 6).length)
print("antihole >= 6 in C6:", find_antihole_of_length_at_least(cycle(6), 6))

# Even pairs: strongly antiadjacent vertices all of whose connecting paths
# are even.  On graphs the verdict is re-derived through a second route (a
# degree-two gadget vertex and an odd-hole search) and the two must agree.
report = is_even_pair(cycle(6), 0, 2)
print("C6 (0,2):", report.verdict, "after", report.path_count, "paths")
report = is_even_pair(cycle(6), 0, 3)
print("C6 (0,3):", report.verdict, "witness", report.witness.vertices)

# The lazy scan checks the strongly antiadjacent pairs lexicographically.
print("least even pair of C6:", next(even_pairs(cycle(6)), None))
