#!/usr/bin/env python3
"""The five basic classes and the even-pair finder that serves them all.

Basic trigraphs are bipartite trigraphs, line trigraphs of bipartite
graphs, their complements, and doubled trigraphs.  ``classify_basic`` names
the first class that fits, with a certificate, and ``even_pair_basic``
works from that certificate.  Bipartite trigraphs take two same-side
vertices of the bipartition.  A line trigraph lifts the first good pair of
its root graph from a lexicographic scan over pairs of disjoint root edges;
the complement classes and doubled trigraphs take the first pair of the
lazy oracle scan over their strongly antiadjacent pairs.
"""

from evenpairs import (classify_basic, even_pair_basic, find_good_pair,
                       good_partition_of, is_even_pair, line_root_of,
                       verify_root_properties)
from evenpairs.basic import favorability
from evenpairs.families import (complete_bipartite, cycle, line_graph,
                                path_graph, prism3)

# Classification runs through a fixed order, bipartite first, because the
# classes overlap; forced queries inspect a single recognizer.
print("C6:", classify_basic(cycle(6)).verdict)
print("3-prism:", classify_basic(prism3()).verdict)
print("  ... but it is also a line trigraph, root degrees:",
      sorted(m.bit_count() for m in line_root_of(prism3()).root.adj))

# Doubled trigraphs have a good partition: tiny components on one side,
# tiny anticomponents on the other, matching-like strong edges across.
print("C4 good partition:", good_partition_of(cycle(4)))

# Good pairs in a bipartite root: two disjoint edges such that every path
# between the matching endpoints passes through the other edge.  They lift
# to even pairs of the line graph.
h = path_graph(4)
w = find_good_pair(h)
print("good pair of the length-3 path:", w.edge1, w.edge2)
lg, edges = line_graph(cycle(8))
pair = even_pair_basic(lg)
print("even pair of L(C8):", pair, is_even_pair(lg, *pair).verdict)

# Roots of odd-prism-free line trigraphs have no even theta subgraph and no
# K4 minor; K_{2,3} is exactly the even theta, so it must be flagged.
print("K_{2,3} root report ok:", verify_root_properties(complete_bipartite(2, 3)).ok)
print("C8 root report ok:", verify_root_properties(cycle(8)).ok)

# Favorability: at least five vertices, a strongly antiadjacent pair away
# from the switchable component, and a non-clique leftover for small
# components; favorable members have even pairs avoiding their switchable
# component.  The engine asks only about class members, which C6 is.
print("C6 favorable:", favorability(cycle(6)).favorable)
pair = even_pair_basic(cycle(6))
print("even pair of C6:", pair)
