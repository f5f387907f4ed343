#!/usr/bin/env python3
"""2-joins, skew-partitions, and blocks of decomposition.

A 2-join splits the vertex set into two sides connected only by two
complete bipartite bundles A1-A2 and B1-B2.  The block of one side keeps
that side and replaces the other with marker vertices whose switchable
pairs remember the parity of the missing paths: two markers joined by a
switchable pair for an odd join, a three-vertex switchable path for an even
one.  Even pairs of a block that avoid the markers are even pairs of the
whole trigraph, which is what makes the decomposition useful.
"""

from evenpairs import (build_block, find_2join, find_balanced_skew_partition,
                       find_star_cutset, full_realization, is_even_pair,
                       iter_2joins, join_parity, to_text)
from evenpairs.families import cycle, path_graph

# The path P4 has a star cutset (its two middle vertices), which for Berge
# trigraphs always yields a balanced skew-partition.
star = find_star_cutset(path_graph(4))
print("P4 star cutset:", sorted(star.b), "center", star.star)
bsp = find_balanced_skew_partition(path_graph(4))
print("P4 balanced skew-partition:", sorted(bsp.a), "/", sorted(bsp.b))

# The 8-hole: no skew-partition, but a proper odd 2-join.
c8 = cycle(8)
split = find_2join(c8)
print("C8 split: A1", sorted(split.a1), "B1", sorted(split.b1),
      "C1", sorted(split.c1), "parity", join_parity(c8, split))

# Its block is a 6-hole with one switchable pair: the two markers a, b
# stand in for the removed side, and their switchable pair remembers that
# the removed paths were odd.
block = build_block(c8, split, 1)
print("block kind:", block.kind, "markers:", block.markers)
print(to_text(block.trigraph))
print("full realization degrees:",
      sorted(m.bit_count() for m in full_realization(block.trigraph).adj))

# A block even pair away from the markers lifts to the parent.
pair = (0, 2)
print("block pair", pair, "->",
      is_even_pair(block.trigraph, *pair).verdict)
lifted = tuple(block.parent_map[v] for v in pair)
print("lifted pair", lifted, "->", is_even_pair(c8, *lifted).verdict)

# Even joins get light markers: the 10-hole split through five vertices.
c10 = cycle(10)
split10 = next(s for s in iter_2joins(c10) if s.x1 == {0, 1, 2, 3, 4})
block10 = build_block(c10, split10, 1)
print("C10 join parity:", split10.parity, "-> marker kind:", block10.kind)
print("light block realizes as an 8-cycle:",
      sorted(m.bit_count() for m in full_realization(block10.trigraph).adj))
