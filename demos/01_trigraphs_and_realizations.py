#!/usr/bin/env python3
"""Trigraphs, switchable pairs, and realizations.

A trigraph assigns each vertex pair one of three codes: strongly adjacent
(+1), strongly antiadjacent (-1), or switchable (0).  A switchable pair is
an "undecided" edge: realizations decide every switchable pair one way or
the other, and a graph is just a trigraph with nothing left to decide.
"""

from evenpairs import (complement, components, full_realization, in_class_F,
                       iter_paths, make_trigraph, realization,
                       switchable_components, to_text)
from evenpairs.families import cycle

# A 6-hole in which one pair is left switchable.
hole = make_trigraph(6, [(i, (i + 1) % 6, 1) for i in range(5)] + [(5, 0, 0)])
print("six-hole with one switchable pair:")
print(to_text(hole))

# Realizations: decide the switchable pair off (a path) or on (the hole).
off = realization(hole, [])
on = full_realization(hole)
print("switched off ->", sorted(off.strong_edges()))
print("switched on  ->", sorted(on.strong_edges()))

# The complement negates every code; twice brings the trigraph back.
assert complement(complement(hole)) == hole
print("complement is an involution: ok")

# Semiadjacent pairs count as adjacent for connectivity and as antiadjacent
# for anticonnectivity, so this trigraph is connected either way you read
# the switchable pair.
print("components:", components(hole))
print("switchable components:", switchable_components(hole))

# Paths in a trigraph are sequences with consecutive vertices adjacent and
# all other pairs antiadjacent.  Between opposite vertices of the hole every
# path is even; that is what makes them an even pair later on.
print("paths from 1 to 3:", list(iter_paths(hole, 1, 3)))

# The restricted switchable structure this library works with: at most one
# switchable component, either a single pair with disjoint neighborhoods
# ("small") or a two-edge path with a hidden center ("light").
print("membership:", in_class_F(hole))
print("a plain even hole is a member too:", in_class_F(cycle(6)).ok)
