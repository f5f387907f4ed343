"""Builders for the small graph families used throughout tests and demos."""

from __future__ import annotations

import itertools

from .errors import InputError
from .trigraph import Trigraph, graph_from_edges, make_trigraph


def empty_graph(n: int) -> Trigraph:
    return make_trigraph(n)


def complete_graph(n: int) -> Trigraph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Trigraph:
    if n < 3:
        raise InputError("cycles need at least three vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Trigraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Trigraph:
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def prism3() -> Trigraph:
    """Two triangles {0,1,2} and {3,4,5} joined by the matching i -- i+3."""
    tri = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return graph_from_edges(6, tri + [(i, i + 3) for i in range(3)])


def line_graph(H: Trigraph) -> tuple[Trigraph, tuple[tuple[int, int], ...]]:
    """Line graph of a graph H, plus the edge each line vertex represents.

    Line vertices are H's edges in lexicographic order; two are adjacent
    exactly when the edges share an endpoint.
    """
    if not H.is_graph:
        raise InputError("line_graph expects a graph")
    edges = H.strong_edges()
    adj = [(i, j) for i, j in itertools.combinations(range(len(edges)), 2)
           if set(edges[i]) & set(edges[j])]
    return graph_from_edges(len(edges), adj), tuple(edges)
