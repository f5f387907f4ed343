"""Contraction sequences of graphs, and the colorings they unwind into.

Contracting an even pair {u, v} replaces the two vertices by one whose
neighborhood is the union of theirs; this preserves the clique number,
and for Berge graphs Bergeness too, which is what makes the coloring unwind
work.  Contraction is defined for graphs only; realize a trigraph first.
A contraction sequence ends "complete" (its terminal is a clique, so it
unwinds into an optimal coloring) or "stuck" (no even pair is left); a
graph is even-contractile exactly when ``run_contraction_sequence`` ends
complete.  Its search draws each graph's pairs from ``detect.even_pairs``,
which has checked each one with the oracle.
"""

from __future__ import annotations

from .canonical import canonical_form
from .detect import even_pairs, is_berge
from .errors import InputError, NonBergeError, TheoremContradictionError
from .trigraph import Trigraph, _Record, bits_of, clique_number, is_complete


class ContractionStep(_Record):
    def __init__(self, pair: tuple[int, int], after: Trigraph):
        self.__dict__.update(pair=pair, after=after)


class ContractionSequence(_Record):
    """The input graph and the steps contracted from it, each pair an even
    pair of the graph before it; the terminal is the last graph."""

    def __init__(self, initial: Trigraph, steps: tuple[ContractionStep, ...],
                 outcome: str):  # "complete" | "stuck"
        self.__dict__.update(initial=initial, steps=steps, outcome=outcome)

    @property
    def terminal(self) -> Trigraph:
        return self.steps[-1].after if self.steps else self.initial


class Coloring(_Record):
    def __init__(self, assignment: tuple[int, ...], color_count: int):
        self.__dict__.update(assignment=assignment, color_count=color_count)


def _merge(G: Trigraph, u: int, v: int) -> Trigraph:
    """The graph G / {u, v} for an even pair u < v: the merged vertex sits
    at u, and the vertices above v shift down by one."""
    strong = list(G.strong)
    strong[u] = (G.strong[u] | G.strong[v]) & ~(1 << u | 1 << v)
    for w in bits_of(strong[u]):
        strong[w] |= 1 << u
    del strong[v]
    # drop bit v from every row: the bits below stay, the bits above shift down
    below = (1 << v) - 1
    return Trigraph([m & below | m >> 1 & ~below for m in strong], [0] * (G.n - 1))


def run_contraction_sequence(G: Trigraph) -> ContractionSequence:
    """Contract even pairs, looking for a sequence that ends complete.

    A depth-first search takes the even pairs of each graph in lexicographic
    order and skips graphs already known, up to isomorphism, to lead
    nowhere.  It returns the first complete sequence found or, failing
    that, the first stuck one, which is the greedy sequence that always
    contracts the least even pair.  A trigraph raises InputError, and a
    non-Berge graph NonBergeError.
    """
    if not G.is_graph:
        raise InputError("contraction sequences require a graph input")
    berge, witness = is_berge(G)
    if not berge:
        raise NonBergeError("contraction sequences require a Berge graph", witness)
    dead_ends: set[bytes] = set()
    stuck: list[ContractionSequence] = []

    def search(current: Trigraph, steps: list[ContractionStep]) -> ContractionSequence | None:
        if is_complete(current):
            return ContractionSequence(G, tuple(steps), "complete")
        # the key matters only once a dead end is known or this node is one
        key = canonical_form(current) if dead_ends else None
        if key in dead_ends:
            return None
        for u, v in even_pairs(current):
            steps.append(ContractionStep((u, v), _merge(current, u, v)))
            found = search(steps[-1].after, steps)
            if found is not None:
                return found
            steps.pop()
        if not stuck:
            # the first graph exhausted ends the first descent, which took
            # the least even pair at every step and has none left here
            stuck.append(ContractionSequence(G, tuple(steps), "stuck"))
        dead_ends.add(canonical_form(current) if key is None else key)
        return None

    found = search(G, [])
    return found if found is not None else stuck[0]


def derive_coloring(seq: ContractionSequence) -> Coloring:
    """Unwind a complete-terminal sequence into a proper coloring of the
    original graph: the terminal, which must be a clique, gives its vertex
    v color v, and each step, undone in reverse, puts v of its pair u < v
    back at index v with u's color.  Contracting an even pair keeps the clique number of any graph,
    so the color count equals it, and that equality is checked here."""
    if seq.outcome != "complete":
        raise InputError(f"cannot derive a coloring from outcome {seq.outcome!r}")
    if not is_complete(seq.terminal):
        raise TheoremContradictionError("terminal of a complete sequence is not a clique")
    colors = list(range(seq.terminal.n))
    for step in reversed(seq.steps):
        u, v = step.pair
        colors[v:v] = [colors[u]]
    assignment = tuple(colors)
    for x, y in seq.initial.strong_edges():
        if assignment[x] == assignment[y]:
            raise TheoremContradictionError(f"unwound coloring is not proper on edge ({x}, {y})")
    count = len(set(assignment))
    if count != clique_number(seq.initial):
        raise TheoremContradictionError("coloring does not use clique-number many colors")
    return Coloring(assignment, count)
