"""Even-pair contraction for graphs, contraction sequences, and colorings.

Contracting an even pair {u, v} replaces the two vertices by one whose
neighborhood is the union of theirs; this preserves the clique number,
and for Berge graphs Bergeness too, which is what makes the coloring unwind
work.  Contraction is defined for graphs only; realize a trigraph first.
A contraction sequence ends "complete" (its terminal is a clique, so it
unwinds into an optimal coloring) or "stuck" (no even pair is left).
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import canonical_form
from .detect import even_pairs, is_berge, is_even_pair
from .errors import InputError, NonBergeError, NotEvenPairError, TheoremContradictionError
from .trigraph import Trigraph, bits_of, clique_number, is_complete


@dataclass(frozen=True)
class ContractionStep:
    before: Trigraph
    pair: tuple[int, int]
    merged_vertex: int
    after: Trigraph


@dataclass(frozen=True)
class ContractionSequence:
    steps: tuple[ContractionStep, ...]
    terminal: Trigraph
    outcome: str  # "complete" | "stuck"

    @property
    def initial(self) -> Trigraph:
        return self.steps[0].before if self.steps else self.terminal


@dataclass(frozen=True)
class Coloring:
    assignment: tuple[int, ...]
    color_count: int


def contract_even_pair(G: Trigraph, u: int, v: int) -> Trigraph:
    """The graph G / {u, v}.

    The merged vertex takes the smaller of the two freed indices (so it sits
    at min(u, v)); vertices above max(u, v) shift down by one.
    """
    if not G.is_graph:
        raise InputError("contraction is defined for graphs only")
    if u == v:
        raise InputError("contraction pair must be two distinct vertices")
    report = is_even_pair(G, u, v)
    if not report.is_even_pair:
        raise NotEvenPairError(
            f"({u}, {v}) is not an even pair ({report.verdict})", report.witness)
    return _merge(G, min(u, v), max(u, v))


def _merge(G: Trigraph, u: int, v: int) -> Trigraph:
    """G / {u, v} for a pair u < v already known to be even."""
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
    contracts the least even pair.
    """
    berge, witness = is_berge(G)
    if not berge:
        raise NonBergeError("contraction sequences require a Berge graph", witness)
    dead_ends: set[bytes] = set()
    stuck: list[ContractionSequence] = []

    def search(current: Trigraph, steps: list[ContractionStep]) -> ContractionSequence | None:
        if is_complete(current):
            return ContractionSequence(tuple(steps), current, "complete")
        # the key matters only once a dead end is known or this node is one
        key = canonical_form(current) if dead_ends else None
        if key in dead_ends:
            return None
        for u, v in even_pairs(current):
            steps.append(ContractionStep(current, (u, v), u, _merge(current, u, v)))
            found = search(steps[-1].after, steps)
            if found is not None:
                return found
            steps.pop()
        if not stuck:
            # the first graph exhausted ends the first descent, which took
            # the least even pair at every step and has none left here
            stuck.append(ContractionSequence(tuple(steps), current, "stuck"))
        dead_ends.add(canonical_form(current) if key is None else key)
        return None

    found = search(G, [])
    return found if found is not None else stuck[0]


def is_even_contractile(G: Trigraph) -> tuple[bool, ContractionSequence]:
    seq = run_contraction_sequence(G)
    return seq.outcome == "complete", seq


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
    original = seq.initial
    assignment = tuple(colors)
    for x, y in original.strong_edges():
        if assignment[x] == assignment[y]:
            raise TheoremContradictionError(f"unwound coloring is not proper on edge ({x}, {y})")
    count = len(set(assignment))
    if count != clique_number(original):
        raise TheoremContradictionError("coloring does not use clique-number many colors")
    return Coloring(assignment, count)
