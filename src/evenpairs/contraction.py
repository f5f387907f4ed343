"""Even-pair contraction for graphs, contraction sequences, and colorings.

Contracting an even pair {u, v} replaces the two vertices by one whose
neighborhood is the union of theirs; for Berge graphs this preserves both
Bergeness and the clique number, which is what makes the coloring unwind
work.  Contraction is defined for graphs only; realize a trigraph first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .canonical import canonical_form
from .detect import is_berge, is_even_pair
from .errors import InputError, NonBergeError, NotEvenPairError
from .trigraph import ANTI, Trigraph, bits_of, clique_number, is_complete, renumber


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
    outcome: str  # "complete" | "stuck" | "inconclusive"

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
    at min(u, v)); vertices above max(u, v) shift down by one.  The result's
    ``parent_vertices`` maps each new index to its source, with the merged
    slot mapping to min(u, v).
    """
    if not G.is_graph:
        raise InputError("contraction is defined for graphs only")
    if u == v:
        raise InputError("contraction pair must be two distinct vertices")
    report = is_even_pair(G, u, v)
    if not report.is_even_pair:
        raise NotEvenPairError(
            f"({u}, {v}) is not an even pair ({report.verdict})", report.witness)
    u, v = min(u, v), max(u, v)
    keep = [w for w in range(G.n) if w != v]
    strong = list(G.strong)
    strong[u] = (G.strong[u] | G.strong[v]) & ~(1 << u | 1 << v)
    for w in bits_of(strong[u]):
        strong[w] |= 1 << u
    return Trigraph(renumber(strong, keep), [0] * len(keep),
                    parent_vertices=tuple(keep))


def _least_even_pair(G: Trigraph) -> tuple[int, int] | None:
    for u, v in itertools.combinations(range(G.n), 2):
        if G.value(u, v) == ANTI and is_even_pair(G, u, v).is_even_pair:
            return (u, v)
    return None


def _all_even_pairs(G: Trigraph) -> list[tuple[int, int]]:
    return [(u, v) for u, v in itertools.combinations(range(G.n), 2)
            if G.value(u, v) == ANTI and is_even_pair(G, u, v).is_even_pair]


def _step(G: Trigraph, pair: tuple[int, int]) -> ContractionStep:
    after = contract_even_pair(G, *pair)
    return ContractionStep(G, pair, min(pair), after)


def run_contraction_sequence(G: Trigraph, strategy: str = "first_found",
                             depth_cap: int | None = None) -> ContractionSequence:
    """Contract even pairs until none remain.

    ``first_found`` greedily contracts the least even pair.  The
    ``exhaustive_search_for_complete`` strategy backtracks over pair choices
    looking for a sequence whose terminal is complete, returning the first
    such sequence or, failing that, the greedy stuck sequence.  A depth cap
    below the natural bound (vertex count) yields outcome "inconclusive".
    """
    if strategy not in ("first_found", "exhaustive_search_for_complete"):
        raise InputError(f"unknown strategy {strategy!r}")
    berge, witness = is_berge(G)
    if not berge:
        raise NonBergeError("contraction sequences require a Berge graph", witness)
    cap = G.n if depth_cap is None else depth_cap

    def greedy(start: Trigraph) -> ContractionSequence:
        steps: list[ContractionStep] = []
        current = start
        while len(steps) < cap:
            pair = _least_even_pair(current)
            if pair is None:
                outcome = "complete" if is_complete(current) else "stuck"
                return ContractionSequence(tuple(steps), current, outcome)
            steps.append(_step(current, pair))
            current = steps[-1].after
        if _least_even_pair(current) is None:
            outcome = "complete" if is_complete(current) else "stuck"
        else:
            outcome = "inconclusive"
        return ContractionSequence(tuple(steps), current, outcome)

    if strategy == "first_found":
        return greedy(G)

    dead_ends: set[bytes] = set()

    def search(current: Trigraph, steps: list[ContractionStep]) -> ContractionSequence | None:
        if is_complete(current):
            return ContractionSequence(tuple(steps), current, "complete")
        if len(steps) >= cap:
            return None
        key = canonical_form(current)
        if key in dead_ends:
            return None
        for pair in _all_even_pairs(current):
            step = _step(current, pair)
            steps.append(step)
            found = search(step.after, steps)
            if found is not None:
                return found
            steps.pop()
        dead_ends.add(key)
        return None

    found = search(G, [])
    return found if found is not None else greedy(G)


def is_even_contractile(G: Trigraph) -> tuple[bool, ContractionSequence]:
    seq = run_contraction_sequence(G, "exhaustive_search_for_complete")
    return seq.outcome == "complete", seq


def derive_coloring(seq: ContractionSequence) -> Coloring:
    """Unwind a complete-terminal sequence into a proper coloring of the
    original graph; for Berge inputs the color count equals the clique
    number, and that equality is asserted here."""
    if seq.outcome != "complete":
        raise InputError(f"cannot derive a coloring from outcome {seq.outcome!r}")
    colors = {v: v for v in range(seq.terminal.n)}
    for step in reversed(seq.steps):
        u, v = step.pair
        lifted = {}
        for new_index, old_index in enumerate(step.after.parent_vertices):
            lifted[old_index] = colors[new_index]
        lifted[v] = lifted[min(u, v)]
        colors = lifted
    original = seq.initial
    assignment = tuple(colors[v] for v in range(original.n))
    for x, y in original.strong_edges():
        if assignment[x] == assignment[y]:
            raise AssertionError(f"unwound coloring is not proper on edge ({x}, {y})")
    count = len(set(assignment))
    if count != seq.terminal.n:
        raise AssertionError("color count does not match the terminal clique")
    if is_berge(original)[0] and count != clique_number(original):
        raise AssertionError("coloring does not use clique-number many colors")
    return Coloring(assignment, count)
