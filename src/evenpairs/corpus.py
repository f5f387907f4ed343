"""Instance corpora for the exhaustive harness and the test suite.

Graphs are enumerated up to isomorphism by augmentation: every graph on n
vertices arises from one on n-1 vertices by attaching a new vertex with an
arbitrary neighborhood, so extending the level-(n-1) representatives with
all 2^(n-1) neighborhoods and deduplicating by canonical form yields exactly
one representative per isomorphism class.  A child's form is computed from
its masks, and a Trigraph is built only for a child whose form is new.

Two neighborhoods in one orbit of the base's automorphism group give
isomorphic children, so only the first of each orbit, in integer order, is
labeled (the orbit pruning of McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  The first child of each class is always the first of
its orbit, so the output is the one that labeling every child gives,
element by element; this holds for any subgroup of the group, so the
generators need not span it.  Planting likewise tries one pair per orbit,
in ``itertools.combinations`` order.

Random samples on n vertices keep the first draw of each isomorphism class.
A draw needs a canonical form only when an earlier draw shares its degree
invariant (``_degree_invariant``); graphs whose invariants differ are not
isomorphic, so most draws of a small sample are kept without one.

Trigraph instances come from planting a legal switchable component into a
graph: either one pair turned semiadjacent ("small") or a fresh degree-two
vertex attached by two switchable pairs ("light").
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .canonical import canonical_form, mask_automorphisms, mask_labeling
from .trigraph import ANTI, Trigraph, bits_of, in_class_F, make_trigraph


def _orbit_firsts(items, gens: list[tuple[int, ...]], image):
    """The items, in order, that come first in their orbit under the group
    generated by ``gens``; ``image(g, item)`` is the item g maps it to.

    Each item yielded marks its whole orbit, the closure of the item under
    the generators, so a later orbit mate is skipped.
    """
    seen = set()
    for item in items:
        if item in seen:
            continue
        yield item
        seen.add(item)
        stack = [item]
        while stack:
            x = stack.pop()
            for g in gens:
                y = image(g, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)


def _mask_image(g: tuple[int, ...], mask: int) -> int:
    out = 0
    for v in bits_of(mask):
        out |= 1 << g[v]
    return out


def _pair_image(g: tuple[int, ...], pair: tuple[int, int]) -> tuple[int, int]:
    u, v = g[pair[0]], g[pair[1]]
    return (u, v) if u < v else (v, u)


@lru_cache(maxsize=None)
def graphs_of_order(n: int) -> tuple[Trigraph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n <= 1:
        return (make_trigraph(n),)
    out: dict[bytes, Trigraph] = {}
    switch = [0] * n
    for base in graphs_of_order(n - 1):
        gens = mask_automorphisms(base.strong, base.switch)
        for nbhd in _orbit_firsts(range(1 << (n - 1)), gens, _mask_image):
            strong = list(base.strong) + [nbhd]
            for v in bits_of(nbhd):
                strong[v] |= 1 << (n - 1)
            form = mask_labeling(strong, switch)[0]
            if form not in out:
                out[form] = Trigraph(strong, switch)
    return tuple(out.values())


def graphs_upto(n_max: int) -> list[Trigraph]:
    """All graphs with 1..n_max vertices, up to isomorphism."""
    out: list[Trigraph] = []
    for n in range(1, n_max + 1):
        out.extend(graphs_of_order(n))
    return out


def _degree_invariant(G: Trigraph) -> tuple:
    """The sorted multiset over the vertices of G of (degree, then the
    number of neighbors in each degree class of G, by increasing degree);
    isomorphic graphs share it.  The degree classes are masks, so each
    count is one ``bit_count``.  Given the degrees of G, the counts are the
    sorted neighbor degrees, so two graphs share it exactly when they share
    the sorted multiset of (degree, sorted neighbor degrees)."""
    adj = G.adj
    degree = [m.bit_count() for m in adj]
    classes = [0] * len(adj)
    for v, d in enumerate(degree):
        classes[d] |= 1 << v
    return tuple(sorted(zip(degree, *[[(m & c).bit_count() for m in adj]
                                      for c in classes if c])))


def random_canonical_graphs(n: int, count: int, seed: int = 0) -> list[Trigraph]:
    """``count`` distinct (up to isomorphism) random graphs on n vertices.

    Sampling draws uniform labeled graphs, one coin flip per pair in
    lexicographic order set straight into the strong masks, and keeps the
    first draw of each new isomorphism class, in draw order, so the classes
    are whatever the labeled distribution hits first.  Draws are bucketed by
    ``_degree_invariant``: the first draw of a bucket is kept without a
    canonical form, and the bucket computes forms (each graph's at most
    once) only when a second draw lands in it.  The result is the one that
    keeping a draw exactly when its canonical form is new gives.
    """
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    switch = [0] * n
    # invariant -> its only draw so far (form not yet needed) or the forms
    buckets: dict[tuple, Trigraph | set[bytes]] = {}
    kept: list[Trigraph] = []
    attempts = 0
    limit = 400 * count
    while len(kept) < count:
        attempts += 1
        if attempts > limit:
            raise RuntimeError(
                f"could not collect {count} distinct graphs on {n} vertices")
        strong = [0] * n
        for u, v in pairs:
            if rng.random() < 0.5:
                strong[u] |= 1 << v
                strong[v] |= 1 << u
        G = Trigraph(strong, switch)
        key = _degree_invariant(G)
        forms = buckets.get(key)
        if forms is None:
            buckets[key] = G
            kept.append(G)
            continue
        if isinstance(forms, Trigraph):
            forms = buckets[key] = {canonical_form(forms)}
        form = canonical_form(G)
        if form not in forms:
            forms.add(form)
            kept.append(G)
    return kept


def plant_small(G: Trigraph, u: int, v: int) -> Trigraph:
    """Copy of G with the pair {u, v} made switchable."""
    strong, switch = list(G.strong), list(G.switch)
    for x, y in ((u, v), (v, u)):
        strong[x] &= ~(1 << y)
        switch[x] |= 1 << y
    return Trigraph(strong, switch)


def plant_light(G: Trigraph, x: int, y: int) -> Trigraph:
    """G plus a fresh vertex attached to x and y by switchable pairs only."""
    n = G.n
    switch = list(G.switch) + [1 << x | 1 << y]
    switch[x] |= 1 << n
    switch[y] |= 1 << n
    return Trigraph(list(G.strong) + [0], switch)


@lru_cache(maxsize=None)
def planted_class_f_trigraphs(max_base_n: int) -> tuple[Trigraph, ...]:
    """Class-F members with a nonempty switchable component, one per
    isomorphism class, planted into every graph on <= max_base_n vertices."""
    out: dict[bytes, Trigraph] = {}
    for G in graphs_upto(max_base_n):
        pairs = list(_orbit_firsts(itertools.combinations(range(G.n), 2),
                                   mask_automorphisms(G.strong, G.switch),
                                   _pair_image))
        for u, v in pairs:
            T = plant_small(G, u, v)
            if in_class_F(T).ok:
                out.setdefault(canonical_form(T), T)
        for u, v in pairs:
            if G.value(u, v) != ANTI or (G.adj[u] & G.adj[v]):
                continue
            T = plant_light(G, u, v)
            if in_class_F(T).ok:
                out.setdefault(canonical_form(T), T)
    return tuple(out.values())
