"""Instance corpora for the exhaustive harness and the test suite.

Graphs are enumerated up to isomorphism by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Every graph on
n vertices is a graph on n-1 vertices plus a new vertex, so each level-(n-1)
representative is extended by neighborhoods of a new vertex n-1, and a
child is kept only when n-1 is its canonical deletion vertex: among the
vertices with the largest (degree, neighbor degree sum), the one that comes
last in the canonical order.  Its orbit is fixed by the child's
isomorphism class, and deleting it gives one class of parents, so each
class is kept from exactly one parent.  Two neighborhoods in one
orbit of the parent's automorphism group give isomorphic children, so only
the first of each orbit, in integer order, is tried; for this to keep each
class once, the generators must span the whole group, which the search's do
(``mask_automorphisms``).  Most children are decided by the invariant
alone: a child is labeled only when another vertex ties with n-1, and no
form is kept, so each representative is its parent plus vertex n-1.

Random samples on n vertices keep the first draw of each isomorphism class.
A draw needs a canonical form only when an earlier draw shares its degree
invariant (``_degree_invariant``); graphs whose invariants differ are not
isomorphic, so most draws of a small sample are kept without one.

Trigraph instances come from planting a legal switchable component into a
graph: either one pair turned semiadjacent ("small") or a fresh degree-two
vertex attached by two switchable pairs ("light").  A plant determines its
base and its pair's orbit, so planting also needs no canonical form.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .canonical import canonical_form, mask_automorphisms
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
    last = n - 1
    switch = [0] * n
    out: list[Trigraph] = []
    for base in graphs_of_order(last):
        adj = base.strong
        degree = [m.bit_count() for m in adj]
        # the base's vertices by degree, and each one's neighbor degree sum
        by_degree = [0] * n
        for v, d in enumerate(degree):
            by_degree[d] |= 1 << v
        top = max(degree)
        sums = [sum(degree[w] for w in bits_of(m)) for m in adj]
        # the new vertex must have the largest (degree, neighbor degree sum)
        # of the child, so at least the degree of every old vertex there.
        # That test holds for a whole orbit or none of it, so it comes first
        # and orbits are closed only among its passers
        wide = (nbhd for nbhd in range(1 << last)
                if nbhd.bit_count() >= (top + 1 if nbhd & by_degree[top] else top))
        for nbhd in _orbit_firsts(wide, mask_automorphisms(adj, base.switch)[1],
                                  _mask_image):
            # on a tie in degree d, compare sums with the old vertices of
            # degree d in the child, whose sums gain a 1 per neighbor in
            # nbhd, and d if in nbhd themselves
            d = nbhd.bit_count()
            tied = 0
            if d == (top + 1 if nbhd & by_degree[top] else top):
                total = d + sum(degree[w] for w in bits_of(nbhd))
                same = by_degree[d] & ~nbhd | (by_degree[d - 1] & nbhd if d else 0)
                rivals = [(sums[v] + (adj[v] & nbhd).bit_count()
                           + (d if nbhd >> v & 1 else 0), v) for v in bits_of(same)]
                if max(rivals)[0] > total:
                    continue
                tied = sum(1 << v for s, v in rivals if s == total)
            strong = list(adj) + [nbhd]
            for v in bits_of(nbhd):
                strong[v] |= 1 << last
            if tied:
                # keep the child only when the new vertex is in the orbit of
                # the tied vertex that comes last in the canonical order,
                # that is, when it is not the first of a second orbit
                perm, gens = mask_automorphisms(strong, switch)
                chosen = next(v for v in reversed(perm)
                              if v == last or tied >> v & 1)
                if len(list(_orbit_firsts((chosen, last), gens,
                                          tuple.__getitem__))) > 1:
                    continue
            out.append(Trigraph(strong, switch))
    return tuple(out)


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
    isomorphism class, planted into every graph on <= max_base_n vertices.

    A small plant on a strongly antiadjacent pair is the small plant on the
    same pair of the base with that pair made strongly adjacent, so small
    components go on strongly adjacent pairs only.  A plant then determines
    its base: the full realization of a small plant, and a light plant
    minus the middle vertex of its switchable path.  So two plants are
    isomorphic exactly when they have the same base and kind and their pairs
    share an orbit of the base's automorphism group, and one plant per
    orbit needs no canonical form.
    """
    out: list[Trigraph] = []
    for G in graphs_upto(max_base_n):
        pairs = list(_orbit_firsts(itertools.combinations(range(G.n), 2),
                                   mask_automorphisms(G.strong, G.switch)[1],
                                   _pair_image))
        for u, v in pairs:
            if G.strong[u] >> v & 1:
                T = plant_small(G, u, v)
                if in_class_F(T).ok:
                    out.append(T)
        for u, v in pairs:
            if G.value(u, v) != ANTI or (G.adj[u] & G.adj[v]):
                continue
            T = plant_light(G, u, v)
            if in_class_F(T).ok:
                out.append(T)
    return tuple(out)
