"""Basic trigraph classes and their constructive even-pair finders.

The five basic classes are bipartite trigraphs, line trigraphs of bipartite
graphs, their complements, and doubled trigraphs (those with a good
partition).  Each class has a finder that builds an even pair the way the
structure suggests: same-side vertices for bipartite, good pairs in the
root graph for line trigraphs, a maximal-anticonnected-set descent for the
complement classes, and a partition case split for doubled trigraphs.

Every finder verifies its output against the path-enumeration oracle before
returning it, so a construction bug surfaces as a hard failure rather than
a wrong certificate.  That is the one oracle check a returned pair gets.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .detect import is_even_pair
from .errors import InputError, TheoremContradictionError
from .trigraph import (ANTI, Trigraph, _mask_components, _pruned_masks, bits_of,
                       complement, components, full_realization,
                       graph_from_edges, induced, in_class_F, is_complete,
                       mask_of, switchable_vertices)


# ---------------------------------------------------------------------------
# recognizers


@dataclass(frozen=True)
class GoodPartition:
    """Partition (X, Y) with tiny components on the X side, tiny
    anticomponents on the Y side, no switchable pair across, and at most one
    strong edge and one strong antiedge per vertex between any component and
    anticomponent."""

    x: frozenset[int]
    y: frozenset[int]


@dataclass(frozen=True)
class LineRootCertificate:
    """Bipartite root graph H with, for every trigraph vertex, the root
    edge it represents (the full realization is the line graph of H)."""

    root: Trigraph
    vertex_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BasicClassification:
    verdict: str  # bipartite | complement_bipartite | line | complement_line
    #              | doubled | not_basic
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None
    line_root: LineRootCertificate | None = None
    good_partition: GoodPartition | None = None

    @property
    def is_basic(self) -> bool:
        return self.verdict != "not_basic"


def bipartition_of(T: Trigraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two strongly stable sets covering V, or None.  Each component's
    smallest vertex lands on the first side, so the answer is canonical."""
    side = [-1] * T.n
    for start in range(T.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in bits_of(T.adj[v]):
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    x = frozenset(v for v in range(T.n) if side[v] == 0)
    return x, frozenset(range(T.n)) - x


def _strong_triangles_only(T: Trigraph) -> bool:
    """No triangle has a switchable side: no switchable pair has a common
    neighbor."""
    return not any(T.adj[u] & T.adj[v] for u, v in T.switchable_pairs())


def _forced_cliques(G: Trigraph) -> list[tuple[int, ...]] | None:
    """The edge partition of G into the stars of a triangle-free root, or
    None if there is none.

    In the line graph of a triangle-free graph, the common neighbors of two
    adjacent vertices are the other edges of the root star holding both, so
    the clique through an uncovered edge uv is forced to be {u, v} plus the
    common neighbors of u and v.  Edges are taken in lexicographic order,
    so the cliques come out ordered by their least edge.
    """
    covered = [0] * G.n  # partners each vertex already shares a clique with
    cliques = []
    for u, v in G.strong_edges():
        if covered[u] >> v & 1:
            continue
        clique = 1 << u | 1 << v | (G.strong[u] & G.strong[v])
        for w in bits_of(clique):
            # not a clique, or an edge in two cliques: no root is triangle-free
            if clique & ~G.strong[w] != 1 << w or covered[w] & clique:
                return None
            covered[w] |= clique ^ 1 << w
        cliques.append(tuple(bits_of(clique)))
    return cliques


def _root_from_cliques(G: Trigraph, cliques: list[tuple[int, ...]]) -> LineRootCertificate | None:
    """Build the root graph of an edge-disjoint clique cover; None if a
    vertex lies in three or more cliques or the root is not bipartite."""
    membership: dict[int, list[int]] = {v: [] for v in range(G.n)}
    for i, clique in enumerate(cliques):
        for w in clique:
            membership[w].append(i)
    next_node = len(cliques)
    vertex_edges = []
    for v in range(G.n):
        nodes = membership[v]
        if len(nodes) > 2:
            return None
        while len(nodes) < 2:
            nodes = nodes + [next_node]
            next_node += 1
        vertex_edges.append((nodes[0], nodes[1]))
    root = graph_from_edges(next_node, vertex_edges)
    if bipartition_of(root) is None:
        return None
    return LineRootCertificate(root, tuple(vertex_edges))


def line_root_of(T: Trigraph) -> LineRootCertificate | None:
    """Line-trigraph recognizer: the full realization must be the line
    graph of a bipartite graph and every clique of size three or more must
    be strong.

    A bipartite root has no triangle, so every clique of size three or more
    in its line graph is a star and the clique partition is forced (see
    ``_forced_cliques``); no partition is searched.  Root nodes are numbered
    in the order of the cliques, then one fresh node per missing end."""
    if not _strong_triangles_only(T):
        return None
    G = full_realization(T)
    cliques = _forced_cliques(G)
    return None if cliques is None else _root_from_cliques(G, cliques)


def _small_sides(T: Trigraph, x_mask: int, y_mask: int) -> bool:
    """No switchable pair between ``x_mask`` and ``y_mask``, no vertex of
    ``x_mask`` with two neighbors in it and no vertex of ``y_mask`` with two
    antineighbors in it.  For a whole bipartition that says the components
    of X and the anticomponents of Y have at most two vertices; for parts
    of one it is a necessary condition."""
    switch, adj, anti = T.switch, T.adj, T.anti
    rest = x_mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        inside = adj[v] & x_mask
        if inside & (inside - 1) or switch[v] & y_mask:
            return False
    rest = y_mask
    while rest:
        low = rest & -rest
        rest ^= low
        inside = anti[low.bit_length() - 1] & y_mask
        if inside & (inside - 1):
            return False
    return True


def _good_partition_masks(T: Trigraph, x_mask: int) -> bool:
    y_mask = (1 << T.n) - 1 & ~x_mask
    if not _small_sides(T, x_mask, y_mask):
        return False
    strong, switch, adj, anti = T.strong, T.switch, T.adj, T.anti

    def at_most_one_each(v: int, side: int) -> bool:
        # at most one strong neighbor and one strong antineighbor in side
        return ((strong[v] & side).bit_count() <= 1
                and (anti[v] & ~switch[v] & side).bit_count() <= 1)

    x_masks = _mask_components(adj, x_mask)
    y_masks = _mask_components(anti, y_mask)
    return all(all(at_most_one_each(v, cy) for v in bits_of(cx))
               and all(at_most_one_each(v, cx) for v in bits_of(cy))
               for cx in x_masks for cy in y_masks)


def good_partition_of(T: Trigraph) -> GoodPartition | None:
    """First good partition in increasing X-mask order; the all-one-side
    partitions are tried last so nontrivial certificates are preferred.

    The nontrivial X-masks come from ``_pruned_masks``, which leaves a
    subtree once its fixed parts break ``_small_sides``; no mask it skips is
    good, so the witness is the one a scan of every bipartition would find
    first.  The search stays exponential in the worst case.
    """
    full = (1 << T.n) - 1
    masks = _pruned_masks(T.n, lambda x, y, free: _small_sides(T, x, y))
    for x_mask in itertools.chain(masks, (0, full) if T.n else (0,)):
        if _good_partition_masks(T, x_mask):
            x = frozenset(bits_of(x_mask))
            return GoodPartition(x, frozenset(range(T.n)) - x)
    return None


def classify_basic(T: Trigraph) -> BasicClassification:
    """First matching class in the fixed order bipartite, complement of
    bipartite, line, complement of line, doubled."""
    cert = bipartition_of(T)
    if cert is not None:
        return BasicClassification("bipartite", bipartition=cert)
    co = complement(T)
    cert = bipartition_of(co)
    if cert is not None:
        return BasicClassification("complement_bipartite", bipartition=cert)
    line = line_root_of(T)
    if line is not None:
        return BasicClassification("line", line_root=line)
    line = line_root_of(co)
    if line is not None:
        return BasicClassification("complement_line", line_root=line)
    gp = good_partition_of(T)
    if gp is not None:
        return BasicClassification("doubled", good_partition=gp)
    return BasicClassification("not_basic")


# ---------------------------------------------------------------------------
# favorability


@dataclass(frozen=True)
class FavorabilityVerdict:
    favorable: bool
    failed: str | None = None

    def __bool__(self) -> bool:
        return self.favorable


def _is_clique(T: Trigraph, vertices) -> bool:
    vs = sorted(vertices)
    return all(T.adj[u] >> v & 1 for u, v in itertools.combinations(vs, 2))


def is_favorable(T: Trigraph) -> FavorabilityVerdict:
    """Favorability for class members: at least five vertices, a strongly
    antiadjacent pair avoiding the switchable component, and for a small
    component {x, y} some leftover side T - (D + N(x)) or T - (D + N(y))
    that is not a clique."""
    verdict = in_class_F(T)
    if not verdict.ok:
        raise InputError(f"favorability needs a class member: {verdict.violation}")
    return favorability(T)


def favorability(T: Trigraph) -> FavorabilityVerdict:
    """``is_favorable`` for a trigraph already known to be a class member,
    without checking that again."""
    D = switchable_vertices(T)
    if T.n < 5:
        return FavorabilityVerdict(False, "fewer than five vertices")
    d_mask = mask_of(D)
    has_pair = any(T.anti[u] & ~T.switch[u] & ~d_mask
                   for u in range(T.n) if not d_mask >> u & 1)
    if not has_pair:
        return FavorabilityVerdict(
            False, "no strongly antiadjacent pair avoiding the switchable component")
    if len(D) == 2:
        x, y = sorted(D)
        leftovers = []
        for z in (x, y):
            rest = [v for v in range(T.n) if v not in D and not (T.adj[z] >> v) & 1]
            leftovers.append(rest)
        if all(_is_clique(T, rest) for rest in leftovers):
            return FavorabilityVerdict(
                False, "both leftover sets of the small component are cliques")
    return FavorabilityVerdict(True)


# ---------------------------------------------------------------------------
# even pairs in bipartite trigraphs


def _verify_pair(T: Trigraph, pair: tuple[int, int], need_disjoint: bool,
                 D: frozenset[int], context: str) -> tuple[int, int]:
    u, v = sorted(pair)
    if need_disjoint and ({u, v} & D):
        raise TheoremContradictionError(
            f"{context}: constructed pair ({u}, {v}) meets the switchable component")
    report = is_even_pair(T, u, v)
    if not report.is_even_pair:
        raise TheoremContradictionError(
            f"{context}: constructed pair ({u}, {v}) fails the oracle "
            f"({report.verdict})")
    return (u, v)


def even_pair_bipartite(T: Trigraph, need_disjoint: bool = False) -> tuple[int, int] | None:
    """Two vertices on the same side of the bipartition; with the disjoint
    flag, the sides are searched after removing the switchable component,
    falling back to the cross pair with the isolated end when both reduced
    sides are singletons."""
    cert = bipartition_of(T)
    if cert is None:
        raise InputError("not a bipartite trigraph")
    if is_complete(T):
        return None
    D = switchable_vertices(T) if need_disjoint else frozenset()
    x = sorted(cert[0] - D)
    y = sorted(cert[1] - D)
    if len(x) >= 2:
        pair = (x[0], x[1])
    elif len(y) >= 2:
        pair = (y[0], y[1])
    elif x and y:
        pair = (x[0], y[0])
    else:
        raise TheoremContradictionError(
            "bipartite finder ran out of vertices outside the switchable component")
    return _verify_pair(T, pair, need_disjoint, D, "bipartite finder")


# ---------------------------------------------------------------------------
# good pairs in bipartite roots


@dataclass(frozen=True)
class GoodPairWitness:
    """Disjoint root edges (a1, b1) and (a2, b2), with a1, a2 on one side,
    such that every a1-a2 path meets {b1, b2} and every b1-b2 path meets
    {a1, a2}."""

    edge1: tuple[int, int]
    edge2: tuple[int, int]


def _reachable_avoiding(H: Trigraph, source: int, target: int, avoid: frozenset[int]) -> bool:
    if source in avoid or target in avoid:
        raise InputError("avoid set may not contain the endpoints")
    blocked = mask_of(avoid)
    seen = 1 << source
    frontier = [source]
    while frontier:
        v = frontier.pop()
        for w in bits_of(H.adj[v] & ~blocked & ~seen):
            if w == target:
                return True
            seen |= 1 << w
            frontier.append(w)
    return False


def is_good_pair(H: Trigraph, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Goodness reduces to two disconnection checks: removing {b1, b2} must
    separate a1 from a2, and removing {a1, a2} must separate b1 from b2."""
    if set(e1) & set(e2):
        return False
    coloring = bipartition_of(H)
    if coloring is None:
        raise InputError("good pairs live in bipartite graphs")
    a1, b1 = e1 if e1[0] in coloring[0] else (e1[1], e1[0])
    a2, b2 = e2 if e2[0] in coloring[0] else (e2[1], e2[0])
    if _reachable_avoiding(H, a1, a2, frozenset((b1, b2))):
        return False
    return not _reachable_avoiding(H, b1, b2, frozenset((a1, a2)))


def _oriented(H: Trigraph, e1, e2) -> tuple[tuple[int, int], tuple[int, int]]:
    coloring = bipartition_of(H)
    o1 = e1 if e1[0] in coloring[0] else (e1[1], e1[0])
    o2 = e2 if e2[0] in coloring[0] else (e2[1], e2[0])
    return o1, o2


def _simple_cycles(H: Trigraph) -> list[tuple[int, ...]]:
    """All simple (not necessarily induced) cycles, canonically rooted at
    their smallest vertex with the second vertex below the last."""
    out = []
    n = H.n

    def rec(path, used):
        last = path[-1]
        for w in bits_of(H.adj[last]):
            if w == path[0] and len(path) >= 3 and path[1] < last:
                out.append(tuple(path))
            elif w > path[0] and not (used >> w) & 1:
                rec(path + [w], used | 1 << w)

    for root in range(n):
        rec([root], 1 << root)
    return sorted(out, key=lambda c: (len(c), c))


def _chord_path_exists(H: Trigraph, u: int, w: int, cycle: tuple[int, ...]) -> bool:
    cyc_set = set(cycle)
    cyc_edges = {frozenset((cycle[i], cycle[(i + 1) % len(cycle)]))
                 for i in range(len(cycle))}
    if H.strong[u] >> w & 1 and frozenset((u, w)) not in cyc_edges:
        return True
    outside = [v for v in range(H.n) if v not in cyc_set]
    for comp in components(H, outside, "connected"):
        comp_mask = mask_of(comp)
        if (H.adj[u] & comp_mask) and (H.adj[w] & comp_mask):
            return True
    return False


def _edges_at(H: Trigraph, v: int) -> list[tuple[int, int]]:
    return [tuple(sorted((v, w))) for w in bits_of(H.adj[v])]


def find_good_pair(H: Trigraph, forbidden_interior=frozenset()) -> GoodPairWitness | None:
    """Construct a good pair of the bipartite graph H whose four endpoints
    avoid ``forbidden_interior``.

    The search follows the structure of H: edges in two different
    components are trivially good; trees give a path of length three (or
    the two component edges around the forbidden path); a longest cycle of
    length at least six gives either an alternating edge pair or the end
    edges of a minimal chord-path span; and in graphs whose cycles all have
    length four, an opposite pair of a cycle (or an edge paired with the
    anchor opposite the forbidden vertex) works.  Every candidate is checked
    against the definition before being returned; None is returned only
    when nothing verifies, which under the structural preconditions means
    the line graph is complete.
    """
    if not H.is_graph:
        raise InputError("good pairs live in graphs")
    if bipartition_of(H) is None:
        raise InputError("good pairs live in bipartite graphs")
    forb = frozenset(forbidden_interior)
    allowed = [e for e in H.strong_edges() if not (set(e) & forb)]
    if len(allowed) < 2:
        return None

    def attempt(e1, e2) -> GoodPairWitness | None:
        if set(e1) & forb or set(e2) & forb:
            return None
        if is_good_pair(H, e1, e2):
            o1, o2 = _oriented(H, e1, e2)
            return GoodPairWitness(o1, o2)
        return None

    comps = components(H, None, "connected")
    comps_with_edges = [c for c in comps
                        if any(set(e) <= c for e in allowed)]
    if len(comps_with_edges) >= 2:
        e1 = min(e for e in allowed if set(e) <= comps_with_edges[0])
        e2 = min(e for e in allowed if set(e) <= comps_with_edges[1])
        found = attempt(e1, e2)
        if found:
            return found

    cycles = _simple_cycles(H)

    if not cycles:
        # forest: any path of length three clear of the forbidden set
        for b1, a2 in H.strong_edges():
            for a1, b2 in itertools.product(bits_of(H.adj[b1]), bits_of(H.adj[a2])):
                path = (a1, b1, a2, b2)
                if len(set(path)) == 4 and not (set(path) & forb):
                    found = attempt((a1, b1), (a2, b2))
                    if found:
                        return found
        # both leftover components are stars: take one edge at each end of
        # the forbidden path (the light-component case)
        ends = sorted(v for v in range(H.n)
                      if v not in forb and H.adj[v] & mask_of(forb))
        if len(ends) == 2:
            for e1 in _edges_at(H, ends[0]):
                for e2 in _edges_at(H, ends[1]):
                    found = attempt(e1, e2)
                    if found:
                        return found
        return None

    longest = max(len(c) for c in cycles)
    if longest >= 6:
        cycle = min((c for c in cycles if len(c) == longest), key=lambda c: c)
        k = len(cycle)
        chord_ends = [(i, j) for i, j in itertools.combinations(range(k), 2)
                      if _chord_path_exists(H, cycle[i], cycle[j], cycle)]
        if not chord_ends:
            for start in (0, 1):
                family = [(cycle[i], cycle[(i + 1) % k]) for i in range(start, k, 2)]
                usable = [e for e in family if not (set(e) & forb)]
                for e1, e2 in itertools.combinations(usable, 2):
                    found = attempt(tuple(sorted(e1)), tuple(sorted(e2)))
                    if found:
                        return found
            return None
        j_edges = {frozenset(e) for v in forb for e in _edges_at(H, v)}
        i, j = chord_ends[0]
        arcs = [cycle[i:j + 1], cycle[j:] + cycle[:i + 1]]
        arcs.sort(key=lambda arc: sum(frozenset(p) in j_edges
                                      for p in zip(arc, arc[1:])))
        for arc in arcs:
            for span in range(3, len(arc), 2):
                for s in range(len(arc) - span):
                    u, w = arc[s], arc[s + span]
                    if not _chord_path_exists(H, u, w, cycle):
                        continue
                    e1 = tuple(sorted((arc[s], arc[s + 1])))
                    e2 = tuple(sorted((arc[s + span - 1], arc[s + span])))
                    found = attempt(e1, e2)
                    if found:
                        return found
        return None

    # every cycle is a square: opposite pairs first
    for cycle in cycles:
        for shift in (0, 1):
            e1 = tuple(sorted((cycle[shift], cycle[shift + 1])))
            e2 = tuple(sorted((cycle[(shift + 2) % 4], cycle[(shift + 3) % 4])))
            found = attempt(e1, e2)
            if found:
                return found
    # squares all touch the forbidden vertex: pair an outside edge with the
    # anchor edge opposite it
    for cycle in cycles:
        touched = [v for v in cycle if v in forb]
        if not touched:
            continue
        b1 = touched[0]
        pos = cycle.index(b1)
        b2 = cycle[(pos + 2) % 4]
        anchors = [tuple(sorted((b2, cycle[(pos + 1) % 4]))),
                   tuple(sorted((b2, cycle[(pos + 3) % 4])))]
        for anchor in anchors:
            for e in allowed:
                if set(e) & set(anchor):
                    continue
                found = attempt(e, anchor)
                if found:
                    return found
    return None


# ---------------------------------------------------------------------------
# even pairs in line trigraphs


def even_pair_line(T: Trigraph, need_disjoint: bool = False,
                   cert: LineRootCertificate | None = None) -> tuple[int, int] | None:
    """Lift a good pair of the root graph to an even pair of the line
    trigraph.  With the disjoint flag the root search avoids the interior
    of the short path that carries the switchable component."""
    if cert is None:
        cert = line_root_of(T)
    if cert is None:
        raise InputError("not a line trigraph")
    if is_complete(T):
        return None
    H = cert.root
    edge_to_vertex = {frozenset(e): i for i, e in enumerate(cert.vertex_edges)}
    D = switchable_vertices(T)
    forb: frozenset[int] = frozenset()
    if need_disjoint and D:
        degree = Counter(w for d in sorted(D) for w in cert.vertex_edges[d])
        if sorted(degree.values()) not in ([1, 1, 2], [1, 1, 2, 2]):
            raise TheoremContradictionError(
                "switchable component does not map to a short root path")
        forb = frozenset(w for w, deg in degree.items() if deg == 2)
    witness = find_good_pair(H, forb)
    if witness is None:
        raise TheoremContradictionError(
            "no good pair in the root of a non-complete line trigraph")
    u = edge_to_vertex[frozenset(witness.edge1)]
    v = edge_to_vertex[frozenset(witness.edge2)]
    return _verify_pair(T, (u, v), need_disjoint, D, "line finder")


# ---------------------------------------------------------------------------
# even pairs in the complement classes


def _grow_maximal_anticonnected(T: Trigraph) -> frozenset[int] | None:
    """Greedy lexicographic growth of an anticonnected set M that keeps at
    least two strongly antiadjacent vertices outside complete to M."""
    n = T.n

    def witnesses_exist(m_mask: int) -> bool:
        outside = [v for v in range(n) if not (m_mask >> v) & 1
                   and (T.adj[v] & m_mask) == m_mask]
        return any(T.value(u, v) == ANTI
                   for u, v in itertools.combinations(outside, 2))

    seed = None
    for v in range(n):
        if witnesses_exist(1 << v):
            seed = 1 << v
            break
    if seed is None:
        for u, v in itertools.combinations(range(n), 2):
            if T.anti[u] >> v & 1 and witnesses_exist(1 << u | 1 << v):
                seed = 1 << u | 1 << v
                break
    if seed is None:
        return None
    m_mask = seed
    grown = True
    while grown:
        grown = False
        for v in range(n):
            if (m_mask >> v) & 1:
                continue
            candidate = m_mask | 1 << v
            anticonnected = len(components(T, bits_of(candidate), "anticonnected")) == 1
            if anticonnected and witnesses_exist(candidate):
                m_mask = candidate
                grown = True
                break
    return frozenset(bits_of(m_mask))


def _co_class_descent(T: Trigraph) -> tuple[int, int]:
    """Even pair of a non-complete complement-of-bipartite or
    complement-of-line trigraph, by recursing into the common neighborhood
    of a maximal anticonnected set."""
    comps = components(T, None, "connected")
    if len(comps) >= 2:
        first = min(comps, key=min)
        rest = sorted(set(range(T.n)) - first)
        u = min(first)
        pair = (u, rest[0]) if u < rest[0] else (rest[0], u)
        return pair
    M = _grow_maximal_anticonnected(T)
    if M is None:
        raise TheoremContradictionError(
            "no anticonnected set with two antiadjacent common neighbors")
    m_mask = mask_of(M)
    c_set = [v for v in range(T.n) if not (m_mask >> v) & 1
             and (T.adj[v] & m_mask) == m_mask]
    sub = induced(T, c_set)
    if is_complete(sub):
        raise TheoremContradictionError("common neighborhood came out complete")
    inner = _co_class_descent(sub)
    return tuple(sorted(sub.parent_vertices[p] for p in inner))


def even_pair_co_classes(T: Trigraph, need_disjoint: bool = False) -> tuple[int, int] | None:
    """Even pairs in complements of bipartite and of line trigraphs.

    With a small switchable component {x, y} and the disjoint flag, the
    neighborhoods N(x) and N(y) are stable here, and two vertices inside
    one of them form an even pair; otherwise the maximal anticonnected-set
    descent applies."""
    co = complement(T)
    if bipartition_of(co) is None and line_root_of(co) is None:
        raise InputError("not the complement of a bipartite or line trigraph")
    if is_complete(T):
        return None
    D = switchable_vertices(T)
    if need_disjoint and D:
        if len(D) != 2:
            raise TheoremContradictionError(
                "light switchable component inside a complement class")
        for z in sorted(D):
            nbrs = sorted(set(bits_of(T.adj[z])) - D)
            for s, t in itertools.combinations(nbrs, 2):
                if T.value(s, t) != ANTI or {s, t} & D:
                    continue
                if is_even_pair(T, s, t).is_even_pair:
                    return (s, t)
        pair = _co_class_descent(T)
        if not (set(pair) & D) and is_even_pair(T, *pair).is_even_pair:
            return pair
        raise TheoremContradictionError(
            "no stable-neighborhood even pair beside a small component")
    pair = _co_class_descent(T)
    return _verify_pair(T, pair, need_disjoint, D, "complement-class finder")


# ---------------------------------------------------------------------------
# even pairs in doubled trigraphs


def _doubled_candidates(T: Trigraph, gp: GoodPartition, D: frozenset[int]):
    """Candidate pairs in the order the doubled-graph case split suggests."""
    x_sorted = sorted(gp.x)
    y_sorted = sorted(gp.y)
    comps = components(T, None, "connected")
    if len(comps) >= 2:
        first = min(comps, key=min)
        rest = sorted(set(range(T.n)) - first)
        yield (min(first), rest[0])
    x_comps = components(T, gp.x, "connected") if gp.x else []
    y_anticomps = components(T, gp.y, "anticonnected") if gp.y else []
    size2 = [tuple(sorted(c)) for c in x_comps if len(c) == 2]
    singles = [next(iter(c)) for c in y_anticomps if len(c) == 1]
    # side-X edge against a singleton anticomponent: the antineighbor pairs
    for x1, x2 in sorted(size2, key=lambda c: (c in (tuple(sorted(D)),), c)):
        for v in sorted(singles):
            for xi in (x2, x1):
                if T.value(v, xi) == ANTI:
                    yield tuple(sorted((v, xi)))
    # a third X-vertex with an antineighbor in Y (the favorable construction)
    if D and D <= gp.x:
        for x3 in x_sorted:
            if x3 in D:
                continue
            for y1 in y_sorted:
                if T.value(x3, y1) == ANTI:
                    yield tuple(sorted((x3, y1)))
    # two-element Y against the matched X edge, and X-side pairs
    for yi in y_sorted:
        for x in x_sorted:
            if T.value(yi, x) == ANTI:
                yield tuple(sorted((yi, x)))
    for p, q in itertools.combinations(y_sorted, 2):
        if T.value(p, q) == ANTI:
            yield (p, q)
    for p, q in itertools.combinations(x_sorted, 2):
        if T.value(p, q) == ANTI:
            yield (p, q)


def even_pair_doubled(T: Trigraph, need_disjoint: bool = False,
                      partition: GoodPartition | None = None) -> tuple[int, int] | None:
    """Even pairs in doubled trigraphs by the partition case split;
    candidates are generated in proof order and each is checked against the
    oracle, so only a true even pair is ever returned."""
    gp = partition or good_partition_of(T)
    if gp is None:
        raise InputError("not a doubled trigraph")
    if is_complete(T):
        return None
    D = switchable_vertices(T)
    if D and len(D) != 2:
        raise TheoremContradictionError(
            "a doubled trigraph cannot carry a light switchable component")
    seen = set()
    for pair in _doubled_candidates(T, gp, D):
        if pair in seen:
            continue
        seen.add(pair)
        u, v = pair
        if T.value(u, v) != ANTI:
            continue
        if need_disjoint and ({u, v} & D):
            continue
        if is_even_pair(T, u, v).is_even_pair:
            return pair
    raise TheoremContradictionError("doubled finder exhausted its case split")


# ---------------------------------------------------------------------------
# dispatch and root sanity checks


def even_pair_basic(T: Trigraph, need_disjoint: bool = False,
                    classification: BasicClassification | None = None
                    ) -> tuple[int, int] | None:
    """Even pair of a basic trigraph (None when complete), dispatching to
    the class finder picked by classify_basic."""
    c = classification or classify_basic(T)
    if not c.is_basic:
        raise InputError("not a basic trigraph")
    if is_complete(T):
        return None
    if c.verdict == "bipartite":
        return even_pair_bipartite(T, need_disjoint)
    if c.verdict in ("complement_bipartite", "complement_line"):
        return even_pair_co_classes(T, need_disjoint)
    if c.verdict == "line":
        return even_pair_line(T, need_disjoint, c.line_root)
    return even_pair_doubled(T, need_disjoint, c.good_partition)


@dataclass(frozen=True)
class RootPropertyReport:
    even_theta: tuple | None
    has_k4_minor: bool

    @property
    def ok(self) -> bool:
        return self.even_theta is None and not self.has_k4_minor


def _simple_paths(H: Trigraph, u: int, v: int) -> list[tuple[int, ...]]:
    out = []

    def rec(path, used):
        last = path[-1]
        for w in bits_of(H.adj[last]):
            if w == v:
                out.append(tuple(path) + (v,))
            elif not (used >> w) & 1:
                rec(path + [w], used | 1 << w)

    rec([u], 1 << u | 1 << v)
    return out


def _find_even_theta(H: Trigraph) -> tuple | None:
    for u, v in itertools.combinations(range(H.n), 2):
        evens = [p for p in _simple_paths(H, u, v) if (len(p) - 1) % 2 == 0]
        for trio in itertools.combinations(evens, 3):
            interiors = [set(p[1:-1]) for p in trio]
            if (not interiors[0] & interiors[1]
                    and not interiors[0] & interiors[2]
                    and not interiors[1] & interiors[2]):
                return (u, v, trio)
    return None


def has_k4_minor(H: Trigraph) -> bool:
    """Series-parallel test by reduction: delete loops and low-degree
    vertices, merge parallel edges, contract degree-two vertices; a stuck
    nonempty remainder has minimum degree three and therefore a K4 minor."""
    adj: dict[int, Counter] = {v: Counter() for v in range(H.n)}
    for u, v in H.strong_edges():
        adj[u][v] += 1
        adj[v][u] += 1
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            nbrs = adj[v]
            if v in nbrs:
                del nbrs[v]
                changed = True
            for w in list(nbrs):
                if nbrs[w] > 1:
                    nbrs[w] = 1
                    adj[w][v] = 1
                    changed = True
            degree = sum(nbrs.values())
            if degree <= 1:
                for w in list(nbrs):
                    del adj[w][v]
                del adj[v]
                changed = True
            elif degree == 2:
                w1, w2 = list(nbrs)
                del adj[w1][v]
                del adj[w2][v]
                adj[w1][w2] += 1
                adj[w2][w1] += 1
                del adj[v]
                changed = True
    return bool(adj)


def verify_root_properties(H: Trigraph) -> RootPropertyReport:
    """Roots of odd-prism-free line trigraphs must have no even-theta
    subgraph and no K4 minor; the report lists what was found."""
    return RootPropertyReport(_find_even_theta(H), has_k4_minor(H))
