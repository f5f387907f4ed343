"""Basic trigraph classes and the one even-pair finder for them.

The five basic classes are bipartite trigraphs, line trigraphs of bipartite
graphs, their complements, and doubled trigraphs (those with a good
partition).  ``classify_basic`` names the first class that fits, with its
certificate, and ``even_pair_basic`` works from that certificate without
recognizing the class again.  Bipartite trigraphs take two same-side
vertices.  Line trigraphs lift the first good pair of the root graph, from
a scan of all pairs of disjoint allowed root edges in lexicographic order,
so a good pair is missed only when none exists.  The complement classes
and doubled trigraphs take the first even pair of the lazy oracle scan of
all strongly antiadjacent pairs.

Every returned pair has passed the path-enumeration oracle once: a
constructed pair is checked before it is returned, so a construction bug
surfaces as a hard failure rather than a wrong certificate, and the scan
returns only pairs the oracle accepted.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .detect import even_pairs, is_even_pair
from .errors import InputError, TheoremContradictionError
from .trigraph import (Trigraph, _is_clique, _mask_components, _pruned_masks,
                       _reach, _Record, bits_of, complement, full_realization,
                       is_complete, mask_of, switchable_vertices)


# ---------------------------------------------------------------------------
# recognizers


class GoodPartition(_Record):
    """Partition (X, Y) with tiny components on the X side, tiny
    anticomponents on the Y side, no switchable pair across, and at most one
    strong edge and one strong antiedge per vertex between any component and
    anticomponent."""

    def __init__(self, x: frozenset[int], y: frozenset[int]):
        self.__dict__.update(x=x, y=y)


class LineRootCertificate(_Record):
    """Bipartite root graph H with, for every trigraph vertex, the root
    edge it represents (the full realization is the line graph of H).
    ``side`` is the first color class of ``bipartition_of(H)``, kept so
    that the good-pair scan does not color H again."""

    def __init__(self, root: Trigraph, vertex_edges: tuple[tuple[int, int], ...],
                 side: frozenset[int]):
        self.__dict__.update(root=root, vertex_edges=vertex_edges, side=side)


class BasicClassification(_Record):
    # verdict: bipartite | complement_bipartite | line | complement_line
    #          | doubled | not_basic
    def __init__(self, verdict: str,
                 bipartition: tuple[frozenset[int], frozenset[int]] | None = None,
                 line_root: LineRootCertificate | None = None,
                 good_partition: GoodPartition | None = None):
        self.__dict__.update(verdict=verdict, bipartition=bipartition, line_root=line_root,
                             good_partition=good_partition)

    @property
    def is_basic(self) -> bool:
        return self.verdict != "not_basic"


def bipartition_of(T: Trigraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two strongly stable sets covering V, or None.  Each component's
    smallest vertex s lands on the first side, so the answer is canonical:
    a connected bipartite component has no other 2-coloring.

    One ``_reach`` from s on the bipartite double cover, where vertex v + n
    stands for v reached by a walk of odd length, gives the even and the
    odd breadth-first layers of the component.  An odd cycle puts some
    vertex in both, and otherwise the two are the sides; that one
    stability check decides the component.
    """
    n = T.n
    cover = [m << n for m in T.adj] + list(T.adj)
    x = 0
    rest = (1 << n) - 1
    while rest:
        reached = _reach(cover, rest | rest << n, rest & -rest)
        even, odd = reached & rest, reached >> n
        if even & odd:
            return None
        x |= even
        rest ^= even | odd
    x_set = frozenset(bits_of(x))
    return x_set, frozenset(range(n)) - x_set


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
    adj = [0] * next_node
    for a, b in vertex_edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    root = Trigraph(adj, [0] * next_node)
    coloring = bipartition_of(root)
    if coloring is None:
        return None
    return LineRootCertificate(root, tuple(vertex_edges), coloring[0])


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
    first.  The search stays exponential in the worst case.  The parent's
    parts passed, so the step looks only at the vertex v fixed last: a
    switchable pair from v across, two neighbors of v on its side
    (antineighbors on the Y side), or the one it may have there, which had
    none before v came.
    """
    n, switch, adj, anti = T.n, T.switch, T.adj, T.anti

    def step(ok, x_fixed: int, y_fixed: int, free: int) -> bool:
        v = free.bit_length()  # fixed last; n at the root
        if v == n:
            return True
        bit = 1 << v
        side, other, near = ((x_fixed, y_fixed, adj) if x_fixed & bit
                             else (y_fixed, x_fixed, anti))
        inside = near[v] & side
        return not (switch[v] & other or inside and (
            inside & (inside - 1) or near[inside.bit_length() - 1] & side != bit))

    full = (1 << n) - 1
    masks = (x for x, _ in _pruned_masks(n, step, True))
    for x_mask in itertools.chain(masks, (0, full) if n else (0,)):
        if _good_partition_masks(T, x_mask):
            x = frozenset(bits_of(x_mask))
            return GoodPartition(x, frozenset(range(n)) - x)
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


class FavorabilityVerdict(_Record):
    def __init__(self, favorable: bool, failed: str | None = None):
        self.__dict__.update(favorable=favorable, failed=failed)


def favorability(T: Trigraph) -> FavorabilityVerdict:
    """Favorability for a trigraph already known to be a class member,
    which is not checked again: at least five vertices, a strongly
    antiadjacent pair avoiding the switchable component, and for a small
    component {x, y} some leftover side T - (D + N(x)) or T - (D + N(y))
    that is not a clique."""
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
        rest = (1 << T.n) - 1 & ~d_mask
        if all(_is_clique(T.adj, rest & ~T.adj[z]) for z in D):
            return FavorabilityVerdict(
                False, "both leftover sets of the small component are cliques")
    return FavorabilityVerdict(True)


# ---------------------------------------------------------------------------
# good pairs in bipartite roots


class GoodPairWitness(_Record):
    """Disjoint root edges (a1, b1) and (a2, b2), with a1, a2 on one side,
    such that every a1-a2 path meets {b1, b2} and every b1-b2 path meets
    {a1, a2}."""

    def __init__(self, edge1: tuple[int, int], edge2: tuple[int, int]):
        self.__dict__.update(edge1=edge1, edge2=edge2)


def _good_witness(H: Trigraph, side: frozenset[int], e1: tuple[int, int],
                  e2: tuple[int, int]) -> GoodPairWitness | None:
    """The disjoint edges e1, e2 of the bipartite graph H oriented with a1,
    a2 in ``side``, if they form a good pair.  Goodness reduces to two
    disconnection checks: removing {b1, b2} must separate a1 from a2, and
    removing {a1, a2} must separate b1 from b2."""
    a1, b1 = e1 if e1[0] in side else (e1[1], e1[0])
    a2, b2 = e2 if e2[0] in side else (e2[1], e2[0])
    full = (1 << H.n) - 1
    if (_reach(H.adj, full ^ (1 << b1 | 1 << b2), 1 << a1) >> a2 & 1
            or _reach(H.adj, full ^ (1 << a1 | 1 << a2), 1 << b1) >> b2 & 1):
        return None
    return GoodPairWitness((a1, b1), (a2, b2))


def find_good_pair(H: Trigraph, forbidden_interior=frozenset()) -> GoodPairWitness | None:
    """First good pair of the bipartite graph H whose four endpoints avoid
    ``forbidden_interior``, or None when there is none.

    Pairs of disjoint allowed edges are scanned in lexicographic order and
    each gets the two disconnection checks of ``_good_witness``.  The root
    of a line trigraph has one edge per trigraph vertex, so the scan meets
    at most C(32, 2) = 496 pairs there.
    """
    if not H.is_graph:
        raise InputError("good pairs live in graphs")
    coloring = bipartition_of(H)
    if coloring is None:
        raise InputError("good pairs live in bipartite graphs")
    return _good_pair_scan(H, coloring[0], frozenset(forbidden_interior))


def _good_pair_scan(H: Trigraph, side: frozenset[int],
                    forb: frozenset[int]) -> GoodPairWitness | None:
    """``find_good_pair`` on a bipartite graph H already 2-colored, with
    ``side`` one color class."""
    allowed = [e for e in H.strong_edges() if not set(e) & forb]
    for e1, e2 in itertools.combinations(allowed, 2):
        if not set(e1) & set(e2):
            witness = _good_witness(H, side, e1, e2)
            if witness is not None:
                return witness
    return None


# ---------------------------------------------------------------------------
# even pairs of basic trigraphs


def _lifted_good_pair(cert: LineRootCertificate, D: frozenset[int]) -> tuple[int, int]:
    """The trigraph vertices of the first good pair of the root graph; with
    a switchable component D the root search avoids the interior of the
    short root path that carries D."""
    forb: frozenset[int] = frozenset()
    if D:
        degree = Counter(w for d in sorted(D) for w in cert.vertex_edges[d])
        if sorted(degree.values()) not in ([1, 1, 2], [1, 1, 2, 2]):
            raise TheoremContradictionError(
                "switchable component does not map to a short root path")
        forb = frozenset(w for w, deg in degree.items() if deg == 2)
    witness = _good_pair_scan(cert.root, cert.side, forb)
    if witness is None:
        raise TheoremContradictionError(
            "no good pair in the root of a non-complete line trigraph")
    edge_to_vertex = {frozenset(e): i for i, e in enumerate(cert.vertex_edges)}
    return (edge_to_vertex[frozenset(witness.edge1)],
            edge_to_vertex[frozenset(witness.edge2)])


def even_pair_basic(T: Trigraph, need_disjoint: bool = False,
                    classification: BasicClassification | None = None
                    ) -> tuple[int, int] | None:
    """Even pair of a basic trigraph, or None when it is complete; with
    ``need_disjoint`` the pair avoids the switchable component.

    The class certificate comes from ``classification``, trusted when
    passed and computed by ``classify_basic`` otherwise.  A bipartite
    trigraph whose sides are singletons once the switchable component is
    removed takes the cross pair.  The oracle scan of the other classes is
    exhaustive, so it fails only when no allowed even pair exists.
    """
    c = classification or classify_basic(T)
    if not c.is_basic:
        raise InputError("not a basic trigraph")
    if is_complete(T):
        return None
    S = switchable_vertices(T)
    D = S if need_disjoint else frozenset()
    if c.verdict == "bipartite":
        x, y = (sorted(side - D) for side in c.bipartition)
        if len(x) >= 2:
            pair = (x[0], x[1])
        elif len(y) >= 2:
            pair = (y[0], y[1])
        elif x and y:
            # the engine never gets here: it asks for a disjoint pair only at
            # favorable leaves, so n >= 5, D is light and the pair is strongly
            # antiadjacent.  Its vertex on the side of D's ends is isolated,
            # so bipartition_of puts it first, and the sides split only when
            # the other vertex sees an end of D: a balanced skew partition
            pair = (x[0], y[0])
        else:
            raise TheoremContradictionError(
                "bipartite leaf ran out of vertices outside the switchable component")
    elif c.verdict == "line":
        pair = _lifted_good_pair(c.line_root, D)
    else:
        # no doubled leaf, and no complement-class leaf owing a disjoint
        # pair, carries a light switchable component
        if len(S) > 2 and (need_disjoint or c.verdict == "doubled"):
            raise TheoremContradictionError(
                f"light switchable component inside a {c.verdict} leaf")
        pair = next(even_pairs(T, D), None)
        if pair is None:
            raise TheoremContradictionError(f"{c.verdict} leaf found no even pair")
        return pair
    u, v = sorted(pair)
    if {u, v} & D:
        raise TheoremContradictionError(
            f"{c.verdict} leaf: constructed pair ({u}, {v}) meets the switchable component")
    report = is_even_pair(T, u, v)
    if not report.is_even_pair:
        raise TheoremContradictionError(
            f"{c.verdict} leaf: constructed pair ({u}, {v}) fails the oracle "
            f"({report.verdict})")
    return (u, v)


# ---------------------------------------------------------------------------
# root sanity checks


class RootPropertyReport(_Record):
    def __init__(self, even_theta: tuple | None, has_k4_minor: bool):
        self.__dict__.update(even_theta=even_theta, has_k4_minor=has_k4_minor)

    @property
    def ok(self) -> bool:
        return self.even_theta is None and not self.has_k4_minor


def _three_paths(adj: tuple[int, ...], u: int, v: int) -> tuple | None:
    """Three internally disjoint u-v paths between nonadjacent u and v, in
    order of their second vertex, or None when at most two exist (Menger's
    theorem).  Each round is a breadth-first augmenting search on the
    vertex-split graph, with states (x, 0) entering x and (x, 1) leaving
    it; bit y of ``nxt[x]`` marks a path stepping from x to y, and a used
    vertex is entered only to walk its path backwards."""
    nxt = [0] * len(adj)
    for _ in range(3):
        came = {(u, 1): None}
        queue = [(u, 1)]
        for x, left in queue:
            if left:
                steps = [(y, 0) for y in bits_of(adj[x] & ~nxt[x] & ~(1 << u))
                         if not nxt[y] >> x & 1]
                if nxt[x] and x != u:
                    steps.append((x, 0))
            else:
                steps = [(p, 1) for p in range(len(adj)) if nxt[p] >> x & 1] or [(x, 1)]
            for step in steps:
                if step not in came:
                    came[step] = (x, left)
                    queue.append(step)
            if (v, 0) in came:
                break
        else:
            return None
        state = (v, 0)
        while came[state]:
            (x, left), y = came[state], state[0]
            if x != y:  # a new step x -> y, or an old step y -> x undone
                nxt[x if left else y] ^= 1 << (y if left else x)
            state = came[state]
    paths = []
    for w in bits_of(nxt[u]):
        path = [u, w]
        while path[-1] != v:
            path.append(nxt[path[-1]].bit_length() - 1)
        paths.append(tuple(path))
    return tuple(paths)


def has_k4_minor(H: Trigraph) -> bool:
    """Whether the strong edges of H have a K4 minor, by series-parallel
    reduction on a copy of the strong masks: delete a vertex of degree at
    most one, or one of degree two after joining its two neighbors.  Each
    step takes a minor, and K4 is simple, so a join that meets an existing
    edge loses nothing.  A stuck nonempty remainder has minimum degree
    three and therefore a K4 minor (Dirac 1952)."""
    adj = list(H.strong)
    alive = (1 << H.n) - 1
    changed = True
    while changed:
        changed = False
        for v in bits_of(alive):
            nbrs = adj[v]
            degree = nbrs.bit_count()
            if degree > 2:
                continue
            if degree == 2:
                w1, w2 = bits_of(nbrs)
                adj[w1] |= 1 << w2
                adj[w2] |= 1 << w1
            for w in bits_of(nbrs):
                adj[w] ^= 1 << v
            alive ^= 1 << v
            changed = True
    return bool(alive)


def verify_root_properties(H: Trigraph) -> RootPropertyReport:
    """Roots of odd-prism-free line trigraphs must have no even theta and
    no K4 minor; the report lists what was found.  The even theta is the
    first pair, in ``itertools.combinations`` order, of same-side vertices
    of degree at least three that ``_three_paths`` joins, with its paths,
    which are even in a bipartite H.  A non-bipartite H raises InputError."""
    coloring = bipartition_of(H)
    if coloring is None:
        raise InputError("root checks need a bipartite graph")
    side = mask_of(coloring[0])
    branch = [x for x in range(H.n) if H.adj[x].bit_count() >= 3]
    thetas = ((u, v, _three_paths(H.adj, u, v)) for u, v in itertools.combinations(branch, 2)
              if not (side >> u ^ side >> v) & 1)
    return RootPropertyReport(next((t for t in thetas if t[2]), None), has_k4_minor(H))
