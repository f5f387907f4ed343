"""Core trigraph representation and operations.

A trigraph assigns each unordered vertex pair one of three adjacency codes:
+1 (strongly adjacent), 0 (semiadjacent, a "switchable" pair), or -1
(strongly antiadjacent).  A pair is *adjacent* if its code is in {0, +1} and
*antiadjacent* if its code is in {-1, 0}; a graph is exactly a trigraph with
no switchable pair.  All values here are immutable after construction and
every operation is a pure function, so everything is safe to use from
multiple workers.

Vertices are the integers 0..n-1 (n is capped at MAX_VERTICES, which is
plenty for the exhaustive workloads this library targets).  Adjacency is
stored as two per-vertex bitmasks, one for the strong partners and one for
the switchable partners; every other pair is strongly antiadjacent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError

MAX_VERTICES = 32

STRONG = 1
SWITCHABLE = 0
ANTI = -1


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Trigraph:
    """Immutable trigraph on vertices 0..n-1.

    The pair codes are the per-vertex bitmasks

    - ``strong[v]``: partners with code +1,
    - ``switch[v]``: partners with code 0,

    and every other pair has code -1.  Derived once at construction:

    - ``adj[v]``: adjacent partners (code >= 0),
    - ``anti[v]``: antiadjacent partners (code <= 0).

    ``parent_vertices`` optionally records, for trigraphs derived from a
    larger one, which parent vertex each local vertex came from.  It is
    bookkeeping only and does not participate in equality.
    """

    __slots__ = ("n", "strong", "switch", "adj", "anti", "parent_vertices",
                 "_complement")

    def __init__(self, strong: Sequence[int], switch: Sequence[int],
                 parent_vertices: tuple[int, ...] | None = None):
        strong, switch = tuple(strong), tuple(switch)
        n = len(strong)
        if len(switch) != n:
            raise InputError("strong and switch masks must cover the same vertices")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
        full = (1 << n) - 1
        adj, anti = [], []
        for v in range(n):
            s, w = strong[v], switch[v]
            others = full ^ (1 << v)
            if (s | w) & ~others:
                raise InputError(f"vertex {v} has a self-pair or a partner out of range")
            if s & w:
                u = (s & w).bit_length() - 1
                raise InputError(f"pair ({v}, {u}) is both strong and switchable")
            adj.append(s | w)
            anti.append(others & ~s)
        for v in range(n):
            for u in bits_of(adj[v]):
                if not adj[u] >> v & 1 or (strong[u] >> v & 1) != (strong[v] >> u & 1):
                    raise InputError(f"pair ({v}, {u}) has asymmetric codes")
        self.n = n
        self.strong = strong
        self.switch = switch
        self.adj = tuple(adj)
        self.anti = tuple(anti)
        self.parent_vertices = parent_vertices
        self._complement = None

    @property
    def is_graph(self) -> bool:
        return not any(self.switch)

    def value(self, u: int, v: int) -> int:
        if u == v:
            raise InputError(f"no self-pair ({u}, {v})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"pair ({u}, {v}) out of range for n={self.n}")
        if self.strong[u] >> v & 1:
            return STRONG
        return SWITCHABLE if self.switch[u] >> v & 1 else ANTI

    def pairs(self) -> Iterator[tuple[int, int]]:
        return itertools.combinations(range(self.n), 2)

    def _pairs_in(self, masks: Sequence[int]) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(masks[u] >> u << u)]

    def strong_edges(self) -> list[tuple[int, int]]:
        return self._pairs_in(self.strong)

    def switchable_pairs(self) -> list[tuple[int, int]]:
        return self._pairs_in(self.switch)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Trigraph) and self.strong == other.strong
                and self.switch == other.switch)

    def __hash__(self) -> int:
        return hash((self.n, self.strong, self.switch))

    def __repr__(self) -> str:
        kind = "graph" if self.is_graph else "trigraph"
        return (f"<{kind} n={self.n} strong={len(self.strong_edges())} "
                f"switchable={len(self.switchable_pairs())}>")


def renumber(masks: Sequence[int], order: Sequence[int]) -> list[int]:
    """Rows ``order`` of a per-vertex mask table, renumbered so that vertex
    ``order[i]`` becomes i; vertices missing from ``order`` drop out."""
    where = {old: new for new, old in enumerate(order)}
    keep = mask_of(order)
    out = []
    for old in order:
        m = 0
        for w in bits_of(masks[old] & keep):
            m |= 1 << where[w]
        out.append(m)
    return out


def make_trigraph(n: int, entries: Iterable[tuple[int, int, int]] = ()) -> Trigraph:
    """Build a trigraph from explicit pair codes.

    Pairs not listed default to -1 (strongly antiadjacent).  Rejects
    out-of-range vertices, duplicate pairs, and codes outside {-1, 0, +1},
    naming the offending pair.
    """
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
    strong, switch = [0] * n, [0] * n
    seen: set[tuple[int, int]] = set()
    for u, v, value in entries:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InputError(f"pair ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate pair ({key[0]}, {key[1]})")
        if value not in (ANTI, SWITCHABLE, STRONG):
            raise InputError(f"illegal code {value} for pair ({u}, {v})")
        seen.add(key)
        if value != ANTI:
            masks = strong if value == STRONG else switch
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return Trigraph(strong, switch)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Trigraph:
    """Plain graph: listed pairs strongly adjacent, everything else -1."""
    return make_trigraph(n, [(u, v, STRONG) for u, v in edges])


def complement(T: Trigraph) -> Trigraph:
    """Negate every pair code (an involution).  Computed once per instance."""
    if T._complement is None:
        co = Trigraph([a & ~w for a, w in zip(T.anti, T.switch)], T.switch)
        co._complement = T
        T._complement = co
    return T._complement


def induced(T: Trigraph, X: Iterable[int]) -> Trigraph:
    """Restriction to the vertex set X, reindexed in sorted order.

    The result records the parent vertex of each new index so certificates
    can be lifted back.  X may be empty.
    """
    idx = sorted(set(X))
    for v in idx:
        if not (0 <= v < T.n):
            raise InputError(f"vertex {v} out of range for n={T.n}")
    return Trigraph(renumber(T.strong, idx), renumber(T.switch, idx),
                    parent_vertices=tuple(idx))


def realization(T: Trigraph, S: Iterable[tuple[int, int]]) -> Trigraph:
    """Graph whose edges are the strong edges of T plus the chosen
    switchable pairs S; every other pair becomes strongly antiadjacent."""
    strong = list(T.strong)
    for u, v in S:
        if u == v or not (0 <= u < T.n and 0 <= v < T.n):
            raise InputError(f"pair ({u}, {v}) out of range for n={T.n}")
        if not T.switch[u] >> v & 1:
            raise InputError(f"pair ({u}, {v}) is not switchable")
        strong[u] |= 1 << v
        strong[v] |= 1 << u
    return Trigraph(strong, [0] * T.n)


def full_realization(T: Trigraph) -> Trigraph:
    return Trigraph(T.adj, [0] * T.n)


def is_semirealization(candidate: Trigraph, base: Trigraph) -> bool:
    """True iff ``candidate`` keeps every strong edge and every strong
    antiedge of ``base`` (switchable pairs of the base may go either way)."""
    if candidate.n != base.n:
        raise InputError("semirealization check requires equal vertex counts")
    return all(not bs & ~cs and not (ba & ~bw) & ~(ca & ~cw)
               for bs, ba, bw, cs, ca, cw in zip(
                   base.strong, base.anti, base.switch,
                   candidate.strong, candidate.anti, candidate.switch))


def _mask_components(neigh: Sequence[int], mask: int) -> list[int]:
    comps = []
    remaining = mask
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            grow = 0
            for v in bits_of(frontier):
                grow |= neigh[v]
            grow &= mask & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        remaining &= ~comp
    return comps


def _mask_connected(neigh: Sequence[int], mask: int) -> bool:
    """Whether ``mask`` is one component (or empty) under ``neigh``: a
    single search grown from the lowest bit must reach all of it."""
    comp = frontier = mask & -mask
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= neigh[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp == mask


def _pruned_masks(n: int, feasible: Callable[[int, int, int], bool]) -> Iterator[int]:
    """Yield the masks 0 < x < 2^n - 1 in increasing order, skipping
    subtrees that cannot hold a wanted mask.

    A depth-first search decides vertex n - 1 first and vertex 0 last,
    putting each vertex on the Y side (bit clear) before the X side, which
    is increasing integer order.  A node, leaves included, is entered only
    while ``feasible(x_fixed, y_fixed, free)`` holds, where ``free`` is the
    mask of the undecided vertices.  The predicate must be a necessary
    condition: when it holds on every partial assignment that a wanted mask
    completes, every wanted mask is yielded, in the order of
    ``range(1, 2^n - 1)``.
    """
    full = (1 << n) - 1
    stack = [(0, 0, full)]
    while stack:
        x, y, free = stack.pop()
        if not feasible(x, y, free):
            continue
        if not free:
            if 0 < x < full:
                yield x
            continue
        bit = 1 << (free.bit_length() - 1)
        free ^= bit
        stack.append((x | bit, y, free))
        stack.append((x, y | bit, free))


def _vertex_mask(T: Trigraph, X: Iterable[int] | None) -> int:
    if X is None:
        return (1 << T.n) - 1
    mask = 0
    for v in sorted(set(X)):
        if not (0 <= v < T.n):
            raise InputError(f"vertex {v} out of range for n={T.n}")
        mask |= 1 << v
    return mask


def components(T: Trigraph, X: Iterable[int] | None = None,
               mode: str = "connected") -> list[frozenset[int]]:
    """Maximal connected (or anticonnected) subsets of X.

    Connectivity counts a semiadjacent pair as adjacent; anticonnectivity
    counts it as antiadjacent, i.e. the modes use the code >= 0 and the
    code <= 0 relations respectively.  Returns a partition of X ordered by
    smallest member.
    """
    if mode not in ("connected", "anticonnected"):
        raise InputError(f"unknown mode {mode!r}")
    neigh = T.adj if mode == "connected" else T.anti
    return [frozenset(bits_of(c)) for c in _mask_components(neigh, _vertex_mask(T, X))]


def is_connected(T: Trigraph, X: Iterable[int] | None = None) -> bool:
    return _mask_connected(T.adj, _vertex_mask(T, X))


def is_anticonnected(T: Trigraph, X: Iterable[int] | None = None) -> bool:
    return _mask_connected(T.anti, _vertex_mask(T, X))


@dataclass(frozen=True)
class PathWitness:
    """A path in the trigraph sense: consecutive vertices adjacent, all
    other pairs antiadjacent."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1


@dataclass(frozen=True)
class PathEnumeration:
    paths: tuple[PathWitness, ...]
    truncated: bool


def validate_path(T: Trigraph, vertices: Sequence[int]) -> None:
    """Raise InputError unless the sequence is a path of T."""
    k = len(vertices)
    if k == 0:
        raise InputError("empty vertex sequence")
    if len(set(vertices)) != k:
        raise InputError("path vertices must be distinct")
    for i, j in itertools.combinations(range(k), 2):
        code = T.value(vertices[i], vertices[j])
        if j - i == 1:
            if code < 0:
                raise InputError(
                    f"consecutive pair ({vertices[i]}, {vertices[j]}) not adjacent")
        elif code > 0:
            raise InputError(
                f"non-consecutive pair ({vertices[i]}, {vertices[j]}) not antiadjacent")


def iter_paths(T: Trigraph, u: int, v: int,
               interior: Iterable[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Yield all paths from u to v in lexicographic order of their vertex
    sequences.  When ``interior`` is given, interior vertices are restricted
    to that set (the endpoints are not constrained)."""
    if u == v:
        raise InputError("path endpoints must differ")
    full = (1 << T.n) - 1
    interior_mask = full if interior is None else mask_of(interior)
    target = 1 << v
    adj, anti = T.adj, T.anti

    def rec(path: tuple[int, ...], used: int, pref_anti: int) -> Iterator[tuple[int, ...]]:
        last = path[-1]
        cand = adj[last] & pref_anti & ~used & (interior_mask | target)
        next_pref = pref_anti & anti[last]
        for x in bits_of(cand):
            if x == v:
                yield path + (v,)
            else:
                yield from rec(path + (x,), used | (1 << x), next_pref)

    yield from rec((u,), 1 << u, full)


def enumerate_paths(T: Trigraph, u: int, v: int,
                    max_count: int = 1_000_000) -> PathEnumeration:
    """All u-v paths, deterministically ordered; flags truncation instead of
    silently stopping when more than ``max_count`` paths exist."""
    if max_count <= 0:
        raise InputError("max_count must be positive")
    out: list[PathWitness] = []
    truncated = False
    for seq in iter_paths(T, u, v):
        if len(out) == max_count:
            truncated = True
            break
        out.append(PathWitness(seq))
    return PathEnumeration(tuple(out), truncated)


@dataclass(frozen=True)
class HoleWitness:
    """A hole (chordless cycle on >= 5 vertices) or an antihole (its
    complement-side counterpart), listed in cyclic order."""

    vertices: tuple[int, ...]
    kind: str  # "hole" | "antihole"

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1


def validate_hole(T: Trigraph, cycle: Sequence[int], kind: str = "hole") -> None:
    """Raise InputError unless the cyclic sequence is a hole (antihole) of T."""
    k = len(cycle)
    if k < 5:
        raise InputError("holes have at least five vertices")
    if len(set(cycle)) != k:
        raise InputError("hole vertices must be distinct")
    if kind not in ("hole", "antihole"):
        raise InputError(f"unknown hole kind {kind!r}")
    H = T if kind == "hole" else complement(T)
    for i, j in itertools.combinations(range(k), 2):
        code = H.value(cycle[i], cycle[j])
        d = j - i
        if d == 1 or d == k - 1:
            if code < 0:
                raise InputError(f"cyclically consecutive pair ({cycle[i]}, {cycle[j]}) not adjacent")
        elif code > 0:
            raise InputError(f"chord pair ({cycle[i]}, {cycle[j]}) not antiadjacent")


def switchable_components(T: Trigraph) -> list[frozenset[int]]:
    """Components of the graph of switchable pairs, size >= 2 only."""
    comps = _mask_components(T.switch, (1 << T.n) - 1)
    return [frozenset(bits_of(c)) for c in comps if c.bit_count() >= 2]


@dataclass(frozen=True)
class ClassFVerdict:
    """Outcome of the restricted-switchable-structure membership test."""

    ok: bool
    violation: str | None = None
    component: frozenset[int] | None = None
    kind: str | None = None  # "small" | "light" | None

    def __bool__(self) -> bool:
        return self.ok


def switchable_vertices(T: Trigraph) -> frozenset[int]:
    """Union of the switchable components: the vertices with a switchable
    partner."""
    return frozenset(v for v in range(T.n) if T.switch[v])


def switchable_structure(T: Trigraph) -> ClassFVerdict:
    """The structural half of class membership: at most one switchable
    component, either a single pair ("small") or a two-edge path ("light"),
    with the neighborhood restrictions checked here.  ``in_class_F`` adds
    Bergeness."""
    comps = switchable_components(T)
    if len(comps) > 1:
        return ClassFVerdict(False, "more than one switchable component")
    if not comps:
        return ClassFVerdict(True, None, None, None)
    D = comps[0]
    sigma_edges = T.switchable_pairs()
    if len(sigma_edges) > 2:
        return ClassFVerdict(False, "switchable component has more than two edges", D)
    if len(sigma_edges) == 1:
        x, y = sigma_edges[0]
        if T.adj[x] & T.adj[y]:
            return ClassFVerdict(
                False, "small switchable pair has a common neighbor", D, "small")
        return ClassFVerdict(True, None, D, "small")
    # two switchable edges: the component is a path x - v - y
    degree = {w: sum(1 for e in sigma_edges if w in e) for w in D}
    center = [w for w in D if degree[w] == 2][0]
    x, y = sorted(w for w in D if w != center)
    rest = mask_of(range(T.n)) & ~mask_of((center, x, y))
    if T.adj[center] & rest:
        return ClassFVerdict(
            False, "light component center has a neighbor outside the component",
            D, "light")
    if T.adj[x] >> y & 1:
        return ClassFVerdict(
            False, "light component ends are not strongly antiadjacent", D, "light")
    if T.adj[x] & T.adj[y] != 1 << center:
        return ClassFVerdict(
            False, "light component ends have common neighbors besides the center",
            D, "light")
    return ClassFVerdict(True, None, D, "light")


def with_bergeness(structure: ClassFVerdict, berge: bool) -> ClassFVerdict:
    """Class membership from its two halves, the ``switchable_structure``
    verdict and whether the trigraph is Berge.  A structural violation is
    named first, so the reported violation is deterministic."""
    if structure.ok and not berge:
        return ClassFVerdict(False, "not Berge", structure.component, structure.kind)
    return structure


def in_class_F(T: Trigraph) -> ClassFVerdict:
    """Membership test for the working class of Berge trigraphs whose only
    switchable component is a single pair ("small") or a two-edge path
    ("light") with the neighborhood restrictions checked here.

    Structural conditions are checked first so the named violation is
    deterministic; Bergeness is checked last.
    """
    verdict = switchable_structure(T)
    if not verdict.ok:
        return verdict
    from .detect import is_berge  # deferred: detect builds on this module

    return with_bergeness(verdict, is_berge(T)[0])


def is_complete(T: Trigraph) -> bool:
    """True iff every pair is adjacent (semiadjacent counts as adjacent)."""
    full = (1 << T.n) - 1
    return all(T.adj[v] == full & ~(1 << v) for v in range(T.n))


def clique_number(G: Trigraph) -> int:
    """Maximum clique size of a graph, by branch and bound over bitmasks."""
    if not G.is_graph:
        raise InputError("clique_number requires a graph (no switchable pairs)")
    adj = G.adj
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & adj[v], size + 1)

    expand((1 << G.n) - 1, 0)
    return best
